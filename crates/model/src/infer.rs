//! The serving handle: a long-lived [`Inferencer`] that owns a tape-free
//! executor and runs the ADTD inference entry points on it.
//!
//! The framework's worker threads each hold one `Inferencer` for their
//! whole lifetime, so the executor's scratch buffers are sized by the
//! first table and its packed weights are built once, then reused for
//! every table after it.
//!
//! [`Adtd`] has one body per operation, over a ragged batch of chunks;
//! the `*_batch` methods here run it on this worker's executor over
//! whatever chunks they are handed, and the single-chunk methods are
//! batches of one. Nothing here — or anywhere — chooses between
//! implementations.

use crate::adtd::{Adtd, ContentBatchItem, MetaEncoding};
use crate::prepare::TableChunk;
use taste_nn::InferExec;
use taste_tokenizer::ColumnContent;

/// A reusable serving context: one per worker thread.
#[derive(Default)]
pub struct Inferencer {
    exec: InferExec,
}

impl Inferencer {
    /// An inferencer whose kernels may split large matmuls across
    /// `threads` threads (clamped to at least 1). Threaded kernels are
    /// bit-identical to single-threaded ones, so this only changes speed.
    pub fn with_kernel_threads(threads: usize) -> Inferencer {
        Inferencer { exec: InferExec::with_kernel_threads(threads) }
    }

    /// The kernel width in use (always ≥ 1).
    pub fn kernel_threads(&self) -> usize {
        self.exec.kernel_threads()
    }

    /// [`Inferencer::encode_meta_batch`] over one chunk. The signature is
    /// pinned by `perf/README.md` ("Pinned API").
    pub fn encode_meta(&mut self, model: &Adtd, chunk: &TableChunk) -> MetaEncoding {
        self.encode_meta_batch(model, &[chunk]).pop().expect("one encoding per chunk")
    }

    /// [`Inferencer::predict_meta_batch`] over one chunk. The signature is
    /// pinned by `perf/README.md` ("Pinned API").
    pub fn predict_meta(&mut self, model: &Adtd, enc: &MetaEncoding, nonmeta: &[Vec<f32>]) -> Vec<Vec<f32>> {
        self.predict_meta_batch(model, &[(enc, nonmeta)]).pop().expect("one result per chunk")
    }

    /// [`Inferencer::predict_content_batch`] over one chunk. The signature
    /// is pinned by `perf/README.md` ("Pinned API").
    pub fn predict_content(
        &mut self,
        model: &Adtd,
        enc: &MetaEncoding,
        contents: &[Option<ColumnContent>],
        nonmeta: &[Vec<f32>],
    ) -> Vec<Option<Vec<f32>>> {
        self.predict_content_batch(model, &[(enc, contents, nonmeta)]).pop().expect("one result per chunk")
    }

    /// [`Adtd::encode_meta`] on this worker's executor: one cacheable
    /// [`MetaEncoding`] per chunk, in input order.
    pub fn encode_meta_batch(&mut self, model: &Adtd, chunks: &[&TableChunk]) -> Vec<MetaEncoding> {
        model.encode_meta(&mut self.exec.session(&model.store), chunks)
    }

    /// [`Adtd::predict_meta`] on this worker's executor: every column of
    /// every chunk classified from its metadata encoding.
    pub fn predict_meta_batch(
        &mut self,
        model: &Adtd,
        items: &[(&MetaEncoding, &[Vec<f32>])],
    ) -> Vec<Vec<Vec<f32>>> {
        model.predict_meta(&mut self.exec.session(&model.store), items)
    }

    /// [`Adtd::predict_content`] on this worker's executor: the content
    /// tower over every chunk's scanned columns, per-column verdicts in
    /// chunk order.
    pub fn predict_content_batch(
        &mut self,
        model: &Adtd,
        items: &[ContentBatchItem<'_>],
    ) -> Vec<Vec<Option<Vec<f32>>>> {
        model.predict_content(&mut self.exec.session(&model.store), items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::features::NONMETA_DIM;
    use taste_tokenizer::{Tokenizer, VocabBuilder};

    fn model() -> Adtd {
        let mut b = VocabBuilder::new();
        b.add_words(["orders", "city", "name", "phone", "int", "text"]);
        b.add_words(["orders", "city", "name", "phone", "int", "text"]);
        Adtd::new(ModelConfig::tiny(), Tokenizer::new(b.build(100, 1)), 4, 3)
    }

    fn chunk(ncols: usize) -> TableChunk {
        TableChunk {
            table_text: "orders".into(),
            col_texts: (0..ncols).map(|i| format!("city{i} text")).collect(),
            nonmeta: (0..ncols).map(|_| vec![0.5; NONMETA_DIM]).collect(),
            ordinals: (0..ncols as u16).collect(),
        }
    }

    fn contents_for(c: &TableChunk) -> Vec<Option<ColumnContent>> {
        (0..c.col_texts.len())
            .map(|j| (j % 2 == 0).then(|| ColumnContent { cells: vec!["phone".into()] }))
            .collect()
    }

    #[test]
    fn kernel_threads_do_not_change_predictions() {
        // The row-parallel partition assigns whole rows to fixed threads,
        // so any thread count yields byte-identical probabilities.
        let m = model();
        let c = chunk(3);
        let contents = vec![Some(ColumnContent { cells: vec!["phone".into()] }), None, None];

        let mut one = Inferencer::with_kernel_threads(1);
        let mut four = Inferencer::with_kernel_threads(4);
        assert_eq!(one.kernel_threads(), 1);
        assert_eq!(four.kernel_threads(), 4);
        assert_eq!(Inferencer::default().kernel_threads(), 1);

        let enc1 = one.encode_meta(&m, &c);
        let enc4 = four.encode_meta(&m, &c);
        assert_eq!(enc1.layer_latents, enc4.layer_latents);
        assert_eq!(
            one.predict_meta(&m, &enc1, &c.nonmeta),
            four.predict_meta(&m, &enc4, &c.nonmeta)
        );
        assert_eq!(
            one.predict_content(&m, &enc1, &contents, &c.nonmeta),
            four.predict_content(&m, &enc4, &contents, &c.nonmeta)
        );
    }

    #[test]
    fn batch_entry_points_agree_with_per_chunk_calls() {
        let m = model();
        let chunks: Vec<TableChunk> = (1..=3).map(chunk).collect();
        let refs: Vec<&TableChunk> = chunks.iter().collect();
        let contents: Vec<Vec<Option<ColumnContent>>> = chunks.iter().map(contents_for).collect();
        let mut inf = Inferencer::default();
        let encs = inf.encode_meta_batch(&m, &refs);
        let meta_items: Vec<(&MetaEncoding, &[Vec<f32>])> =
            encs.iter().zip(&chunks).map(|(e, c)| (e, c.nonmeta.as_slice())).collect();
        let meta_probs = inf.predict_meta_batch(&m, &meta_items);
        let content_items: Vec<ContentBatchItem<'_>> = encs
            .iter()
            .zip(&contents)
            .zip(&chunks)
            .map(|((e, ct), c)| (e, ct.as_slice(), c.nonmeta.as_slice()))
            .collect();
        let content_probs = inf.predict_content_batch(&m, &content_items);

        let mut solo = Inferencer::default();
        for (i, c) in chunks.iter().enumerate() {
            let enc = solo.encode_meta(&m, c);
            assert_eq!(enc.layer_latents, encs[i].layer_latents);
            assert_eq!(solo.predict_meta(&m, &enc, &c.nonmeta), meta_probs[i]);
            assert_eq!(solo.predict_content(&m, &enc, &contents[i], &c.nonmeta), content_probs[i]);
        }
    }

    #[test]
    fn empty_batches_are_empty_and_one_chunk_calls_are_batches_of_one() {
        let m = model();
        let mut inf = Inferencer::default();
        assert!(inf.encode_meta_batch(&m, &[]).is_empty());
        assert!(inf.predict_meta_batch(&m, &[]).is_empty());
        assert!(inf.predict_content_batch(&m, &[]).is_empty());

        let c = chunk(3);
        let contents = contents_for(&c);
        let encs = inf.encode_meta_batch(&m, &[&c]);
        let enc = inf.encode_meta(&m, &c);
        assert_eq!(encs.len(), 1);
        assert_eq!(encs[0].layer_latents, enc.layer_latents);
        assert_eq!(encs[0].col_marker_pos, enc.col_marker_pos);
        assert_eq!(
            inf.predict_meta_batch(&m, &[(&enc, c.nonmeta.as_slice())]),
            vec![inf.predict_meta(&m, &enc, &c.nonmeta)]
        );
        assert_eq!(
            inf.predict_content_batch(&m, &[(&enc, contents.as_slice(), c.nonmeta.as_slice())]),
            vec![inf.predict_content(&m, &enc, &contents, &c.nonmeta)]
        );
        // An all-`None` chunk runs no forward pass and predicts nothing.
        assert_eq!(inf.predict_content(&m, &enc, &[None, None, None], &c.nonmeta), vec![None, None, None]);
    }
}
