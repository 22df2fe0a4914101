//! The serving handle: a long-lived [`Inferencer`] that owns a tape-free
//! executor and runs the ADTD inference entry points on it.
//!
//! The framework's worker threads each hold one `Inferencer` for their
//! whole lifetime, so the executor's scratch buffers are sized by the
//! first table and its packed weights are built once, then reused for
//! every table after it.
//!
//! [`Adtd`] has two bodies per operation: a single-sequence one and a
//! fused block-diagonal one over a ragged batch. They are bit-identical,
//! but the fused body costs more at small shapes, so the `*_batch`
//! methods here pick between them from the number of chunks they are
//! handed. This is the only place that choice is made; callers above
//! hand over whatever chunks they have.

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

    /// [`Adtd::encode_meta`] on this worker's executor.
    pub fn encode_meta(&mut self, model: &Adtd, chunk: &TableChunk) -> MetaEncoding {
        model.encode_meta(&mut self.exec.session(&model.store), chunk)
    }

    /// [`Adtd::predict_meta`] on this worker's executor.
    pub fn predict_meta(
        &mut self,
        model: &Adtd,
        enc: &MetaEncoding,
        nonmeta: &[Vec<f32>],
    ) -> Vec<Vec<f32>> {
        model.predict_meta(&mut self.exec.session(&model.store), enc, nonmeta)
    }

    /// [`Adtd::predict_content`] on this worker's executor.
    pub fn predict_content(
        &mut self,
        model: &Adtd,
        enc: &MetaEncoding,
        contents: &[Option<ColumnContent>],
        nonmeta: &[Vec<f32>],
    ) -> Vec<Option<Vec<f32>>> {
        model.predict_content(&mut self.exec.session(&model.store), enc, contents, nonmeta)
    }

    /// Encodes many chunks' metadata, one cacheable [`MetaEncoding`] per
    /// chunk in input order; bit-identical to looping
    /// [`Inferencer::encode_meta`].
    pub fn encode_meta_batch(&mut self, model: &Adtd, chunks: &[&TableChunk]) -> Vec<MetaEncoding> {
        match chunks {
            [chunk] => vec![self.encode_meta(model, chunk)],
            _ => model.encode_meta_batched(&mut self.exec.session(&model.store), chunks),
        }
    }

    /// Classifies every column of every chunk from its metadata encoding;
    /// bit-identical to looping [`Inferencer::predict_meta`].
    pub fn predict_meta_batch(
        &mut self,
        model: &Adtd,
        items: &[(&MetaEncoding, &[Vec<f32>])],
    ) -> Vec<Vec<Vec<f32>>> {
        match items {
            [(enc, nonmeta)] => vec![self.predict_meta(model, enc, nonmeta)],
            _ => model.predict_meta_batched(&mut self.exec.session(&model.store), items),
        }
    }

    /// Runs the content tower over every chunk's scanned columns and
    /// returns per-column verdicts in chunk order; bit-identical to
    /// looping [`Inferencer::predict_content`].
    pub fn predict_content_batch(
        &mut self,
        model: &Adtd,
        items: &[ContentBatchItem<'_>],
    ) -> Vec<Vec<Option<Vec<f32>>>> {
        match items {
            [(enc, contents, nonmeta)] => vec![self.predict_content(model, enc, contents, nonmeta)],
            _ => model.predict_content_batched(&mut self.exec.session(&model.store), items),
        }
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
    fn empty_and_one_chunk_batches_match_the_fused_body() {
        // Which body a batch runs on is decided from its size alone; the
        // one-chunk shortcut must be invisible in the bytes.
        let m = model();
        let mut inf = Inferencer::default();
        assert!(inf.encode_meta_batch(&m, &[]).is_empty());
        assert!(inf.predict_meta_batch(&m, &[]).is_empty());
        assert!(inf.predict_content_batch(&m, &[]).is_empty());

        let c = chunk(3);
        let contents = contents_for(&c);
        let mut exec = InferExec::new();
        let encs = inf.encode_meta_batch(&m, &[&c]);
        let fused = m.encode_meta_batched(&mut exec.session(&m.store), &[&c]);
        assert_eq!(encs.len(), 1);
        assert_eq!(encs[0].layer_latents, fused[0].layer_latents);
        assert_eq!(encs[0].col_marker_pos, fused[0].col_marker_pos);
        let meta_items = [(&encs[0], c.nonmeta.as_slice())];
        assert_eq!(
            inf.predict_meta_batch(&m, &meta_items),
            m.predict_meta_batched(&mut exec.session(&m.store), &meta_items)
        );
        let content_items = [(&encs[0], contents.as_slice(), c.nonmeta.as_slice())];
        assert_eq!(
            inf.predict_content_batch(&m, &content_items),
            m.predict_content_batched(&mut exec.session(&m.store), &content_items)
        );
    }
}
