//! Dataset bundles: corpora, vocabularies, and loaded test databases.

use crate::scale::Scale;
use taste_core::Result;
use taste_data::corpus::{Corpus, CorpusSpec};
use taste_data::load::{load_split, LoadedSplit};
use taste_data::splits::Split;
use taste_db::LatencyProfile;
use taste_framework::stages::read_catalog;
use taste_core::HistogramKind;
use taste_model::prepare::{self, ModelInput};
use taste_tokenizer::{normalize, Tokenizer, VocabBuilder};

/// Which of the two evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// SynthWiki (WikiTable analog).
    Wiki,
    /// SynthGit (GitTables analog).
    Git,
}

impl DatasetKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Wiki => "SynthWiki",
            DatasetKind::Git => "SynthGit",
        }
    }

    /// The column-split threshold `l` used when training and serving
    /// TASTE on this dataset. The paper uses l=20 on a GPU; at the
    /// reproduction's reduced model scale, attention routing over
    /// 10-14-column SynthGit chunks does not converge in the training
    /// budget, so SynthGit uses smaller chunks (documented in
    /// EXPERIMENTS.md). Baselines are unaffected (TURL is per-column;
    /// Doduo's chunking uses the same value for fairness).
    pub fn default_l(self) -> usize {
        match self {
            DatasetKind::Wiki => 20,
            DatasetKind::Git => 6,
        }
    }

    /// The corpus spec at a given scale.
    pub fn spec(self, scale: &Scale) -> CorpusSpec {
        match self {
            DatasetKind::Wiki => CorpusSpec::synth_wiki(scale.wiki_tables, scale.seed),
            DatasetKind::Git => CorpusSpec::synth_git(scale.git_tables, scale.seed),
        }
    }
}

/// Histogram settings used whenever histograms are materialized.
pub const HISTOGRAM: (HistogramKind, usize) = (HistogramKind::EqualDepth, 8);

/// One dataset with every database the experiments touch.
pub struct Bundle {
    /// Which dataset.
    pub kind: DatasetKind,
    /// The generated corpus (with ground truth).
    pub corpus: Corpus,
    /// Tokenizer built from the training split.
    pub tokenizer: Tokenizer,
    /// Test split with cloud latency, no histograms (timing runs).
    pub test_timed: LoadedSplit,
    /// Test split with zero latency, no histograms (accuracy runs).
    pub test_fast: LoadedSplit,
    /// Test split with cloud latency and histograms.
    pub test_timed_hist: LoadedSplit,
    /// Test split with zero latency and histograms.
    pub test_fast_hist: LoadedSplit,
}

/// Builds the vocabulary from the training split: schema words plus a
/// sample of cell renderings (mirroring pre-training corpus coverage).
pub fn build_tokenizer(corpus: &Corpus) -> Tokenizer {
    let mut b = VocabBuilder::new();
    for table in corpus.split_tables(Split::Train) {
        for w in normalize(&table.meta.textual()) {
            b.add_word(&w);
        }
        for col in &table.columns {
            for w in normalize(&col.textual()) {
                b.add_word(&w);
            }
            b.add_word(col.raw_type.token());
        }
        for row in table.rows.iter().take(8) {
            for cell in row {
                for w in normalize(&cell.render()) {
                    b.add_word(&w);
                }
            }
        }
    }
    Tokenizer::new(b.build(4000, 2))
}

/// Builds a full bundle (corpus + tokenizer + the four test databases).
pub fn build_bundle(kind: DatasetKind, scale: &Scale) -> Result<Bundle> {
    let corpus = Corpus::generate(kind.spec(scale));
    let tokenizer = build_tokenizer(&corpus);
    let test_timed = load_split(&corpus, Split::Test, LatencyProfile::cloud(), None)?;
    let test_fast = load_split(&corpus, Split::Test, LatencyProfile::zero(), None)?;
    let test_timed_hist = load_split(&corpus, Split::Test, LatencyProfile::cloud(), Some(HISTOGRAM))?;
    let test_fast_hist = load_split(&corpus, Split::Test, LatencyProfile::zero(), Some(HISTOGRAM))?;
    Ok(Bundle { kind, corpus, tokenizer, test_timed, test_fast, test_timed_hist, test_fast_hist })
}

/// Builds training inputs for one split: catalog metadata (statistics and
/// optional histograms) comes from an analyzed zero-latency database —
/// matching what the model will see at serving time — while contents and
/// labels come from the corpus tables.
pub fn training_inputs_from_split(
    corpus: &Corpus,
    split: Split,
    with_histograms: bool,
    l: usize,
    m: usize,
    n: usize,
) -> Result<Vec<ModelInput>> {
    let hist = with_histograms.then_some(HISTOGRAM);
    let loaded = load_split(corpus, split, LatencyProfile::zero(), hist)?;
    let conn = loaded.db.connect();
    let tables = corpus.split_tables(split);
    let ntypes = corpus.ntypes();
    let mut inputs = Vec::new();
    let tids: Vec<_> = (0..tables.len() as u32).map(taste_core::TableId).collect();
    let catalog = read_catalog(&conn, &tids)?;
    for (table, (meta, columns)) in tables.iter().zip(&catalog) {
        let all_contents = prepare::select_cells(&table.rows, table.width(), m, n);
        for chunk in prepare::build_chunks(meta, columns, l, with_histograms) {
            let contents = chunk.ordinals.iter().map(|&o| all_contents[o as usize].clone()).collect();
            let labels: Vec<_> = chunk.ordinals.iter().map(|&o| table.labels[o as usize].clone()).collect();
            let targets = labels.iter().map(|ls| ls.to_multi_hot(ntypes)).collect();
            inputs.push(ModelInput { chunk, contents, targets, labels });
        }
    }
    Ok(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bundle_builds() {
        let scale = Scale::quick();
        let bundle = build_bundle(DatasetKind::Wiki, &scale).unwrap();
        assert_eq!(bundle.corpus.tables.len(), scale.wiki_tables);
        assert!(bundle.test_fast.db.table_count() > 0);
        assert_eq!(bundle.test_fast.db.table_count(), bundle.test_timed.db.table_count());
        // Vocab knows descriptive schema words.
        assert!(bundle.tokenizer.vocab().id("city").is_some());
    }

    #[test]
    fn training_inputs_have_db_backed_stats() {
        let scale = Scale::quick();
        let corpus = Corpus::generate(DatasetKind::Git.spec(&scale));
        let inputs = training_inputs_from_split(&corpus, Split::Valid, false, 20, 50, 10).unwrap();
        assert!(!inputs.is_empty());
        // NDV presence flag (index 7 of the nonmeta layout) must be set:
        // the stats came from an ANALYZEd database.
        for input in &inputs {
            for f in &input.chunk.nonmeta {
                assert_eq!(f[7], 1.0, "NDV should be present from ANALYZE");
            }
        }
    }

    #[test]
    fn histogram_inputs_populate_hist_block() {
        let scale = Scale::quick();
        let corpus = Corpus::generate(DatasetKind::Wiki.spec(&scale));
        let with = training_inputs_from_split(&corpus, Split::Valid, true, 20, 50, 10).unwrap();
        let without = training_inputs_from_split(&corpus, Split::Valid, false, 20, 50, 10).unwrap();
        let hist_flag_idx = taste_model::features::NONMETA_DIM - taste_model::features::HIST_FEATS - 1;
        let some_with = with.iter().flat_map(|i| i.chunk.nonmeta.iter()).any(|f| f[hist_flag_idx] == 1.0);
        let none_without = without.iter().flat_map(|i| i.chunk.nonmeta.iter()).all(|f| f[hist_flag_idx] == 0.0);
        assert!(some_with && none_without);
    }
}
