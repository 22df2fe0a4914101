//! A traditional rule-based detector — the pre-DL approach the paper's
//! related work surveys (§7): commercial tools like Alteryx Trifacta
//! recognize a small set of types with regular expressions and
//! dictionaries over column content.
//!
//! Included as an additional comparison point: it is fast and simple,
//! needs no training, but (a) must scan content for *every* column, and
//! (b) covers only types whose values follow a checkable syntax —
//! exactly the limitations §7 attributes to this family. The rule set
//! below covers the built-in catalog's syntactic types; names, titles,
//! and free-text types are out of its reach by construction.

use crate::custom_types::Validator;
use crate::report::{DetectionReport, TableResult};
use crate::stages::read_catalog;
use rustc_hash::FxHashSet;
use std::sync::Arc;
use taste_core::{LabelSet, Result, TableId, TypeRegistry};
use taste_db::{Database, ScanMethod};

/// One detection rule: a type name in the registry plus a validator and
/// the fraction of sampled values that must satisfy it.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Dotted semantic type name this rule detects.
    pub type_name: String,
    /// Value validator.
    pub validator: Validator,
    /// Minimum matching fraction of non-empty sampled values.
    pub min_match_frac: f64,
}

/// A rule-based detector over a type registry.
pub struct RuleBaseline {
    rules: Vec<Rule>,
}

fn dict(words: &[&str]) -> Validator {
    Validator::Dictionary(words.iter().map(|w| w.to_ascii_lowercase()).collect::<FxHashSet<_>>())
}

impl RuleBaseline {
    /// Builds an empty detector.
    pub fn new() -> RuleBaseline {
        RuleBaseline { rules: Vec::new() }
    }

    /// Adds a rule.
    pub fn rule(mut self, type_name: &str, validator: Validator, min_match_frac: f64) -> RuleBaseline {
        self.rules.push(Rule {
            type_name: type_name.to_owned(),
            validator,
            min_match_frac,
        });
        self
    }

    /// The Trifacta-flavored default rule set over the built-in catalog:
    /// every type whose values have a checkable syntax or a closed
    /// vocabulary.
    pub fn builtin() -> RuleBaseline {
        RuleBaseline::new()
            .rule("finance.credit_card_number", Validator::Luhn, 0.9)
            .rule("person.phone_number", Validator::Pattern("1##########".into()), 0.9)
            .rule("person.ssn", Validator::Pattern("###-##-####".into()), 0.9)
            .rule("location.zip_code", Validator::Pattern("#####".into()), 0.9)
            .rule("person.email", Validator::Pattern("@+.@+@@+.@+".into()), 0.8)
            .rule("web.ip_address", Validator::Pattern("#+.#+.#+.#+".into()), 0.9)
            .rule("misc.isbn", Validator::Pattern("978-#-###-#####-#".into()), 0.9)
            .rule("web.url", Validator::Pattern("https://@+.@+/@+".into()), 0.8)
            .rule("finance.iban", Validator::Pattern("@@####################".into()), 0.9)
            .rule("time.date", Validator::Pattern("####-##-##".into()), 0.9)
            .rule(
                "time.timestamp",
                Validator::Pattern("####-##-## ##:##:##".into()),
                0.9,
            )
            .rule("web.uuid", Validator::Pattern("?+-?+-?+-?+-?+".into()), 0.9)
            .rule("time.weekday", dict(taste_data::values::WEEKDAYS), 0.9)
            .rule("time.month", dict(taste_data::values::MONTHS), 0.9)
            .rule("finance.currency_code", dict(taste_data::values::CURRENCY_CODES), 0.9)
            .rule("location.city", dict(taste_data::values::CITIES), 0.9)
            .rule("location.country", dict(taste_data::values::COUNTRIES), 0.9)
            .rule("product.color", dict(taste_data::values::COLORS), 0.9)
            .rule("culture.language", dict(taste_data::values::LANGUAGES), 0.9)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Detects types for one column's sampled values.
    pub fn detect(&self, registry: &TypeRegistry, values: &[String]) -> LabelSet {
        let non_empty: Vec<&String> = values.iter().filter(|v| !v.is_empty()).collect();
        if non_empty.is_empty() {
            return LabelSet::empty();
        }
        LabelSet::from_iter(self.rules.iter().filter_map(|r| {
            let id = registry.by_name(&r.type_name)?;
            let hits = non_empty.iter().filter(|v| r.validator.matches(v)).count();
            (hits as f64 / non_empty.len() as f64 >= r.min_match_frac).then_some(id)
        }))
    }

    /// End-to-end run over a batch of tables: scans every column (rule
    /// systems have no metadata path), applies the rules, and reports
    /// with the same [`DetectionReport`] shape as every other approach.
    pub fn run(
        &self,
        registry: &TypeRegistry,
        db: &Arc<Database>,
        tables: &[TableId],
        m: usize,
        n: usize,
    ) -> Result<DetectionReport> {
        let ledger_before = db.ledger().snapshot();
        let t0 = std::time::Instant::now();
        let conn = db.connect();
        let mut results = Vec::with_capacity(tables.len());
        let mut total_columns = 0u64;
        let catalog = read_catalog(&conn, tables)?;
        for (&tid, (_, columns)) in tables.iter().zip(&catalog) {
            let t_table = std::time::Instant::now();
            let ncols = columns.len();
            total_columns += ncols as u64;
            let ordinals: Vec<u16> = (0..ncols as u16).collect();
            let rows = conn.scan_columns(tid, &ordinals, ScanMethod::FirstM { m })?;
            let mut admitted = Vec::with_capacity(ncols);
            for j in 0..ncols {
                let values: Vec<String> = rows
                    .iter()
                    .filter_map(|r| {
                        let cell = &r[j];
                        (!cell.is_empty()).then(|| cell.render())
                    })
                    .take(n)
                    .collect();
                admitted.push(self.detect(registry, &values));
            }
            results.push(TableResult {
                table: tid,
                admitted,
                uncertain_columns: 0,
                outcome: Default::default(),
                resilience: Default::default(),
                latency: t_table.elapsed(),
                model_version: 0,
            });
        }
        Ok(DetectionReport {
            approach: "Rules".into(),
            tables: results,
            wall_time: t0.elapsed(),
            ledger: db.ledger().snapshot().since(&ledger_before),
            total_columns,
            cache_hits: 0,
            cache_misses: 0,
            breaker_trips: 0,
            breaker_transitions: Vec::new(),
            replayed_tables: 0,
            journal_corrupt_records: 0,
            journal_torn_tail: false,
            cache_corrupt_entries: 0,
            overload: Default::default(),
            batching: Default::default(),
            rollout: Default::default(),
        })
    }
}

impl Default for RuleBaseline {
    fn default() -> Self {
        RuleBaseline::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taste_data::corpus::{Corpus, CorpusSpec};
    use taste_data::load::load_split;
    use taste_data::splits::Split;
    use taste_db::LatencyProfile;
    use taste_framework_test_helpers::*;

    mod taste_framework_test_helpers {
        pub use crate::report::evaluate_report;
    }

    #[test]
    fn builtin_rules_resolve_against_the_catalog() {
        let corpus = Corpus::generate(CorpusSpec::synth_wiki(5, 0));
        let registry = corpus.builtin.registry();
        let rules = RuleBaseline::builtin();
        assert!(rules.len() >= 15);
        for r in &rules.rules {
            assert!(
                registry.by_name(&r.type_name).is_some(),
                "rule for unknown type {}",
                r.type_name
            );
        }
    }

    #[test]
    fn detects_syntactic_types_from_values() {
        let corpus = Corpus::generate(CorpusSpec::synth_wiki(5, 0));
        let registry = corpus.builtin.registry();
        let rules = RuleBaseline::builtin();
        let ssn = registry.by_name("person.ssn").unwrap();
        let values: Vec<String> = vec!["123-45-6789".into(), "987-65-4321".into()];
        let detected = rules.detect(registry, &values);
        assert!(detected.contains(ssn));

        let city = registry.by_name("location.city").unwrap();
        let values: Vec<String> = vec!["shenzhen".into(), "london".into(), "tokyo".into()];
        assert!(rules.detect(registry, &values).contains(city));

        // Free-text values match nothing.
        let values: Vec<String> = vec!["some random sentence".into()];
        assert!(rules.detect(registry, &values).is_empty());
    }

    #[test]
    fn end_to_end_run_scans_everything_and_gets_partial_recall() {
        let corpus = Corpus::generate(CorpusSpec::synth_wiki(80, 4));
        let loaded = load_split(&corpus, Split::Test, LatencyProfile::zero(), None).unwrap();
        let rules = RuleBaseline::builtin();
        let report = rules
            .run(corpus.builtin.registry(), &loaded.db, &loaded.db.table_ids(), 20, 10)
            .unwrap();
        assert!((report.scanned_ratio() - 1.0).abs() < 1e-9, "rules must scan 100%");
        let scores = evaluate_report(&report, &loaded.truth, loaded.ntypes);
        // Rules cover only the syntactic third of the catalog, so on a
        // fully-labeled corpus most columns get an (incorrect) empty
        // prediction — each a background false positive. Overall scores
        // are therefore low (the §7 critique in numbers)...
        assert!(scores.recall > 0.05 && scores.recall < 0.7, "recall {}", scores.recall);
        assert!(scores.f1 < 0.7, "rules must not rival DL approaches: {}", scores.f1);
        // ...but the detections the rules *do* make are precise: score
        // only the columns where a rule fired.
        let mut acc = taste_core::EvalAccumulator::new(loaded.ntypes);
        for tr in &report.tables {
            for (pred, truth) in tr.admitted.iter().zip(&loaded.truth[tr.table.0 as usize]) {
                if !pred.is_empty() {
                    acc.observe(pred, truth);
                }
            }
        }
        let fired = acc.scores();
        assert!(fired.precision > 0.8, "fired-rule precision {}", fired.precision);
    }

    #[test]
    fn empty_ruleset_detects_nothing() {
        let corpus = Corpus::generate(CorpusSpec::synth_wiki(3, 0));
        let rules = RuleBaseline::new();
        assert!(rules.is_empty());
        let values: Vec<String> = vec!["123-45-6789".into()];
        assert!(rules.detect(corpus.builtin.registry(), &values).is_empty());
    }
}
