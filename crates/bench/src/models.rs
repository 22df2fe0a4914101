//! Model training with a disk checkpoint cache.
//!
//! Training on one CPU core is the expensive part of the reproduction;
//! every trained model is cached under `results/cache/` keyed by dataset,
//! model kind, and scale, so re-running a single experiment does not
//! retrain the world. Delete the cache directory to force retraining.
//!
//! Every model here trains through `taste-model`'s one loop without a
//! checkpoint directory (`TrainResilience::default()`): a NaN or spiking
//! step is skipped, not fatal, and `is_clean()` on the report's health
//! says whether any was. The loop draws shuffling, column order, masking
//! and dropout from `SplitMix64Rng`, so trained weights no longer depend
//! on which `rand` is linked — and a cache written before that change
//! (PR 20) holds models of the old stream.

use crate::datasets::{training_inputs_from_split, Bundle};
use crate::scale::Scale;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use taste_core::Result;
use taste_data::splits::Split;
use taste_model::pretrain::{pretrain_encoder, sequences_from_inputs, PretrainConfig};
use taste_model::trainer::{train_adtd, train_single_tower};
use taste_model::{Adtd, BaselineKind, ModelConfig, SingleTower, TrainConfig, TrainResilience};

/// The four models every comparison uses.
pub struct TrainedModels {
    /// Default TASTE (no histogram features).
    pub taste: Arc<Adtd>,
    /// TASTE trained with histogram features.
    pub taste_hist: Arc<Adtd>,
    /// TURL analog.
    pub turl: Arc<SingleTower>,
    /// Doduo analog.
    pub doduo: Arc<SingleTower>,
}

fn cache_dir() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.canonicalize().unwrap_or(root).join("results/cache");
    std::fs::create_dir_all(&dir).ok();
    dir
}

fn cache_path(name: &str) -> PathBuf {
    cache_dir().join(format!("{name}.json"))
}

fn load_cached(name: &str) -> Option<String> {
    std::fs::read_to_string(cache_path(name)).ok()
}

fn store_cached(name: &str, json: &str) {
    if let Err(e) = std::fs::write(cache_path(name), json) {
        eprintln!("warning: could not cache {name}: {e}");
    }
}

/// The reduced-scale model configuration used by all experiments.
pub fn experiment_config() -> ModelConfig {
    ModelConfig::small()
}

/// The fine-tuning recipe at a given scale.
pub fn train_config(scale: &Scale) -> TrainConfig {
    TrainConfig {
        epochs: scale.epochs,
        batch_size: 8,
        lr: 2.5e-3,
        pos_weight: 8.0,
        freeze_awl: true,
        ..Default::default()
    }
}

/// Pre-trains (or loads) the MLM-initialized encoder store for a config.
fn pretrained_store(
    tag: &str,
    cfg: &ModelConfig,
    bundle: &Bundle,
    scale: &Scale,
    inputs: &[taste_model::ModelInput],
) -> Result<taste_nn::ParamStore> {
    let key = format!("pretrain-{tag}-{}-{}", bundle.kind.label(), scale.fingerprint());
    if let Some(json) = load_cached(&key) {
        if let Ok(store) = taste_nn::ParamStore::from_json(&json) {
            return Ok(store);
        }
    }
    let mut seqs = sequences_from_inputs(&bundle.tokenizer, cfg.budget, inputs);
    seqs.truncate(scale.pretrain_sequences);
    let pcfg = PretrainConfig { epochs: scale.pretrain_epochs, seed: scale.seed, ..Default::default() };
    let t0 = Instant::now();
    let (store, _) = pretrain_encoder(cfg, &bundle.tokenizer, &seqs, &pcfg, &TrainResilience::default())?;
    eprintln!("  pretrained {tag} encoder for {} in {:.1?}", bundle.kind.label(), t0.elapsed());
    store_cached(&key, &store.to_json());
    Ok(store)
}

/// Trains (or loads) one ADTD variant.
pub fn taste_model(bundle: &Bundle, scale: &Scale, with_histograms: bool, tag: &str) -> Result<Arc<Adtd>> {
    let key = format!("taste-{tag}-{}-{}", bundle.kind.label(), scale.fingerprint());
    if let Some(json) = load_cached(&key) {
        if let Ok(model) = Adtd::from_json(&json) {
            return Ok(Arc::new(model));
        }
    }
    let cfg = if with_histograms {
        experiment_config().with_histograms()
    } else {
        experiment_config()
    };
    let inputs = training_inputs_from_split(&bundle.corpus, Split::Train, with_histograms, bundle.kind.default_l(), 50, 10)?;
    let pre = pretrained_store("base", &experiment_config(), bundle, scale, &inputs)?;
    let mut model = Adtd::new(cfg, bundle.tokenizer.clone(), bundle.corpus.ntypes(), scale.seed);
    let copied = model.store.load_matching(&pre);
    eprintln!(
        "  training TASTE{} on {} ({} inputs, {} pretrained tensors)...",
        if with_histograms { " w/ histogram" } else { "" },
        bundle.kind.label(),
        inputs.len(),
        copied
    );
    let t0 = Instant::now();
    let report = train_adtd(&mut model, &inputs, &train_config(scale), &TrainResilience::default())?;
    eprintln!("    done in {:.1?}, losses {:?}", t0.elapsed(), report.epoch_losses);
    store_cached(&key, &model.to_json());
    Ok(Arc::new(model))
}

/// Trains (or loads) one baseline.
pub fn baseline_model(bundle: &Bundle, scale: &Scale, kind: BaselineKind) -> Result<Arc<SingleTower>> {
    let key = format!("{}-{}-{}", kind.label().to_lowercase(), bundle.kind.label(), scale.fingerprint());
    if let Some(json) = load_cached(&key) {
        if let Ok(model) = SingleTower::from_json(&json) {
            return Ok(Arc::new(model));
        }
    }
    let inputs = training_inputs_from_split(&bundle.corpus, Split::Train, false, bundle.kind.default_l(), 50, 10)?;
    let cfg = kind.derive_config(&experiment_config());
    let tag = match kind {
        BaselineKind::Turl => "base",
        BaselineKind::Doduo => "doduo",
    };
    let pre = pretrained_store(tag, &cfg, bundle, scale, &inputs)?;
    let mut model = SingleTower::new(kind, &experiment_config(), bundle.tokenizer.clone(), bundle.corpus.ntypes(), scale.seed);
    model.store.load_matching(&pre);
    eprintln!("  training {} on {} ({} inputs)...", kind.label(), bundle.kind.label(), inputs.len());
    let t0 = Instant::now();
    let report = train_single_tower(&mut model, &inputs, &train_config(scale), &TrainResilience::default())?;
    eprintln!("    done in {:.1?}, losses {:?}", t0.elapsed(), report.epoch_losses);
    store_cached(&key, &model.to_json());
    Ok(Arc::new(model))
}

/// Trains or loads the full model set for a bundle.
pub fn train_all(bundle: &Bundle, scale: &Scale) -> Result<TrainedModels> {
    Ok(TrainedModels {
        taste: taste_model(bundle, scale, false, "plain")?,
        taste_hist: taste_model(bundle, scale, true, "hist")?,
        turl: baseline_model(bundle, scale, BaselineKind::Turl)?,
        doduo: baseline_model(bundle, scale, BaselineKind::Doduo)?,
    })
}

/// Trains (or loads) a TASTE model fine-tuned on a retained-type-set
/// corpus (Fig. 6). The tuned corpus shares the bundle's tokenizer.
pub fn taste_model_for_corpus(
    corpus: &taste_data::Corpus,
    tokenizer: &taste_tokenizer::Tokenizer,
    bundle_label: &str,
    scale: &Scale,
    tag: &str,
) -> Result<Arc<Adtd>> {
    let key = format!("taste-{tag}-{bundle_label}-{}", scale.fingerprint());
    if let Some(json) = load_cached(&key) {
        if let Ok(model) = Adtd::from_json(&json) {
            return Ok(Arc::new(model));
        }
    }
    let inputs = training_inputs_from_split(corpus, Split::Train, false, 20, 50, 10)?;
    let mut model = Adtd::new(experiment_config(), tokenizer.clone(), corpus.ntypes(), scale.seed);
    eprintln!("  training TASTE[{tag}] ({} inputs)...", inputs.len());
    let t0 = Instant::now();
    let report = train_adtd(&mut model, &inputs, &train_config(scale), &TrainResilience::default())?;
    eprintln!("    done in {:.1?}, losses {:?}", t0.elapsed(), report.epoch_losses);
    store_cached(&key, &model.to_json());
    Ok(Arc::new(model))
}
