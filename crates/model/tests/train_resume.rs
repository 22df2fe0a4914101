//! Crash-safe training integration tests: kill-and-resume bit-identity
//! for all four entry points of the one training loop, numerical-fault
//! containment, corrupt-checkpoint quarantine, and rejection of stale
//! checkpoint directories and degenerate configs.
//!
//! The `#[ignore]`d test is the release-mode scenario run by CI via
//! `cargo test --release -- --ignored` (see `make train-resume`).

use std::fs;
use std::path::PathBuf;
use taste_model::features::NONMETA_DIM;
use taste_model::prepare::TableChunk;
use taste_core::TasteError;
use taste_model::extend::{extend_types, train_heads_only};
use taste_model::pretrain::{pretrain_encoder, sequences_from_inputs, PretrainConfig};
use taste_model::trainer::{train_adtd, train_single_tower};
use taste_model::{
    Adtd, BaselineKind, FaultInjection, ModelConfig, ModelInput, SingleTower, TrainConfig, TrainReport,
    TrainResilience,
};
use taste_nn::checkpoint::{CheckpointPolicy, TrainCheckpoint, FILE_EXT};
use taste_nn::guard::AnomalyPolicy;
use taste_nn::ParamStore;
use taste_tokenizer::{ColumnContent, Tokenizer, VocabBuilder};

fn temp_path(tag: &str) -> PathBuf {
    let tid = format!("{:?}", std::thread::current().id());
    std::env::temp_dir().join(format!(
        "taste-train-{tag}-{}-{}",
        std::process::id(),
        tid.replace(|c: char| !c.is_ascii_alphanumeric(), "")
    ))
}

fn tokenizer() -> Tokenizer {
    let mut b = VocabBuilder::new();
    for w in ["orders", "city", "phone", "alpha", "beta", "text", "int"] {
        b.add_word(w);
        b.add_word(w);
    }
    Tokenizer::new(b.build(100, 1))
}

/// Two linearly separable pseudo-types, same as the trainer unit tests.
fn toy_inputs(n: usize) -> Vec<ModelInput> {
    (0..n)
        .map(|i| {
            let (name, word, target) = if i % 2 == 0 {
                ("city", "alpha", vec![0.0, 1.0, 0.0])
            } else {
                ("phone", "beta", vec![0.0, 0.0, 1.0])
            };
            ModelInput {
                chunk: TableChunk {
                    table_text: "orders".into(),
                    col_texts: vec![format!("{name} text")],
                    nonmeta: vec![vec![0.0; NONMETA_DIM]],
                    ordinals: vec![0],
                },
                contents: vec![ColumnContent { cells: vec![word.into(), word.into()] }],
                targets: vec![target],
                labels: vec![Default::default()],
            }
        })
        .collect()
}

fn quick_cfg(epochs: usize) -> TrainConfig {
    TrainConfig { epochs, batch_size: 4, lr: 2.5e-3, ..Default::default() }
}

fn model(seed: u64) -> Adtd {
    Adtd::new(ModelConfig::tiny(), tokenizer(), 3, seed)
}

/// Every parameter's name and exact bit pattern, order-independent.
fn param_bits(store: &ParamStore) -> Vec<(String, Vec<u32>)> {
    let mut out: Vec<(String, Vec<u32>)> = store
        .ids()
        .map(|id| {
            let bits = store.value(id).as_slice().iter().map(|v| v.to_bits()).collect();
            (store.name(id).to_owned(), bits)
        })
        .collect();
    out.sort();
    out
}

fn loss_bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|v| v.to_bits()).collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = temp_path(tag);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn baseline(seed: u64) -> SingleTower {
    SingleTower::new(BaselineKind::Turl, &ModelConfig::tiny(), tokenizer(), 3, seed)
}

/// A briefly trained model widened by one type, and replay inputs padded
/// to the new width — what head-only fine-tuning starts from. Rebuilt
/// from scratch on every call, like a process restarting.
fn widened_model_and_inputs() -> (Adtd, Vec<ModelInput>) {
    let mut m = model(42);
    train_adtd(&mut m, &toy_inputs(8), &quick_cfg(2), &TrainResilience::default()).unwrap();
    extend_types(&mut m, 4).unwrap();
    let mut inputs = toy_inputs(8);
    for t in inputs.iter_mut().flat_map(|i| &mut i.targets) {
        t.resize(4, 0.0);
    }
    (m, inputs)
}

fn mlm_fixture() -> (Tokenizer, ModelConfig, Vec<Vec<u32>>, PretrainConfig) {
    let tok = tokenizer();
    let cfg = ModelConfig::tiny();
    let seqs = sequences_from_inputs(&tok, cfg.budget, &toy_inputs(12));
    // A high mask rate keeps every batch non-empty on these short toy
    // sequences, so each step really exercises the optimizer path.
    let pcfg = PretrainConfig { epochs: 4, lr: 3e-3, mask_prob: 0.4, ..PretrainConfig::default() };
    (tok, cfg, seqs, pcfg)
}

/// The newest live checkpoint file in `dir`.
fn newest_checkpoint(dir: &PathBuf) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == FILE_EXT))
        .collect();
    files.sort();
    files.last().expect("checkpoints exist").clone()
}

/// The one kill-and-resume body. `train` builds a *fresh* model on every
/// call — as after a real process death — trains it under the given
/// resilience settings over 12 steps, and hands back its parameters.
/// Asserts that a run killed at `kill_at` and resumed from disk lands on
/// the bits of an uninterrupted run with no checkpointing at all.
fn assert_kill_and_resume_is_bit_identical(
    tag: &str,
    kill_at: u64,
    train: impl Fn(&TrainResilience) -> (ParamStore, TrainReport),
) {
    let (store_a, ra) = train(&TrainResilience::default());
    assert!(!ra.halted);
    assert!(ra.health.is_clean());
    assert_eq!(ra.health.steps_applied, 12);
    assert_eq!(ra.step_losses.len(), 12);

    let dir = fresh_dir(tag);
    let res = TrainResilience {
        dir: Some(dir.clone()),
        policy: CheckpointPolicy { every_n_steps: 2, keep_last_k: 2 },
        halt_after_steps: Some(kill_at),
        ..TrainResilience::default()
    };
    let (_, rb) = train(&res);
    assert!(rb.halted, "run should stop at the simulated kill");
    assert_eq!(rb.health.checkpoints_written, kill_at / 2);

    let (store_b, rb2) = train(&TrainResilience { halt_after_steps: None, ..res });
    assert!(!rb2.halted);
    assert_eq!(rb2.health.resumed_from_step, Some(kill_at / 2 * 2), "newest kept checkpoint");

    assert_eq!(loss_bits(&ra.step_losses), loss_bits(&rb2.step_losses));
    assert_eq!(param_bits(&store_a), param_bits(&store_b));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_is_bit_identical() {
    let inputs = toy_inputs(8);
    let cfg = quick_cfg(6); // 2 steps/epoch => 12 steps
    assert_kill_and_resume_is_bit_identical("resume", 7, |res| {
        let mut m = model(42);
        let report = train_adtd(&mut m, &inputs, &cfg, res).unwrap();
        (m.store, report)
    });
}

#[test]
fn single_tower_kill_and_resume_is_bit_identical() {
    let inputs = toy_inputs(8);
    let cfg = quick_cfg(6);
    assert_kill_and_resume_is_bit_identical("resume-baseline", 7, |res| {
        let mut m = baseline(42);
        let report = train_single_tower(&mut m, &inputs, &cfg, res).unwrap();
        (m.store, report)
    });
}

#[test]
fn head_only_kill_and_resume_is_bit_identical() {
    assert_kill_and_resume_is_bit_identical("resume-heads", 7, |res| {
        let (mut m, inputs) = widened_model_and_inputs();
        let report = train_heads_only(&mut m, &inputs, 6, 4e-3, 4.0, 1, res).unwrap();
        (m.store, report)
    });
}

#[test]
fn pretraining_kill_and_resume_is_bit_identical() {
    let (tok, cfg, seqs, pcfg) = mlm_fixture();
    assert_kill_and_resume_is_bit_identical("resume-pretrain", 5, |res| {
        pretrain_encoder(&cfg, &tok, &seqs, &pcfg, res).unwrap()
    });
}

#[test]
fn nan_injection_is_contained() {
    let inputs = toy_inputs(8);
    let cfg = quick_cfg(6);
    for (grad_steps, loss_steps) in [(vec![3], vec![]), (vec![], vec![3])] {
        let by_grad = !grad_steps.is_empty();
        let res = TrainResilience {
            inject: FaultInjection {
                nan_grad_steps: grad_steps,
                nan_loss_steps: loss_steps,
                ..FaultInjection::default()
            },
            ..TrainResilience::default()
        };
        let mut m = model(7);
        let r = train_adtd(&mut m, &inputs, &cfg, &res).unwrap();
        assert!(!r.halted);
        assert_eq!(r.health.non_finite_grad, u64::from(by_grad), "the poisoned step was seen");
        assert_eq!(r.health.non_finite_loss, u64::from(!by_grad));
        assert_eq!(r.health.steps_skipped, 1, "and skipped, not applied");
        assert_eq!(r.health.rollbacks, 0, "one isolated fault never escalates");
        assert_eq!(r.health.steps_applied, 11);
        assert!(!r.health.is_clean());
        for (name, bits) in param_bits(&m.store) {
            for b in bits {
                assert!(f32::from_bits(b).is_finite(), "non-finite value leaked into {name}");
            }
        }
    }
}

fn spiking(dir: Option<PathBuf>, max_rollbacks: u64) -> TrainResilience {
    TrainResilience {
        dir,
        policy: CheckpointPolicy { every_n_steps: 2, keep_last_k: 2 },
        anomaly: AnomalyPolicy { warmup_steps: 2, max_consecutive: 2, max_rollbacks, ..AnomalyPolicy::default() },
        // Two consecutive spiked steps: the first is skipped, the
        // second escalates to a rollback.
        inject: FaultInjection { spike_loss_steps: vec![6, 7], ..FaultInjection::default() },
        ..TrainResilience::default()
    }
}

#[test]
fn persistent_loss_spikes_roll_back_at_reduced_lr() {
    let inputs = toy_inputs(8);
    let cfg = quick_cfg(6);
    let dir = fresh_dir("spike");
    let mut m = model(7);
    let r = train_adtd(&mut m, &inputs, &cfg, &spiking(Some(dir.clone()), 4)).unwrap();
    assert!(!r.halted);
    assert_eq!(r.health.loss_spikes, 2);
    assert_eq!(r.health.rollbacks, 1);
    assert!(
        r.health.final_lr < cfg.lr,
        "rollback must back off the LR: {} vs {}",
        r.health.final_lr,
        cfg.lr
    );
    // The replayed steps complete cleanly (each injected fault fires
    // once), so the run still applies its full schedule.
    assert_eq!(r.health.steps_applied, 12);
    let _ = fs::remove_dir_all(&dir);
}

/// The loop's last resort, which the baselines and head-only training
/// now share: once the rollback budget is spent the run fails with
/// `TasteError::Training` rather than training on.
#[test]
fn exhausted_rollback_budget_aborts_the_run() {
    let mut m = baseline(7);
    let err = train_single_tower(&mut m, &toy_inputs(8), &quick_cfg(6), &spiking(None, 0)).unwrap_err();
    assert!(matches!(err, TasteError::Training(_)), "{err}");
}

#[test]
fn corrupt_checkpoint_is_quarantined_and_resume_stays_identical() {
    let inputs = toy_inputs(8);
    let cfg = quick_cfg(6);

    let mut a = model(42);
    let ra = train_adtd(&mut a, &inputs, &cfg, &TrainResilience::default()).unwrap();

    let dir = fresh_dir("quarantine");
    let res = TrainResilience {
        dir: Some(dir.clone()),
        policy: CheckpointPolicy { every_n_steps: 2, keep_last_k: 2 },
        halt_after_steps: Some(7),
        ..TrainResilience::default()
    };
    let mut b = model(42);
    let rb = train_adtd(&mut b, &inputs, &cfg, &res).unwrap();
    assert!(rb.halted);

    // Flip one bit in the newest checkpoint file before resuming.
    let newest = newest_checkpoint(&dir);
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    fs::write(&newest, &bytes).unwrap();

    let res2 = TrainResilience { halt_after_steps: None, ..res };
    let mut b2 = model(42);
    let rb2 = train_adtd(&mut b2, &inputs, &cfg, &res2).unwrap();
    assert_eq!(rb2.health.checkpoints_quarantined, 1);
    assert_eq!(rb2.health.resumed_from_step, Some(4), "fell back past the damaged step-6 file");
    assert!(!newest.exists(), "damaged file moved out of the live set");

    // Replaying from the older checkpoint still lands on the same bits.
    assert_eq!(loss_bits(&ra.step_losses), loss_bits(&rb2.step_losses));
    assert_eq!(param_bits(&a.store), param_bits(&b2.store));
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint is outside input even when its CRC holds: a directory
/// left by a run over another dataset or batch size must be refused
/// before the first step, with the model untouched — not indexed with.
#[test]
fn stale_checkpoint_directory_is_rejected_not_indexed() {
    let dir = fresh_dir("stale");
    // Leaves checkpoints of a run over `n` inputs killed at step 3.
    let leave_checkpoint = |n: usize, batch_size: usize| {
        let _ = fs::remove_dir_all(&dir);
        let res = TrainResilience {
            dir: Some(dir.clone()),
            policy: CheckpointPolicy { every_n_steps: 1, keep_last_k: 2 },
            halt_after_steps: Some(3),
            ..TrainResilience::default()
        };
        let cfg = TrainConfig { batch_size, ..quick_cfg(6) };
        assert!(train_adtd(&mut model(42), &toy_inputs(n), &cfg, &res).unwrap().halted);
    };
    let resume_over = |n: usize| {
        let mut m = model(42);
        let err = train_adtd(&mut m, &toy_inputs(n), &quick_cfg(6), &TrainResilience::with_dir(&dir)).unwrap_err();
        assert_eq!(param_bits(&m.store), param_bits(&model(42).store), "a refused checkpoint restores nothing");
        match err {
            TasteError::Corrupt(msg) => msg,
            other => panic!("expected Corrupt, got {other}"),
        }
    };

    leave_checkpoint(16, 4);
    let msg = resume_over(6); // shorter: `inputs[i]` out of bounds at the parent
    assert!(msg.contains("orders 16 items") && msg.contains("the 6 being"), "{msg}");

    leave_checkpoint(8, 4);
    let msg = resume_over(16); // longer: `order[lo..hi]` out of range at the parent
    assert!(msg.contains("orders 8 items") && msg.contains("the 16 being"), "{msg}");

    // Right length, but an index twice: not a permutation.
    let newest = newest_checkpoint(&dir);
    let mut ck = TrainCheckpoint::read(&newest).unwrap();
    ck.progress.order[1] = ck.progress.order[0];
    ck.write_atomic(&newest).unwrap();
    assert!(resume_over(8).contains("orders 8 items, not a permutation of the 8 being"));

    // Same items, smaller batches: the cursor points past the epoch.
    leave_checkpoint(8, 2);
    assert!(resume_over(8).contains("batch 3"));
    let _ = fs::remove_dir_all(&dir);
}

/// `TrainConfig` and `PretrainConfig` are `Deserialize`, so a zero batch
/// size can arrive from a file: it is an error, not a division by zero.
/// (Head-only training fixes its batch size; its degenerate input is the
/// empty set, which every entry point refuses the same way.)
#[test]
fn degenerate_configs_are_errors_on_every_entry_point() {
    let res = TrainResilience::default();
    let inputs = toy_inputs(8);
    let invalid = |r: Result<TrainReport, TasteError>| matches!(r, Err(TasteError::InvalidArgument(_)));
    let (tok, mcfg, seqs, pcfg) = mlm_fixture();

    let zero = TrainConfig { batch_size: 0, ..quick_cfg(2) };
    assert!(invalid(train_adtd(&mut model(1), &inputs, &zero, &res)));
    assert!(invalid(train_single_tower(&mut baseline(1), &inputs, &zero, &res)));
    let pzero = PretrainConfig { batch_size: 0, ..pcfg };
    assert!(invalid(pretrain_encoder(&mcfg, &tok, &seqs, &pzero, &res).map(|(_, r)| r)));

    assert!(invalid(train_adtd(&mut model(1), &[], &quick_cfg(2), &res)));
    assert!(invalid(train_single_tower(&mut baseline(1), &[], &quick_cfg(2), &res)));
    assert!(invalid(pretrain_encoder(&mcfg, &tok, &[], &pcfg, &res).map(|(_, r)| r)));
    assert!(invalid(train_heads_only(&mut model(1), &[], 2, 4e-3, 4.0, 1, &res)));
}

/// Release-mode scenario: a longer run killed twice at different
/// points, resumed each time from disk, must match the uninterrupted
/// run bit for bit and still learn the task.
#[test]
#[ignore = "release-mode crash/resume scenario; run via `make train-resume` or CI"]
fn release_double_kill_resume_scenario() {
    let inputs = toy_inputs(32);
    let cfg = quick_cfg(10); // 8 steps/epoch => 80 steps

    let mut a = model(17);
    let ra = train_adtd(&mut a, &inputs, &cfg, &TrainResilience::default()).unwrap();
    assert!(ra.improved(), "losses: {:?}", ra.epoch_losses);

    let dir = fresh_dir("release");
    let base = TrainResilience {
        dir: Some(dir.clone()),
        policy: CheckpointPolicy { every_n_steps: 5, keep_last_k: 3 },
        ..TrainResilience::default()
    };
    for halt in [Some(30), Some(55), None] {
        let res = TrainResilience { halt_after_steps: halt, ..base.clone() };
        let mut b = model(17);
        let rb = train_adtd(&mut b, &inputs, &cfg, &res).unwrap();
        assert_eq!(rb.halted, halt.is_some());
        if halt.is_none() {
            assert_eq!(loss_bits(&ra.step_losses), loss_bits(&rb.step_losses));
            assert_eq!(param_bits(&a.store), param_bits(&b.store));
            assert_eq!(rb.health.steps_applied, 80);
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
