//! Resume training: crash-safe, anomaly-guarded fine-tuning.
//!
//! Training runs die just like serving runs do — preemption, OOM, node
//! reschedule — and a multi-hour fine-tune that restarts from scratch
//! is a real operational cost. This example fine-tunes a tiny ADTD
//! with periodic full-state checkpoints, kills the run deterministically
//! halfway through, resumes it from disk into a freshly constructed
//! model, and verifies the resumed run is **bit-identical** to an
//! uninterrupted one — same per-step losses, same final parameters.
//! It then reruns training with an injected NaN gradient to show the
//! anomaly guard containing the fault instead of poisoning the model.
//!
//! ```text
//! cargo run --release --example resume_training
//! ```

use taste_model::features::NONMETA_DIM;
use taste_model::prepare::{ModelInput, TableChunk};
use taste_model::trainer::train_adtd;
use taste_model::{Adtd, FaultInjection, ModelConfig, TrainConfig, TrainResilience};
use taste_nn::checkpoint::CheckpointPolicy;
use taste_nn::ParamStore;
use taste_tokenizer::{ColumnContent, Tokenizer, VocabBuilder};

const SEED: u64 = 29;

fn tokenizer() -> Tokenizer {
    let mut b = VocabBuilder::new();
    for w in ["orders", "city", "phone", "alpha", "beta", "text"] {
        b.add_word(w);
        b.add_word(w);
    }
    Tokenizer::new(b.build(100, 1))
}

/// Two linearly separable pseudo-types: "city" columns holding "alpha"
/// cells are type 1, "phone" columns holding "beta" cells are type 2.
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

fn model() -> Adtd {
    Adtd::new(ModelConfig::tiny(), tokenizer(), 3, SEED)
}

fn param_fingerprint(store: &ParamStore) -> u64 {
    let mut names: Vec<_> = store.ids().map(|id| (store.name(id).to_owned(), id)).collect();
    names.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, id) in names {
        for v in store.value(id).as_slice() {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn main() {
    let inputs = toy_inputs(16);
    let cfg = TrainConfig { epochs: 8, batch_size: 4, lr: 2.5e-3, ..Default::default() };
    let dir = std::env::temp_dir().join("taste-example-train-ckpt");
    let _ = std::fs::remove_dir_all(&dir);

    // Reference: the same run, uninterrupted and without checkpoints.
    let mut reference = model();
    let full = train_adtd(&mut reference, &inputs, &cfg, &TrainResilience::default())
        .expect("reference run");
    println!(
        "uninterrupted: {} steps, epoch losses {:?}",
        full.health.steps_applied, full.epoch_losses
    );

    // Checkpoint every 4 steps, and kill the run after step 17.
    let res = TrainResilience {
        dir: Some(dir.clone()),
        policy: CheckpointPolicy { every_n_steps: 4, keep_last_k: 2 },
        halt_after_steps: Some(17),
        ..TrainResilience::default()
    };
    let mut victim = model();
    let halted = train_adtd(&mut victim, &inputs, &cfg, &res).expect("halted run");
    assert!(halted.halted);
    println!(
        "killed at step 17 ({} checkpoints on disk under {})",
        halted.health.checkpoints_written,
        dir.display()
    );

    // "Process restart": a freshly constructed model resumes from the
    // newest checkpoint and finishes the schedule.
    let res = TrainResilience { halt_after_steps: None, ..res };
    let mut revived = model();
    let resumed = train_adtd(&mut revived, &inputs, &cfg, &res).expect("resumed run");
    println!(
        "resumed from step {:?}, finished with {} total applied steps",
        resumed.health.resumed_from_step, resumed.health.steps_applied
    );

    let same_losses = full
        .step_losses
        .iter()
        .map(|v| v.to_bits())
        .eq(resumed.step_losses.iter().map(|v| v.to_bits()));
    let same_params = param_fingerprint(&reference.store) == param_fingerprint(&revived.store);
    assert!(same_losses && same_params, "resume must be bit-identical");
    println!("kill + resume reproduced the uninterrupted run bit for bit");

    // Fault containment: poison one step's gradients with NaN; the
    // guard skips that step and the run still completes cleanly.
    let res = TrainResilience {
        inject: FaultInjection { nan_grad_steps: vec![9], ..FaultInjection::default() },
        ..TrainResilience::default()
    };
    let mut guarded = model();
    let report = train_adtd(&mut guarded, &inputs, &cfg, &res).expect("guarded run");
    println!(
        "injected NaN gradient: {} applied, {} skipped ({} non-finite-grad), rollbacks {}",
        report.health.steps_applied,
        report.health.steps_skipped,
        report.health.non_finite_grad,
        report.health.rollbacks
    );
    assert_eq!(report.health.non_finite_grad, 1);
    assert!(guarded.store.ids().all(|id| guarded.store.value(id).all_finite()));
    println!("model parameters stayed finite; the fault never reached the weights");

    let _ = std::fs::remove_dir_all(&dir);
}
