//! Property-based checks of the checkpoint wire format: round-trips
//! preserve exact bytes, and *any* truncation or single-bit flip is
//! detected as [`TasteError::Corrupt`] — never a panic, never a
//! silently wrong restore.

use proptest::prelude::*;
use taste_core::TasteError;
use taste_nn::checkpoint::{TrainCheckpoint, TrainProgress};
use taste_nn::{Adam, AdamConfig, LrSchedule, Matrix, ParamStore};

/// A small but non-trivial training state: two parameters, real Adam
/// moments from `steps` genuine updates, and a moving cursor. The seed
/// perturbs every float so different cases exercise different bits.
fn toy_state(seed: u64, steps: usize) -> (ParamStore, Adam, TrainProgress) {
    let mut store = ParamStore::new(seed);
    store.normal("enc.w", 3, 5, 0.2);
    store.normal("head.b", 1, 4, 0.05);
    let mut opt = Adam::new(
        AdamConfig { lr: 0.02, ..Default::default() },
        LrSchedule::LinearWarmupDecay { warmup: 3, total: 64 },
    );
    for s in 0..steps.max(1) {
        for id in store.ids().collect::<Vec<_>>() {
            let (rows, cols) = store.value(id).shape();
            let fill = 0.1 + (seed % 7) as f32 * 0.03 + s as f32 * 0.01;
            store.grad_mut(id).axpy(1.0, &Matrix::full(rows, cols, fill));
        }
        opt.step(&mut store);
    }
    let mut progress = TrainProgress::fresh(9, seed);
    for s in 0..steps {
        progress.record_loss(0.9 / (s + 1) as f32);
        progress.advance(3);
    }
    (store, opt, progress)
}

fn encoded(seed: u64, steps: usize) -> Vec<u8> {
    let (store, opt, progress) = toy_state(seed, steps);
    TrainCheckpoint::capture(&store, &opt, &progress).encode()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn roundtrip_preserves_exact_bytes(seed in any::<u64>(), steps in 1..5usize) {
        let bytes = encoded(seed, steps);
        let decoded = TrainCheckpoint::decode(&bytes)
            .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
        // Bit-exactness of the whole state is equivalent to the
        // re-encoded byte stream matching: the blob carries raw f32
        // bits and the manifest is deterministic.
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn any_truncation_is_detected(seed in any::<u64>(), frac in 0.0f64..1.0) {
        let bytes = encoded(seed, 2);
        let cut = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        match TrainCheckpoint::decode(&bytes[..cut]) {
            Err(TasteError::Corrupt(_)) => {}
            other => prop_assert!(false, "truncation at {cut}/{} gave {other:?}", bytes.len()),
        }
    }

    #[test]
    fn any_single_bitflip_is_detected(seed in any::<u64>(), at in any::<u64>(), bit in 0..8usize) {
        let mut bytes = encoded(seed, 2);
        let pos = (at % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        match TrainCheckpoint::decode(&bytes) {
            Err(TasteError::Corrupt(_)) => {}
            other => prop_assert!(false, "bitflip at byte {pos} bit {bit} gave {other:?}"),
        }
    }
}
