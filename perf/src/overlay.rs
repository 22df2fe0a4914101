//! Engine configurations as JSON overlays.
//!
//! A workload states only the knobs it sets; everything else comes from
//! `TasteConfig::default()`. The overlay is merged onto the serialized
//! default and deserialized back, so the benchmark names no field it
//! does not set: a later change that removes a knob the overlay mentions
//! still compiles here, and the now-unknown key is ignored on input.

use serde_json::Value;
use taste_framework::TasteConfig;

/// Recursively overlays `over` onto `base`: objects merge key by key,
/// anything else replaces.
pub fn merge(base: &mut Value, over: &Value) {
    match (base.as_object_mut(), over.as_object()) {
        (Some(dst), Some(src)) => {
            for (key, value) in src.iter() {
                match dst.get_mut(key) {
                    Some(slot) => merge(slot, value),
                    None => {
                        dst.insert(key.clone(), value.clone());
                    }
                }
            }
        }
        _ => *base = over.clone(),
    }
}

/// `TasteConfig::default()` with each overlay applied in order.
pub fn engine_config(overlays: &[&Value]) -> Result<TasteConfig, String> {
    let mut value = serde_json::to_value(TasteConfig::default()).map_err(|e| e.to_string())?;
    for over in overlays {
        merge(&mut value, over);
    }
    let config: TasteConfig =
        serde_json::from_value(value).map_err(|e| format!("engine config overlay: {e}"))?;
    config
        .validate()
        .map_err(|e| format!("engine config overlay: {e}"))?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use std::time::Duration;

    #[test]
    fn overlay_sets_only_what_it_names() {
        let cfg = engine_config(&[&json!({
            "pool_size": 1,
            "execution": {"kernel_threads": 1},
            "batching": {"enabled": true, "flush_deadline": {"secs": 0, "nanos": 2000000}},
        })])
        .unwrap();
        let default = TasteConfig::default();
        assert_eq!(cfg.pool_size, 1);
        assert!(cfg.batching.enabled);
        assert_eq!(cfg.batching.flush_deadline, Duration::from_millis(2));
        assert_eq!(
            cfg.batching.max_batch_columns,
            default.batching.max_batch_columns
        );
        assert_eq!((cfg.m, cfg.n, cfg.l), (default.m, default.n, default.l));
        assert_eq!(cfg.hardening.watchdog_poll, default.hardening.watchdog_poll);
    }

    #[test]
    fn unknown_keys_are_ignored_and_later_overlays_win() {
        let cfg = engine_config(&[
            &json!({"alpha": 0.25, "no_such_knob": 7, "batching": {"retired_switch": true}}),
            &json!({"alpha": 0.5, "beta": 1.0}),
        ])
        .unwrap();
        assert_eq!((cfg.alpha, cfg.beta), (0.5, 1.0));
        assert!(!cfg.batching.enabled);
    }

    #[test]
    fn durations_round_trip_through_the_value_tree() {
        let mut cfg = TasteConfig::default();
        cfg.batching.flush_deadline = Duration::new(3, 141_592_653);
        cfg.hardening.stage_deadline = Some(Duration::from_micros(1500));
        let back: TasteConfig = serde_json::from_value(serde_json::to_value(cfg).unwrap()).unwrap();
        assert_eq!(back.batching.flush_deadline, cfg.batching.flush_deadline);
        assert_eq!(back.hardening.stage_deadline, cfg.hardening.stage_deadline);
        assert_eq!(back.hardening.batch_deadline, None);
    }

    #[test]
    fn invalid_overlays_are_rejected() {
        assert!(engine_config(&[&json!({"pool_size": 0})]).is_err());
        assert!(engine_config(&[&json!({"pool_size": "two"})]).is_err());
    }
}
