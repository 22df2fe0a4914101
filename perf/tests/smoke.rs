//! One test that drives every workload through both run modes on tiny
//! inputs, and checks the emitted metric names against the contract in
//! `BENCHMARK.json`.

use serde_json::Value;
use std::path::Path;
use taste_perf::run::{run, RunArgs};
use taste_perf::trace;
use taste_perf::workload::WORKLOADS;

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_owned(),
                m["unit"].as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

#[test]
fn smoke_runs_every_workload_timed_and_traced() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let benchmark: Value =
        serde_json::from_str(&std::fs::read_to_string(manifest).unwrap()).unwrap();
    let listed: Vec<&str> = benchmark["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(listed, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());

    for w in WORKLOADS {
        let mut digests = Vec::new();
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = RunArgs {
                workload: w.name.to_owned(),
                seed: 11,
                seconds: 1,
                trace,
                smoke: true,
            };
            let out = run(&args).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
            assert!(
                out.correct,
                "{} trace={trace}: {}",
                w.name, out.record["error"]
            );
            assert_eq!(out.line["failed"].as_u64(), Some(0));
            assert!(out.line["attempted"].as_u64().unwrap() >= 1);

            let emitted: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect();
            assert_eq!(emitted, names(&benchmark[list]), "{} {list}", w.name);
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {} is {}", w.name, m.name, m.value);
            }
            let line_keys: Vec<&String> = out.line.as_object().unwrap().keys().collect();
            assert_eq!(line_keys, ["correct", "attempted", "failed", "metrics"]);

            assert_eq!(out.record["frozen"]["tables"].as_u64(), Some(6));
            assert_eq!(out.record["frozen"]["rounds"].as_u64(), Some(2));
            assert_eq!(
                out.record["host"]["profile"].as_str(),
                Some(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                })
            );
            digests.push(out.record["verdict_digest"].as_str().unwrap().to_owned());

            if trace {
                // The replay's layer calls cover nearly all of its wall
                // time, and every span nests inside its parent.
                let coverage = out
                    .metrics
                    .iter()
                    .find(|m| m.name == "trace.span_coverage")
                    .unwrap()
                    .value;
                assert!(coverage > 0.8, "{}: span coverage {coverage}", w.name);
                assert!(out.spans.iter().any(|s| s.name == "model.predict_content"));
                for s in &out.spans {
                    if let Some(p) = s.parent {
                        let parent = &out.spans[p as usize];
                        assert!(
                            parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                            "{} escapes {}",
                            s.name,
                            parent.name
                        );
                    }
                }
                assert_eq!(
                    trace::to_json(&out.spans).as_array().unwrap().len(),
                    out.spans.len()
                );
            } else {
                assert!(out.spans.is_empty());
            }
        }
        assert_eq!(
            digests[0], digests[1],
            "{}: same seed, same verdicts",
            w.name
        );
    }

    // Outside smoke mode a debug build refuses to time anything.
    if cfg!(debug_assertions) {
        let args = RunArgs {
            workload: "wiki_local".into(),
            seed: 11,
            seconds: 1,
            trace: false,
            smoke: false,
        };
        assert!(run(&args).err().unwrap().contains("debug build"));
    }
    let args = RunArgs {
        workload: "no_such".into(),
        seed: 11,
        seconds: 1,
        trace: false,
        smoke: true,
    };
    assert!(run(&args).err().unwrap().contains("unknown workload"));
}
