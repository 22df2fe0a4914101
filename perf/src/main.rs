//! The `perf` command line: `run`, `all`, `check`.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use taste_perf::run::{self, out_dir, RunArgs, SCHEMA_VERSION};
use taste_perf::workload::WORKLOADS;
use taste_perf::{check, trace};

const USAGE: &str = "\
usage:
  perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      one run; prints every metric by name and, as the last line, the JSON summary
  perf all [--seed N] [--seconds S] [--runs K] [--out FILE]
      every workload: K timed runs on seeds N..N+K, then one traced run; writes a result set
  perf check <a.json> <b.json>
      compares two result sets against the bounds in BENCHMARK.json";

/// Seconds a run measures for unless told otherwise (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;
const DEFAULT_SEED: u64 = 11;

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if bare.contains(&key) {
                out.push((key.to_owned(), None));
            } else {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.push((key.to_owned(), Some(value.clone())));
            }
        }
        Ok(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: `{v}` is not a whole number")),
            None => Ok(default),
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{value:#}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The record file of a run: `<workload>.json` for timed runs,
/// `<workload>.layers.json` for traced ones.
fn record_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}{}.json",
        if trace { ".layers" } else { "" }
    ))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.only(&["workload", "seed", "seconds", "trace", "smoke"])?;
    let run_args = RunArgs {
        workload: flags
            .get("workload")
            .ok_or("run: --workload is required")?
            .to_owned(),
        seed: flags.number("seed", DEFAULT_SEED)?,
        seconds: flags.number("seconds", DEFAULT_SECONDS)?,
        trace: match flags.get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
        },
        smoke: flags.has("smoke"),
    };
    let outcome = run::run(&run_args)?;
    println!(
        "# {} seed={} seconds={} trace={} rounds={} digest={}",
        run_args.workload,
        run_args.seed,
        run_args.seconds,
        u8::from(run_args.trace),
        outcome.record["frozen"]["rounds"],
        outcome.record["verdict_digest"].as_str().unwrap_or("?"),
    );
    for m in &outcome.metrics {
        println!(
            "{:<44} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(error) = outcome.record["error"].as_str() {
        println!("# INCORRECT: {error}");
    }
    write_json(
        &record_path(&run_args.workload, run_args.trace),
        &outcome.record,
    )?;
    if run_args.trace {
        write_json(
            &out_dir().join(format!("{}.trace.json", run_args.workload)),
            &trace::to_json(&outcome.spans),
        )?;
    }
    println!("{}", outcome.line);
    Ok(outcome.correct)
}

fn cmd_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &[])?;
    flags.only(&["seed", "seconds", "runs", "out"])?;
    let seed = flags.number("seed", DEFAULT_SEED)?;
    let seconds = flags.number("seconds", DEFAULT_SECONDS)?;
    let runs = flags.number("runs", 1)?;
    let out = flags
        .get("out")
        .map_or_else(|| out_dir().join("all.json"), PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut records = Vec::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        // Each run is a process of its own, as the driver runs them, so
        // peak memory and warm-up state never carry over.
        let plan = (0..runs).map(|i| (seed + i, false)).chain([(seed, true)]);
        for (run_seed, traced) in plan {
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args([
                    "--seed",
                    &run_seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .status()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            if !status.success() {
                eprintln!(
                    "perf all: {} seed {run_seed} trace {traced}: {status}",
                    w.name
                );
                all_ok = false;
                continue;
            }
            records.push(read_json(&record_path(w.name, traced))?);
        }
    }
    write_json(&out, &json!({"schema": SCHEMA_VERSION, "runs": records}))?;
    println!("# result set: {}", out.display());
    Ok(all_ok)
}

fn cmd_check(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("check: expected exactly two result-set files".into());
    };
    let benchmark = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;
    let (text, bad) = check::compare(
        &benchmark,
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
    )?;
    print!("{text}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "all" => cmd_all(rest),
        Some((cmd, rest)) if cmd == "check" => cmd_check(rest),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_length_is_the_contracts() {
        let benchmark =
            read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")).unwrap();
        assert_eq!(benchmark["run_seconds"].as_u64(), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn flags_parse_pairs_and_bare_switches() {
        let args: Vec<String> = ["--workload", "w", "--smoke", "--seed", "3", "--seed", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags::parse(&args, &["smoke"]).unwrap();
        assert_eq!(flags.get("workload"), Some("w"));
        assert!(flags.has("smoke") && !flags.has("trace"));
        assert_eq!(flags.number("seed", 1), Ok(4), "the last value wins");
        assert_eq!(flags.number("seconds", 9), Ok(9));
        assert!(flags.only(&["workload", "smoke"]).is_err());
        assert!(Flags::parse(&["--seed".to_string()], &[]).is_err());
        assert!(Flags::parse(&["seed".to_string()], &[]).is_err());
        let bad = Flags::parse(&["--seed".to_string(), "x".to_string()], &[]).unwrap();
        assert!(bad.number("seed", 1).is_err());
    }
}
