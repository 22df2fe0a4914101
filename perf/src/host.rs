//! The host fingerprint every result carries, and the process's peak
//! resident set.

use serde_json::{json, Value};
use std::path::Path;

/// Whether this binary was built with optimizations. Timed rounds from
/// a debug build say nothing about the program, so only `--smoke` runs
/// them.
pub const RELEASE_BUILD: bool = !cfg!(debug_assertions);

fn status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    status_field("VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Resident set size of this process right now, in MiB (`VmRSS`).
pub fn resident_mib() -> Option<f64> {
    status_field("VmRSS:").map(|kib| kib as f64 / 1024.0)
}

/// Processors the kernel lists, whatever this process may use.
fn nproc() -> Option<usize> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    Some(info.lines().filter(|l| l.starts_with("processor")).count())
}

/// The commit of the checkout the benchmark sits in, when it is a git
/// checkout (the driver's is not).
fn git_commit(repo: &Path) -> Option<String> {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => Some(
            std::fs::read_to_string(repo.join(".git").join(reference))
                .ok()?
                .trim()
                .to_owned(),
        ),
        None => Some(head.to_owned()),
    }
}

/// Where and how this run was built and executed.
pub fn fingerprint() -> Value {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    json!({
        "nproc": nproc(),
        "available_parallelism": std::thread::available_parallelism().map(usize::from).ok(),
        "rustc": env!("TASTE_PERF_RUSTC"),
        "profile": if RELEASE_BUILD { "release" } else { "debug" },
        "git_commit": git_commit(&repo),
    })
}
