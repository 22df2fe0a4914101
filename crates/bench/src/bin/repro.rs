//! Reproduction entry point: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p taste-bench --release --bin repro -- all
//! cargo run -p taste-bench --release --bin repro -- fig4 table3
//! TASTE_REPRO_SCALE=quick cargo run -p taste-bench --release --bin repro -- table2
//! ```

use taste_bench::{experiments, Scale};

fn main() {
    let mut scale = Scale::from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--smoke` forces the quick scale regardless of the environment —
    // CI smoke jobs pass it so a stray TASTE_REPRO_SCALE can't slow them.
    if args.iter().any(|a| a == "--smoke") {
        args.retain(|a| a != "--smoke");
        scale = Scale::quick();
    }
    if args.is_empty() {
        eprintln!(
            "usage: repro [--smoke] [table2|fig4|table3|table4|fig5|fig6|fig7|fig8|fault_sweep|overload_sweep|crash_resume|train_resume|swap_bench|all]..."
        );
        std::process::exit(2);
    }
    println!("reproduction scale: {:?}", scale);
    for arg in &args {
        let t0 = std::time::Instant::now();
        let result = match arg.as_str() {
            "table2" => experiments::table2(&scale),
            "fig4" => experiments::fig4(&scale),
            "table3" => experiments::table3(&scale),
            "table4" => experiments::table4(&scale),
            "fig5" => experiments::fig5(&scale),
            "fig6" => experiments::fig6(&scale),
            "fig7" => experiments::fig7(&scale),
            "fig8" => experiments::fig8(&scale),
            "fault_sweep" => experiments::fault_sweep(&scale),
            "overload_sweep" => experiments::overload_sweep(&scale),
            "crash_resume" => experiments::crash_resume(&scale),
            "train_resume" => experiments::train_resume(&scale),
            "swap_bench" => experiments::swap_bench(&scale),
            "all" => experiments::all(&scale),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        };
        match result {
            Ok(()) => println!("[{arg}] completed in {:.1?}", t0.elapsed()),
            Err(e) => {
                eprintln!("[{arg}] failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
