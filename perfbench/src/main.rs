//! The Pro-Temp benchmark: end-to-end and per-layer metrics of the
//! design-time sweep, the run-time MPC ladder loop and the 3D table loop.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <design_sweep|mpc_loop|table_loop_3d> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference
//! ```
//!
//! Each invocation runs one workload for `--seconds` of untraced
//! iterations and prints its metrics by name and unit. With `--trace 1`
//! it then replays the same iterations with spans on, checks that they
//! reproduce the untraced tables and simulated statistics exactly, and
//! prints the per-layer metrics instead of the end-to-end ones. The last
//! line of standard output is the JSON result. `--write-reference` prints
//! the full-model feasibility map `design_sweep` checks against. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod design_sweep;
mod harness;
mod metrics;
mod mpc_loop;
mod reference;
mod table_loop_3d;
mod telemetry;
mod tracer;

use std::process::ExitCode;

use harness::{Outcome, RunConfig};
use metrics::result_json;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["design_sweep", "mpc_loop", "table_loop_3d"];

const USAGE: &str = "usage: perfbench --workload <design_sweep|mpc_loop|table_loop_3d> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] | --write-reference";

/// Parsed command line.
enum Command {
    Run { workload: String, cfg: RunConfig },
    WriteReference,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--write-reference"] {
        return Ok(Command::WriteReference);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds must be a positive number, got {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required".to_string())?;
    let default_seed = match workload.as_str() {
        "design_sweep" => 0,
        "mpc_loop" => mpc_loop::DEFAULT_SEED,
        "table_loop_3d" => table_loop_3d::DEFAULT_SEED,
        other => return Err(format!("unknown workload {other}")),
    };
    Ok(Command::Run {
        workload,
        cfg: RunConfig {
            seed: seed.unwrap_or(default_seed),
            seconds,
            trace,
        },
    })
}

fn print_report(workload: &str, cfg: &RunConfig, out: &Outcome) {
    println!(
        "{workload}: seed {}, {} s measured, trace {}, nproc {}, 1 worker thread",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        harness::nproc()
    );
    for (name, value, unit) in out.end_to_end.entries() {
        println!("  {name:<26} {value:>14.6} {unit}");
    }
    for line in &out.report {
        println!("  {:<26} {:>14.6} {}", line.name, line.value, line.unit);
    }
    if let Some(traced) = &out.traced {
        println!("  spans (name, count, total s, self s):");
        for (name, count, total, own) in traced.spans.table() {
            println!("    {name:<26} {count:>8} {total:>12.6} {own:>12.6}");
        }
        println!("  per-layer metrics:");
        for (name, value, unit) in traced.per_layer.entries() {
            println!("    {name:<28} {value:>16.6} {unit}");
        }
    }
    for p in &out.problems {
        println!("  CHECK FAILED: {p}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(Command::Run { workload, cfg }) => (workload, cfg),
        Ok(Command::WriteReference) => {
            print!("{}", design_sweep::reference_text());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match workload.as_str() {
        "design_sweep" => design_sweep::run(&cfg),
        "mpc_loop" => mpc_loop::run(&cfg),
        _ => table_loop_3d::run(&cfg),
    };
    print_report(&workload, &cfg, &out);
    let metrics = match &out.traced {
        Some(traced) => &traced.per_layer,
        None => &out.end_to_end,
    };
    println!(
        "{}",
        result_json(out.problems.is_empty(), out.attempted, out.failed, metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let Ok(Command::Run { workload, cfg }) =
            parse_args(&args("--workload mpc_loop --seed 7 --seconds 10 --trace 1"))
        else {
            panic!("valid command line rejected");
        };
        assert_eq!(workload, "mpc_loop");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 10.0, true));
    }

    #[test]
    fn loops_default_to_their_trace_seed() {
        let Ok(Command::Run { cfg, .. }) = parse_args(&args("--workload table_loop_3d")) else {
            panic!("valid command line rejected");
        };
        assert_eq!(cfg.seed, table_loop_3d::DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope",
            "--workload mpc_loop --trace 2",
            "--workload mpc_loop --seconds 0",
            "--workload mpc_loop --seed",
            "--workload mpc_loop --frob 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
