//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload (or every declared one), prints each metric with its unit and
//! sample count, then one JSON result line. Exits non-zero when an output
//! check fails or the workload cannot run.

use std::process::ExitCode;
use std::time::Duration;

use wsp_perfbench::{run_workload, RunConfig, Scale, DEFAULT_SEED, EXTRA_WORKLOADS, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <design-sweep|floor-calm|floor-faults|served-mix|all> \
     [--seed N] [--seconds S] [--trace 0|1]";

fn parse() -> Result<(Vec<&'static str>, RunConfig), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: DEFAULT_SEED,
        budget: Duration::from_secs(10),
        trace: false,
        scale: Scale::Full,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => config.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                let secs: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(secs.is_finite() && secs > 0.0 && secs <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                config.budget = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let names: Vec<&'static str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![WORKLOADS
            .iter()
            .chain(&EXTRA_WORKLOADS)
            .copied()
            .find(|w| *w == workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?]
    };
    Ok((names, config))
}

fn main() -> ExitCode {
    let (names, config) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for name in names {
        println!(
            "workload {name}  seed {}  seconds {}  trace {}  threads available {}",
            config.seed,
            config.budget.as_secs_f64(),
            u8::from(config.trace),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        match run_workload(name, &config) {
            Ok(result) => {
                print!("{}", result.table());
                println!("{}", result.json_line());
                if !result.correct() {
                    eprintln!("{name}: an output check failed");
                    code = ExitCode::from(1);
                }
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    code
}
