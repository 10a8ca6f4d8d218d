//! Command-line entry point of the glitchmask benchmark.
//!
//! ```text
//! glitchbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A traced run writes its spans to `out/spans-<workload>-<seed>.json`
//! in this package's directory.
//!
//! Prints the metrics with their units and spreads, the host and result
//! fingerprints, and as its last line the JSON result. Exits 0 when the
//! run completed (a failed check shows as `"correct": false`), 1 when it
//! panicked, 2 on bad arguments.

use glitchbench::{run, Opts, Scale, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: glitchbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        inject_fault: false,
        spans_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    opts.spans_out = opts.trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.json", opts.workload, opts.seed))
    });
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("glitchbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match std::panic::catch_unwind(|| run(&opts)) {
        Ok(Ok(outcome)) => {
            print!("{}", outcome.report());
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            eprintln!("glitchbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(_) => {
            // A panic is a failed check; report it and fail the process.
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
    }
}
