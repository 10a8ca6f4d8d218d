//! The benchmark's own tests, at tiny trace counts. Run with
//! `cargo test --release --manifest-path glitchbench/Cargo.toml`.

use glitchbench::{run, Opts, Outcome, Scale, WORKLOADS};
use gm_bench::json::{self, Json};
use std::path::PathBuf;

fn tiny(workload: &str, trace: bool) -> Opts {
    Opts {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        inject_fault: false,
        spans_out: None,
    }
}

fn run_ok(opts: &Opts) -> Outcome {
    let out = run(opts).expect("known workload");
    assert!(out.checks.attempted() > 0, "{}: no checks made", opts.workload);
    assert_eq!(out.checks.failed(), 0, "{}: {:?}", opts.workload, out.checks.failures());
    out
}

#[test]
fn every_workload_runs_and_passes_its_checks() {
    for w in WORKLOADS {
        let out = run_ok(&tiny(w, false));
        assert!(out.metrics["traces_per_s"] > 0.0, "{w}: no throughput");
        assert!(out.metrics["setup_s"] > 0.0, "{w}: no set-up time");
        assert!(out.metrics["peak_rss_mib"] > 0.0, "{w}: no memory figure");
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run(&tiny("no-such-workload", false)).is_err());
}

/// Names and units of one metric list of `BENCHMARK.json`.
fn spec_metrics(spec: &Json, key: &str) -> Vec<(String, String)> {
    let list = spec.get(key).and_then(Json::as_arr).expect("metric list");
    let field =
        |m: &Json, f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_owned();
    list.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
}

/// The result line carries exactly the metric set `BENCHMARK.json`
/// names for the mode, each with its unit; the report shows them and
/// `failed_frac`.
#[test]
fn every_named_metric_is_printed_with_its_unit() {
    let spec = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&spec).expect("BENCHMARK.json parses");
    for w in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run_ok(&tiny(w, trace));
            let line = json::parse(&out.result_json()).expect("result line parses");
            let report = out.report();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics object");
            let names = spec_metrics(&spec, key);
            assert_eq!(metrics.len(), names.len(), "{w}: {metrics:?}");
            for (name, unit) in names {
                let m = line.get("metrics").and_then(|m| m.get(&name));
                let m = m.unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite),
                    "{w}: {name}"
                );
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{w}: {name}"
                );
                assert!(report.contains(&name), "{w}: report lacks {name}");
            }
            assert!(report.contains("failed_frac"), "{w}: report lacks failed_frac");
            assert!(report.contains("\"host\": {\"nproc\": "), "{w}: report lacks the host");
        }
    }
}

/// The probed (traced) campaign reproduces the bare campaign's t-values
/// bit for bit, and the spans it recorded are written out.
#[test]
fn traced_result_bit_equals_untraced() {
    for w in WORKLOADS {
        let bare = run_ok(&tiny(w, false));
        let mut opts = tiny(w, true);
        let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{w}.json"));
        opts.spans_out = Some(spans.clone());
        let traced = run_ok(&opts);
        assert!(!bare.t_bits.is_empty());
        assert_eq!(bare.t_bits, traced.t_bits, "{w}: traced t-values differ");
        let written = std::fs::read_to_string(&spans).expect("spans written");
        assert!(written.contains("\"name\": \"acquire\""), "{w}: no acquire spans");
        assert!(written.contains("\"name\": \"campaign\""), "{w}: no campaign span");
        assert!(traced.metrics["acquire.ns_per_trace"] > 0.0, "{w}: no acquire time");
        assert!(traced.metrics["trace_overhead"] > 0.0, "{w}: no overhead ratio");
    }
}

/// A deliberately wrong fast-path result must show up as failed checks.
#[test]
fn injected_wrong_result_raises_failed_frac() {
    for w in WORKLOADS {
        let mut opts = tiny(w, false);
        opts.inject_fault = true;
        let out = run(&opts).expect("known workload");
        assert!(out.checks.failed_frac() > 0.0, "{w}: fault went unnoticed");
        assert!(out.result_json().starts_with("{\"correct\": false"), "{w}");
    }
}
