//! Campaign-throughput harness: times a fig14-style TVLA campaign
//! (cycle-model backend, secAND2-FF core, PRNG on) on the scalar
//! reference oracle and on the production path (the 64-way bitsliced
//! engine with the lane-major statistics tail, recorded as
//! `bitsliced-wide` so `regress` keeps comparing it against its earlier
//! rows) — appending one record per configuration to `BENCH_tvla.json`
//! and asserting both agree on `max|t1|` and `max|t2|` to 1e-9. The
//! speedup trajectory and the conclusions-unchanged evidence live in
//! the same file.
//!
//! ```text
//! cargo run --release -p gm-bench --bin bench_tvla -- \
//!     --traces 100000 --threads 8 --label lane-moments
//! ```
//!
//! `--threads` defaults to every available core (the same default
//! `bench_gate` uses — see [`Args::thread_count`]); the count actually
//! used is recorded on every row.
//!
//! The JSON file is a flat array of run records; this binary appends
//! without disturbing earlier entries. A smoke-scale overhead check
//! guards the observability layer: enabling `--metrics` collection must
//! cost < 2% of campaign throughput.

use gm_bench::metrics::assert_metrics_overhead;
use gm_bench::record::{append_record, BenchRecord};
use gm_bench::{Args, MetricsSink};
use gm_des::tvla_src::{AnyCycleSource, CoreVariant, SourceConfig};
use gm_leakage::Campaign;
use std::time::Instant;

const BENCH_FILE: &str = "BENCH_tvla.json";

fn main() {
    let args = Args::parse();
    let mut metrics = MetricsSink::from_args("bench_tvla", &args);
    let traces = args.trace_count(10_000, 100_000);
    let threads = args.thread_count();
    let label = args.label.clone().unwrap_or_else(|| "unlabelled".to_owned());

    let mut cfg = SourceConfig::new(CoreVariant::Ff);
    cfg.seed = args.seed;
    let campaign = Campaign { traces, threads, seed: args.seed };

    println!("bench_tvla: fig14-style campaign, {traces} traces, {threads} threads");
    // (backend row name, scalar engine?)
    let configs: [(&str, bool); 2] = [("scalar", true), ("bitsliced-wide", false)];
    let mut measured: Vec<(&'static str, f64, f64, f64)> = Vec::new();
    for (backend, scalar) in configs {
        let src = AnyCycleSource::new(cfg.clone(), scalar);
        // Untimed warm-up, then best of three identical passes: the
        // campaign is deterministic, so passes differ only by scheduler
        // noise and the fastest is the cleanest throughput estimate.
        let _ = Campaign { traces: traces / 4, threads, seed: args.seed ^ 0xaaaa }.run(&src);
        let mut result = campaign.run(&src);
        let mut seconds = f64::INFINITY;
        for rep in 0..3u32 {
            let start = Instant::now();
            // Final pass goes through the sink so the JSONL carries the
            // campaign's pool/source counters per backend.
            result = if rep == 2 {
                metrics.run(&format!("{backend}-pass"), &campaign, &src)
            } else {
                campaign.run(&src)
            };
            seconds = seconds.min(start.elapsed().as_secs_f64());
        }
        let tps = traces as f64 / seconds;
        let max_t1 = result.max_abs_t(1);
        let max_t2 = result.max_abs_t(2);
        println!("  {backend:>14}: {seconds:.3} s -> {tps:.0} traces/s  (max|t1| = {max_t1:.2})");

        let record = BenchRecord::new(&label, "fig14-ff-cycle-model", traces, threads, seconds)
            .with("backend", format!("\"{backend}\""))
            .with_f64("max_abs_t1", max_t1)
            .with_f64("max_abs_t2", max_t2);
        append_record(BENCH_FILE, &record.to_json()).expect("write BENCH_tvla.json");
        measured.push((backend, tps, max_t1, max_t2));
    }

    let (_, tps_s, t1_s, t2_s) = measured[0];
    let (backend, tps_b, t1, t2) = measured[1];
    assert!(
        (t1_s - t1).abs() < 1e-9,
        "backends disagree on max|t1|: scalar {t1_s} vs {backend} {t1}"
    );
    assert!(
        (t2_s - t2).abs() < 1e-9,
        "backends disagree on max|t2|: scalar {t2_s} vs {backend} {t2}"
    );
    println!("  bitsliced/scalar speedup: {:.1}x  (max|t1|, max|t2| agree to 1e-9)", tps_b / tps_s);
    println!("  recorded as \"{label}\" (both configurations) in {BENCH_FILE}");

    // Observability guarantee: metrics collection on a smoke-scale
    // campaign stays under 2% of throughput.
    let smoke = Campaign { traces: traces / 10, threads, seed: args.seed ^ 0x0b5 };
    assert_metrics_overhead(&smoke, &AnyCycleSource::new(cfg, false), 2.0, 8);
    metrics.finish().expect("write metrics");
}
