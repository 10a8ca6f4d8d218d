//! Quick speed probe: single-threaded traces per second of every
//! acquisition backend, through the same shared [`TraceSource`]
//! plumbing the campaigns use (no hand-rolled loops — what this probe
//! times is exactly what `Campaign` runs per worker).

use gm_bench::{Args, MetricsSink};
use gm_des::tvla_src::{AnyCycleSource, CoreVariant, GateLevelSource, SourceConfig};
use gm_leakage::tvla::{Class, TraceSource};
use std::time::Instant;

/// Time an alternating fixed/random block acquisition (the campaign's
/// per-worker quota path) and return seconds elapsed.
fn time_block<S: TraceSource>(src: &mut S, traces: usize) -> f64 {
    let ns = src.num_samples();
    let labels: Vec<Class> =
        (0..traces).map(|i| if i % 2 == 0 { Class::Fixed } else { Class::Random }).collect();
    let mut fixed = vec![0.0; traces.div_ceil(2) * ns];
    let mut random = vec![0.0; traces / 2 * ns];
    let start = Instant::now();
    src.trace_block(&labels, &mut fixed, &mut random);
    start.elapsed().as_secs_f64()
}

fn main() {
    let args = Args::parse();
    let mut metrics = MetricsSink::from_args("speed_probe", &args);

    // Cycle model, scalar reference vs 64-way bitsliced.
    for (name, scalar, n) in
        [("cycle/scalar", true, 2_000usize), ("cycle/bitsliced", false, 20_000)]
    {
        let mut cfg = SourceConfig::new(CoreVariant::Ff);
        cfg.seed = args.seed;
        let mut src = AnyCycleSource::new(cfg, scalar);
        let dt = time_block(&mut src, n);
        println!("{name:>16}: {n} traces in {dt:.3} s -> {:.1} traces/s/thread", n as f64 / dt);
        let mut counters = gm_obs::Report::new();
        src.obs_report(&mut counters);
        metrics.record_phase(name, dt, n as u64, counters);
    }

    // Event-driven gate level, both cores.
    for (name, variant, n) in [
        ("gate/FF", CoreVariant::Ff, 50usize),
        ("gate/PD(10)", CoreVariant::Pd { unit_luts: 10 }, 50),
    ] {
        let mut cfg = SourceConfig::new(variant);
        cfg.seed = args.seed;
        let mut src = GateLevelSource::new(cfg, 2, 0.0);
        let nl = &src.core().netlist;
        let t = gm_netlist::timing::analyze(nl).unwrap();
        println!(
            "{name:>16}: {} gates, {} nets, critical path {} ps -> {:.1} MHz",
            nl.num_gates(),
            nl.num_nets(),
            t.critical_path_ps,
            t.max_freq_mhz()
        );
        let dt = time_block(&mut src, n);
        println!("{:>16}  {n} traces in {dt:.3} s -> {:.1} traces/s/thread", "", n as f64 / dt);
        let mut counters = gm_obs::Report::new();
        src.obs_report(&mut counters);
        metrics.record_phase(name, dt, n as u64, counters);
    }
    metrics.finish().expect("write metrics");
}
