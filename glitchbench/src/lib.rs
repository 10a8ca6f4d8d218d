//! The glitchmask benchmark: four TVLA workloads timed end to end
//! through the public campaign entry points, with correctness checks on
//! every run and a separate traced run that splits the time by layer.
//!
//! ```text
//! cargo run --release --manifest-path glitchbench/Cargo.toml -- \
//!     --workload cycle-ff --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics ([`END_TO_END`]), `--trace 1` the per-layer
//! metrics ([`PER_LAYER`]); the lines before it give the quartiles,
//! sample counts, the host fingerprint and the result fingerprint.
//! README.md in this directory maps each layer metric to the end-to-end
//! metric and workload it should move.

pub mod affinity;
pub mod calib;
pub mod host;
pub mod spans;
pub mod stats;
mod workloads;

use gm_leakage::TvlaResult;
use host::Host;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["cycle-ff", "cycle-pd-stream", "gate-gadget", "gate-des-pd"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("traces_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// never enters reads 0.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("acquire.ns_per_trace", "ns"),
    ("leakage.moments.ns_per_trace", "ns"),
    ("leakage.ttest.ms", "ms"),
    ("leakage.tvla.self_ns_per_trace", "ns"),
    ("leakage.tvla.worker_balance", "ratio"),
    ("leakage.tvla.idle_frac", "ratio"),
    ("leakage.tvla.snapshots", "count"),
    ("des.bitslice.ns_per_trace", "ns"),
    ("des.bitslice.lane_util", "ratio"),
    ("des.power.ns_per_trace", "ns"),
    ("des.rng.mask_words_per_trace", "count"),
    ("des.driver.ns_per_trace", "ns"),
    ("des.netlist_gen.build_s", "s"),
    ("sim.events_per_trace", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.useful_event_frac", "ratio"),
    ("sim.noise.ns_per_trace", "ns"),
    ("sim.sched.compile_s", "s"),
    ("sim.sched.pass_ns_per_trace", "ns"),
    ("sim.sched.repair_ns_per_trace", "ns"),
    ("sim.pack.ns_per_trace", "ns"),
    ("sim.sched.divergent_frac", "ratio"),
    ("residue_ns_per_trace", "ns"),
    ("trace_overhead", "ratio"),
];

/// Campaign sizes: `Full` is the benchmark; `Tiny` shrinks every
/// campaign and prefix for the benchmark's own tests. The checks are
/// the same at both sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's trace counts.
    Full,
    /// Test-sized trace counts.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input of the workload is generated from.
    pub seed: u64,
    /// How long the measurement loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Campaign sizes.
    pub scale: Scale,
    /// Perturb the fast path's output, to prove the checks catch it.
    pub inject_fault: bool,
    /// Where a traced run writes its spans (not written when `None`).
    pub spans_out: Option<PathBuf>,
}

/// Correctness checks made during a run; `failed / attempted` is the
/// run's `failed_frac`.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Count one check; `detail` describes a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Checks made.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed checks / attempted checks.
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Description of every failed check.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The workload run.
    pub workload: String,
    /// Correctness checks.
    pub checks: Checks,
    /// Metrics by name: every [`END_TO_END`] (untraced) or every
    /// [`PER_LAYER`] (traced) metric.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Quartiles behind the timed metrics (name → summary).
    pub spreads: Vec<(&'static str, stats::Summary)>,
    /// The timed end-to-end metrics as measured by the wall clock,
    /// before the host-speed correction (see [`calib`]).
    pub wall: Vec<(&'static str, stats::Summary)>,
    /// Result fingerprint: values a speed-only change must not move.
    pub fingerprint: Vec<(&'static str, f64)>,
    /// Bits of the production campaign's t1, t2 and t3 curves.
    pub t_bits: Vec<u64>,
    /// Where and what it ran on.
    pub host: Host,
}

impl Outcome {
    fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_owned(),
            checks: Checks::default(),
            metrics: BTreeMap::new(),
            spreads: Vec::new(),
            wall: Vec::new(),
            fingerprint: Vec::new(),
            t_bits: Vec::new(),
            host: Host::probe(),
        }
    }

    /// Unit of a metric name.
    pub fn unit(name: &str) -> &'static str {
        END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map_or("", |m| m.1)
    }

    /// Human-readable lines: every metric with its unit and spread, the
    /// checks, the result fingerprint and the host fingerprint.
    pub fn report(&self) -> String {
        let mut out = format!("glitchbench {}\n", self.workload);
        for (name, value) in &self.metrics {
            out.push_str(&format!("  {name:<34} {value:>22} {}", Self::unit(name)));
            if let Some((_, s)) = self.spreads.iter().find(|(n, _)| n == name) {
                out.push_str(&format!(
                    "   (median of {}; q1 {}, q3 {}, spread {:.2}%)",
                    s.n,
                    s.q1,
                    s.q3,
                    100.0 * s.spread()
                ));
            }
            out.push('\n');
        }
        for (name, s) in &self.wall {
            out.push_str(&format!(
                "  {:<34} {:>22} {}   (wall clock, uncorrected; q1 {}, q3 {}, spread {:.2}%)\n",
                format!("{name} (wall)"),
                s.median,
                Self::unit(name),
                s.q1,
                s.q3,
                100.0 * s.spread()
            ));
        }
        out.push_str(&format!(
            "  {:<34} {:>22} ratio   ({} of {} checks failed)\n",
            "failed_frac",
            self.checks.failed_frac(),
            self.checks.failed(),
            self.checks.attempted()
        ));
        for f in self.checks.failures() {
            out.push_str(&format!("  FAILED {f}\n"));
        }
        let fp: Vec<String> =
            self.fingerprint.iter().map(|(k, v)| format!("\"{k}\": {v:.12e}")).collect();
        out.push_str(&format!(
            "{{\"host\": {}, \"result\": {{{}}}}}\n",
            self.host.to_json(),
            fp.join(", ")
        ));
        out
    }

    /// The final result line.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(*v),
                    Self::unit(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed() == 0,
            self.checks.attempted(),
            self.checks.failed(),
            metrics.join(", ")
        )
    }
}

/// A finite number with all its digits. A non-finite value, already
/// counted as a failed check, reads 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Run one workload.
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new(&opts.workload);
    workloads::run(opts, &mut out)?;
    let expected = if opts.trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    let complete = expected.len() == out.metrics.len()
        && expected.iter().all(|(name, _)| out.metrics.get(name).is_some_and(|v| v.is_finite()));
    let reported = format!("{:?}", out.metrics);
    out.checks.check("every metric reported and finite", complete, || reported);
    Ok(out)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bits of a result's t1, t2 and t3 curves (bit-equality comparisons).
pub(crate) fn t_bits(r: &TvlaResult) -> Vec<u64> {
    r.t1().iter().chain(r.t2().iter()).chain(r.t3().iter()).map(|t| t.to_bits()).collect()
}
