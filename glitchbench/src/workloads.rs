//! The four workloads and the measurement loop they share.
//!
//! Each workload generates its configuration from the run's seed, builds
//! its trace source through the program's public constructors, times
//! the production campaign through `Campaign::run_observed` (or
//! `run_streamed_observed`), and then checks the paper's verdicts and
//! the fast path against an independent reference. The traced run
//! repeats the same campaign through a forwarding [`Probe`] and adds
//! component passes that call each layer's entry point on the
//! workload's own configuration.

use crate::spans::{Probe, SpanLog};
use crate::stats::Summary;
use crate::{affinity, calib, t_bits, Checks, Opts, Outcome, Scale, PER_LAYER};
use gm_bench::gate::{build_pd_gadget, placement_bias, PdGadget, PdPlacementSource};
use gm_core::MaskRng;
use gm_des::masked::BitslicedDes;
use gm_des::netlist_gen::driver::{total_cycles, EncryptionInputs};
use gm_des::netlist_gen::{build_des_core, DesDriverCore, SboxStyle};
use gm_des::power::{CycleLaneCounters, GroupScratch, PdLeakModel, PowerModel};
use gm_des::tvla_src::{
    BitslicedCycleSource, CoreVariant, CycleModelSource, GateLevelSource, SourceConfig,
};
use gm_des::Des;
use gm_leakage::{
    leaks, BlockScratch, Campaign, CampaignObs, Class, TraceMoments, TraceSource, TvlaResult,
};
use gm_obs::Report;
use gm_sim::{CompiledSchedule, CouplingModel, DelayModel, MeasurementModel, PowerTrace, SimGraph};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Set-up time timed per repetition, as a share of its campaign time.
const SETUP_SHARE: f64 = 0.1;
/// Share of `--seconds` a traced run spends on campaign repetitions; the
/// component passes take the rest.
const TRACED_SHARE: f64 = 0.7;
/// Agreement required between a fast path and its reference.
const TOLERANCE: f64 = 1e-9;

/// The production campaign of a workload.
#[derive(Debug, Clone, Copy)]
struct Plan {
    traces: u64,
    threads: usize,
    seed: u64,
    /// Progress cadence for `run_streamed`; `None` runs `run_observed`.
    stream_every: Option<u64>,
    /// Traces the paper verdicts are judged at; a smaller production
    /// campaign gets a separate verdict campaign of this size.
    verdict_traces: u64,
    /// Traces of the fast-path-vs-oracle prefix campaign.
    prefix: u64,
}

impl Plan {
    fn campaign(&self, traces: u64) -> Campaign {
        Campaign { traces, threads: self.threads, seed: self.seed }
    }
}

/// Per-layer values, keyed by [`PER_LAYER`] name.
type Layers = BTreeMap<&'static str, f64>;

/// SplitMix64: every input of a workload, from its seed.
struct Inputs(u64);

impl Inputs {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

trait Bench {
    type Src: TraceSource;

    fn plan(&self) -> Plan;

    /// The set-up: everything built before the first trace.
    fn build(&self) -> Self::Src;

    /// Check the fast path against its independent reference; `fault`
    /// perturbs the fast path's output.
    fn check_outputs(&self, fault: bool, checks: &mut Checks);

    /// Check the paper's conclusions on a campaign result.
    fn check_verdicts(&self, _result: &TvlaResult, _checks: &mut Checks) {}

    /// Result values a speed-only change must leave unchanged.
    fn fingerprint(&self, result: &TvlaResult) -> Vec<(&'static str, f64)> {
        vec![("max_abs_t1", result.max_abs_t(1)), ("max_abs_t2", result.max_abs_t(2))]
    }

    /// Component passes below `trace_block`, recorded under `parent`.
    fn components(
        &self,
        log: &SpanLog,
        parent: u64,
        obs: &Report,
        checks: &mut Checks,
        layers: &mut Layers,
    );
}

/// Run the workload `opts` names.
pub(crate) fn run(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let mut inputs = Inputs(opts.seed);
    let tiny = opts.scale == Scale::Tiny;
    match opts.workload.as_str() {
        "cycle-ff" => drive(&Cycle::new(CoreVariant::Ff, tiny, &mut inputs), opts, out),
        "cycle-pd-stream" => {
            drive(&Cycle::new(CoreVariant::Pd { unit_luts: 10 }, tiny, &mut inputs), opts, out)
        }
        "gate-gadget" => drive(&Gadget::new(tiny, &mut inputs), opts, out),
        "gate-des-pd" => drive(&GateDes::new(tiny, &mut inputs), opts, out),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {:?}",
                crate::WORKLOADS
            ))
        }
    }
    Ok(())
}

/// One production campaign: result, pool observations, and the number
/// of progress snapshots delivered. The progress sink reads each
/// snapshot's max|t1|, as a live convergence display would.
fn campaign<S: TraceSource>(plan: &Plan, src: &S) -> (TvlaResult, CampaignObs, u64) {
    let c = plan.campaign(plan.traces);
    match plan.stream_every {
        None => {
            let (r, obs) = c.run_observed(src);
            (r, obs, 0)
        }
        Some(every) => {
            let mut snapshots = 0u64;
            let (r, obs) = c.run_streamed_observed(src, every, |snap| {
                snapshots += 1;
                black_box(snap.max_abs_t(1));
            });
            (r, obs, snapshots)
        }
    }
}

fn drive<B: Bench>(b: &B, opts: &Opts, out: &mut Outcome) {
    let plan = b.plan();
    let src = b.build();
    // Warm-up; its result is the reference every later repetition of
    // the (deterministic) campaign must reproduce bit for bit.
    let t = Instant::now();
    let (reference, _, _) = campaign(&plan, &src);
    let warm_up_s = t.elapsed().as_secs_f64();
    out.t_bits = t_bits(&reference);
    out.fingerprint = b.fingerprint(&reference);

    if opts.trace {
        traced(b, &plan, &src, &reference, opts, out);
    } else {
        measure(b, &plan, &src, warm_up_s, opts, out);
        // Read before the checks below build their own sources, so the
        // figure covers the set-up and the campaigns only.
        out.metrics.insert("peak_rss_mib", crate::peak_rss_mib());
    }
    if plan.traces >= plan.verdict_traces {
        b.check_verdicts(&reference, &mut out.checks);
    } else {
        b.check_verdicts(&plan.campaign(plan.verdict_traces).run(&src), &mut out.checks);
    }
    b.check_outputs(opts.inject_fault, &mut out.checks);
}

/// The untraced measurement. One repetition visits every CPU the
/// process may use (see `affinity`), pinned in turn, and on each times a
/// batch of set-up builds and one campaign; a pool's workers inherit the
/// pin, so they share that CPU. Each repetition gives one `traces_per_s`
/// and one `setup_s` sample, so both see every CPU and the whole run.
/// Every timed section is bracketed by the calibration kernel on its
/// CPU (see `calib`); the metrics are the corrected times, and the
/// wall-clock figures go into the report beside them.
fn measure<B: Bench>(
    b: &B,
    plan: &Plan,
    src: &B::Src,
    warm_up_s: f64,
    opts: &Opts,
    out: &mut Outcome,
) {
    let cpus = affinity::allowed();
    let visits = cpus.len().max(1);
    // Builds per batch: about SETUP_SHARE of a campaign's time.
    let t = Instant::now();
    drop(b.build());
    let batch = (SETUP_SHARE * warm_up_s / t.elapsed().as_secs_f64()).ceil().clamp(1.0, 1e6);
    // Per repetition: corrected and wall-clock samples of both metrics.
    let (mut tps, mut setup, mut wall_tps, mut wall_setup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while tps.len() < 3 || start.elapsed().as_secs_f64() < opts.seconds {
        // (wall, corrected) seconds of the builds and of the campaigns.
        let (mut build_s, mut campaign_s) = ((0.0, 0.0), (0.0, 0.0));
        for i in 0..visits {
            if let Some(&cpu) = cpus.get(i) {
                affinity::set(&[cpu]);
            }
            let c0 = calib::time();
            let t = Instant::now();
            for _ in 0..batch as usize {
                black_box(b.build());
            }
            let wall = t.elapsed().as_secs_f64();
            let c1 = calib::time();
            build_s.0 += wall;
            build_s.1 += calib::correct(wall, c0, c1);

            let t = Instant::now();
            let (r, _, _) = campaign(plan, src);
            let wall = t.elapsed().as_secs_f64();
            let c2 = calib::time();
            campaign_s.0 += wall;
            campaign_s.1 += calib::correct(wall, c1, c2);
            out.checks.check("repeatable", t_bits(&r) == out.t_bits, || {
                "a repetition of the campaign changed its t-values".to_owned()
            });
        }
        affinity::set(&cpus);
        let traces = (visits as u64 * plan.traces) as f64;
        let builds = visits as f64 * batch;
        tps.push(traces / campaign_s.1);
        setup.push(build_s.1 / builds);
        wall_tps.push(traces / campaign_s.0);
        wall_setup.push(build_s.0 / builds);
    }
    let tps = Summary::of(&tps);
    let setup = Summary::of(&setup);
    out.metrics.insert("traces_per_s", tps.median);
    out.metrics.insert("setup_s", setup.median);
    out.spreads.push(("traces_per_s", tps));
    out.spreads.push(("setup_s", setup));
    out.wall.push(("traces_per_s", Summary::of(&wall_tps)));
    out.wall.push(("setup_s", Summary::of(&wall_setup)));
}

/// The traced run: campaign repetitions alternating bare and probed
/// sources (the probed result must bit-equal the bare one), then the
/// component passes, then the per-layer split.
fn traced<B: Bench>(
    b: &B,
    plan: &Plan,
    src: &B::Src,
    reference: &TvlaResult,
    opts: &Opts,
    out: &mut Outcome,
) {
    let log = Arc::new(SpanLog::default());
    let probe = Probe::new(b.build(), Some(Arc::clone(&log)), false);
    let (mut bare, mut probed) = (Vec::new(), Vec::new());
    let (mut thread_ns, mut acquire_ns, mut idle_ns, mut snapshots) = (0u64, 0u64, 0u64, 0u64);
    let mut balance = Vec::new();
    let mut report = Report::new();
    let start = Instant::now();
    while probed.len() < 2 || start.elapsed().as_secs_f64() < TRACED_SHARE * opts.seconds {
        let t = Instant::now();
        black_box(campaign(plan, src));
        bare.push(t.elapsed().as_secs_f64());

        let open = log.open("campaign", 0);
        let id = open.id();
        probe.set_parent(id);
        let t = Instant::now();
        let (r, obs, snaps) = campaign(plan, &probe);
        probed.push(t.elapsed().as_secs_f64());
        let span = log.close(open, 0, probed.len() as u64);

        out.checks.check("traced equals untraced", t_bits(&r) == out.t_bits, || {
            "the probed campaign's t-values differ from the bare campaign's".to_owned()
        });
        thread_ns += span.ns() * plan.threads as u64;
        acquire_ns += log.child_ns(id, "acquire");
        idle_ns += obs.workers.iter().map(|w| w.idle_ns).sum::<u64>();
        snapshots += snaps;
        balance.push(obs.worker_balance());
        report.merge(&obs.source);
    }
    let reps = probed.len() as f64;
    let traces = reps * plan.traces as f64;

    let mut layers: Layers = PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
    let components = log.open("components", 0);
    let cid = components.id();
    let (fixed, random) = probe.captured().expect("the probed campaign acquired a block");
    layers.insert(
        "leakage.moments.ns_per_trace",
        moments_pass(&log, cid, src.num_samples(), &fixed, &random),
    );
    layers.insert("leakage.ttest.ms", ttest_pass(&log, cid, reference));
    b.components(&log, cid, &report, &mut out.checks, &mut layers);
    log.close(components, 0, 0);

    let per_trace = |name: &str| report.get(name).unwrap_or(0) as f64 / traces;
    let ratio = |num: &str, den: &str| match report.get(den) {
        Some(d) if d > 0 => report.get(num).unwrap_or(0) as f64 / d as f64,
        _ => 0.0,
    };
    let acquire = acquire_ns as f64 / traces;
    layers.insert("acquire.ns_per_trace", acquire);
    layers.insert(
        "leakage.tvla.self_ns_per_trace",
        (thread_ns as f64 - acquire_ns as f64 - idle_ns as f64) / traces
            - layers["leakage.moments.ns_per_trace"],
    );
    layers.insert("leakage.tvla.worker_balance", Summary::of(&balance).median);
    layers.insert("leakage.tvla.idle_frac", idle_ns as f64 / thread_ns.max(1) as f64);
    layers.insert("leakage.tvla.snapshots", snapshots as f64 / reps);
    layers.insert("des.rng.mask_words_per_trace", per_trace("rng.mask_words"));
    layers.insert("sim.events_per_trace", per_trace("sim.events"));
    layers.insert("sim.useful_event_frac", ratio("sim.transitions", "sim.events"));
    layers.insert("sim.sched.pass_ns_per_trace", per_trace("sim.sched.pass_ns"));
    layers.insert("sim.sched.repair_ns_per_trace", per_trace("sim.sched.repair.ns"));
    layers.insert("sim.pack.ns_per_trace", per_trace("sim.pack.ns"));
    layers.insert("sim.sched.divergent_frac", ratio("sim.sched.repair.lanes", "sim.sched.lanes"));
    layers.insert("des.bitslice.lane_util", ratio("lanes.used", "lanes.groups") / 64.0);
    let below_acquire: f64 = [
        "des.bitslice.ns_per_trace",
        "des.power.ns_per_trace",
        "des.driver.ns_per_trace",
        "sim.noise.ns_per_trace",
        "sim.sched.pass_ns_per_trace",
        "sim.sched.repair_ns_per_trace",
        "sim.pack.ns_per_trace",
    ]
    .iter()
    .map(|name| layers[name])
    .sum();
    layers.insert("residue_ns_per_trace", acquire - below_acquire);
    let (bare, probed) = (Summary::of(&bare), Summary::of(&probed));
    layers.insert("trace_overhead", probed.median / bare.median);

    if let Some(path) = &opts.spans_out {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let written = std::fs::write(path, log.to_json());
        out.checks
            .check("spans written", written.is_ok(), || format!("{}: {written:?}", path.display()));
    }
    out.metrics.extend(layers);
}

/// Time `TraceMoments::add_block` on the first block the production
/// campaign acquired, folded per class as the campaign folds it.
fn moments_pass(log: &SpanLog, parent: u64, ns: usize, fixed: &[f64], random: &[f64]) -> f64 {
    let rows = (fixed.len() + random.len()) / ns;
    let mut scratch = BlockScratch::new(ns);
    let mut per_trace = Vec::new();
    let start = Instant::now();
    while per_trace.len() < 20 || start.elapsed().as_secs_f64() < 0.05 {
        let (mut f, mut r) = (TraceMoments::new(ns), TraceMoments::new(ns));
        let (_, span) = log.time("leakage.moments", parent, || {
            f.add_block(fixed, &mut scratch);
            r.add_block(random, &mut scratch);
        });
        black_box((&f, &r));
        per_trace.push(span.ns() as f64 / rows as f64);
    }
    Summary::of(&per_trace).median
}

/// Time the t-tests and the threshold decisions on a campaign result.
fn ttest_pass(log: &SpanLog, parent: u64, result: &TvlaResult) -> f64 {
    let mut ms = Vec::new();
    for _ in 0..15 {
        let (_, span) = log.time("leakage.ttest", parent, || {
            let curves = [result.t1(), result.t2(), result.t3()];
            black_box(curves.iter().map(|t| leaks(t)).collect::<Vec<_>>());
        });
        ms.push(span.ns() as f64 / 1e6);
    }
    Summary::of(&ms).median
}

/// Check that two results agree to [`TOLERANCE`] on every t1 and t2
/// value.
fn agree(fast: &TvlaResult, oracle: &TvlaResult) -> Result<(), String> {
    for (order, (a, b)) in [(1, (fast.t1(), oracle.t1())), (2, (fast.t2(), oracle.t2()))] {
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            if (x - y).abs() > TOLERANCE * y.abs().max(1.0) {
                return Err(format!("t{order}[{i}]: fast {x} vs reference {y}"));
            }
        }
    }
    Ok(())
}

/// Draw `n` TVLA labels (fair coin per trace).
fn labels(inputs: &mut Inputs, n: usize) -> Vec<Class> {
    (0..n).map(|_| if inputs.next() & 1 == 1 { Class::Fixed } else { Class::Random }).collect()
}

// ---------------------------------------------------------------------
// cycle-ff, cycle-pd-stream: the bitsliced cycle model
// ---------------------------------------------------------------------

/// A masked DES core on the 64-lane bitsliced cycle model.
struct Cycle {
    cfg: SourceConfig,
    plan: Plan,
}

impl Cycle {
    fn new(variant: CoreVariant, tiny: bool, inputs: &mut Inputs) -> Cycle {
        // The paper's key and fixed plaintext; the seed draws the
        // device randomness (masks, noise) and the class labels.
        let mut cfg = SourceConfig::new(variant);
        cfg.seed = inputs.next();
        let seed = inputs.next();
        let plan = match variant {
            // fig14: one thread, one-shot campaign.
            CoreVariant::Ff => Plan {
                traces: if tiny { 4_096 } else { 100_000 },
                threads: 1,
                seed,
                stream_every: None,
                verdict_traces: 100_000,
                prefix: if tiny { 1_024 } else { 8_192 },
            },
            // fig17: a pool of one worker per core, streamed with a
            // progress cadence; the verdict gets its own 400k campaign.
            CoreVariant::Pd { .. } => Plan {
                traces: if tiny { 4_096 } else { 100_000 },
                threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
                seed,
                stream_every: Some(if tiny { 1_024 } else { 25_000 }),
                verdict_traces: 400_000,
                prefix: if tiny { 1_024 } else { 8_192 },
            },
        };
        Cycle { cfg, plan }
    }

    fn is_ff(&self) -> bool {
        matches!(self.cfg.variant, CoreVariant::Ff)
    }
}

impl Bench for Cycle {
    type Src = BitslicedCycleSource;

    fn plan(&self) -> Plan {
        self.plan
    }

    fn build(&self) -> BitslicedCycleSource {
        BitslicedCycleSource::new(self.cfg.clone())
    }

    fn check_outputs(&self, fault: bool, checks: &mut Checks) {
        let prefix = self.plan.campaign(self.plan.prefix);
        let fast = prefix.run(&Probe::new(self.build(), None, fault));
        let oracle = prefix.run(&CycleModelSource::new(self.cfg.clone()));
        let agreement = agree(&fast, &oracle);
        checks.check("bitsliced vs scalar CycleModelSource", agreement.is_ok(), || {
            agreement.unwrap_err()
        });
    }

    fn check_verdicts(&self, result: &TvlaResult, checks: &mut Checks) {
        let (t1, t2) = (result.max_abs_t(1), result.max_abs_t(2));
        if self.is_ff() {
            checks.check("fig14: no first-order crossing", t1 <= 4.5, || format!("max|t1| = {t1}"));
            checks.check("fig14: second-order leak", t2 > 4.5, || format!("max|t2| = {t2}"));
        } else {
            checks.check("fig17: coupling-driven first-order crossing", t1 > 4.5, || {
                format!("max|t1| = {t1}")
            });
        }
    }

    /// `BitslicedDes` group encryption and `PowerModel::trace_group_into`
    /// on the workload's core, key and plaintext classes; every lane's
    /// ciphertext is checked against the DES reference.
    fn components(
        &self,
        log: &SpanLog,
        parent: u64,
        _obs: &Report,
        checks: &mut Checks,
        layers: &mut Layers,
    ) {
        const GROUPS: usize = 256;
        let cfg = &self.cfg;
        let engine = BitslicedDes::new(cfg.key);
        let reference = Des::new(cfg.key);
        let mut inputs = Inputs(cfg.seed);
        let mut rng = MaskRng::new(inputs.next());
        let mut counters = CycleLaneCounters::new();
        counters.skip_records = true;
        let mut scratch = GroupScratch::new();
        let mut power = match cfg.variant {
            CoreVariant::Ff => PowerModel::ff(cfg.noise_sigma, inputs.next()),
            CoreVariant::Pd { unit_luts } => PowerModel::pd(
                PdLeakModel::with_unit_luts(unit_luts),
                cfg.noise_sigma,
                inputs.next(),
            ),
        };
        let (mut bitslice_ns, mut power_ns, mut wrong) = (0u64, 0u64, 0usize);
        for _ in 0..GROUPS {
            let pts: Vec<u64> = labels(&mut inputs, 64)
                .into_iter()
                .map(|c| if c == Class::Fixed { cfg.fixed_pt } else { inputs.next() })
                .collect();
            let (cts, span) = log.time("des.bitslice", parent, || {
                if self.is_ff() {
                    engine.encrypt_ff_group(&pts, &mut rng, &mut counters)
                } else {
                    engine.encrypt_pd_group(&pts, &mut rng, &mut counters)
                }
            });
            bitslice_ns += span.ns();
            let (_, span) = log.time("des.power", parent, || {
                power.trace_group_into(&mut counters, pts.len(), &mut scratch, |_, trace| {
                    black_box(trace);
                })
            });
            power_ns += span.ns();
            wrong +=
                pts.iter().zip(cts).filter(|&(&pt, ct)| reference.encrypt_block(pt) != ct).count();
        }
        checks.check("bitsliced ciphertexts equal DES", wrong == 0, || {
            format!("{wrong} of {} lanes wrong", GROUPS * 64)
        });
        let traces = (GROUPS * 64) as f64;
        layers.insert("des.bitslice.ns_per_trace", bitslice_ns as f64 / traces);
        layers.insert("des.power.ns_per_trace", power_ns as f64 / traces);
    }
}

// ---------------------------------------------------------------------
// gate-gadget: fig15-gate placement on the compiled schedule
// ---------------------------------------------------------------------

/// DelayUnit size of the placement (the mid-sweep value `bench_gate` uses).
const GADGET_UNIT_LUTS: usize = 3;

/// One secAND2-PD placement on the compiled 64-lane schedule.
struct Gadget {
    delay_seed: u64,
    src_seed: u64,
    plan: Plan,
}

impl Gadget {
    fn new(tiny: bool, inputs: &mut Inputs) -> Gadget {
        // One fixed placement (`bench_gate`'s reference delay sample), so
        // every seed times the same circuit; the seed draws the masks,
        // the per-event jitter and the class labels.
        Gadget {
            delay_seed: 0x5eed ^ (GADGET_UNIT_LUTS as u64) << 8,
            src_seed: inputs.next(),
            plan: Plan {
                traces: if tiny { 4_096 } else { 1_000_000 },
                threads: 1,
                seed: inputs.next(),
                stream_every: None,
                verdict_traces: 0,
                prefix: if tiny { 2_048 } else { 50_000 },
            },
        }
    }

    fn placement(&self) -> (Arc<PdGadget>, Arc<DelayModel>) {
        let gadget = Arc::new(build_pd_gadget(GADGET_UNIT_LUTS));
        let delays =
            Arc::new(DelayModel::with_variation(&gadget.netlist, 0.85, 400.0, self.delay_seed));
        (gadget, delays)
    }
}

impl Bench for Gadget {
    type Src = PdPlacementSource;

    fn plan(&self) -> Plan {
        self.plan
    }

    fn build(&self) -> PdPlacementSource {
        let (gadget, delays) = self.placement();
        PdPlacementSource::new(gadget, delays, self.src_seed)
    }

    fn check_outputs(&self, fault: bool, checks: &mut Checks) {
        let prefix = self.plan.campaign(self.plan.prefix);
        let fast = prefix.run(&Probe::new(self.build(), None, fault));
        let (gadget, delays) = self.placement();
        let oracle = prefix.run(&PdPlacementSource::scalar(gadget, delays, self.src_seed));
        let (bf, bo) = (placement_bias(&fast), placement_bias(&oracle));
        let agreement = agree(&fast, &oracle).and_then(|()| {
            if (bf - bo).abs() <= TOLERANCE * bo.abs().max(1.0) {
                Ok(())
            } else {
                Err(format!("placement bias: compiled {bf} vs wheel {bo}"))
            }
        });
        checks.check("compiled schedule vs scalar wheel", agreement.is_ok(), || {
            agreement.unwrap_err()
        });
    }

    fn fingerprint(&self, result: &TvlaResult) -> Vec<(&'static str, f64)> {
        vec![
            ("max_abs_t1", result.max_abs_t(1)),
            ("max_abs_t2", result.max_abs_t(2)),
            ("placement_bias", placement_bias(result)),
        ]
    }

    /// `CompiledSchedule::compile` on the workload's placement; the
    /// sweep, repair and pack times come from the program's counters.
    fn components(
        &self,
        log: &SpanLog,
        parent: u64,
        obs: &Report,
        _checks: &mut Checks,
        layers: &mut Layers,
    ) {
        let (gadget, delays) = self.placement();
        let io = gadget.io;
        let stims = [(io.x0, 1_000), (io.x1, 1_000), (io.y0, 1_000), (io.y1, 1_000)];
        let mut secs = Vec::new();
        for _ in 0..15 {
            let (sched, span) = log.time("sim.sched.compile", parent, || {
                CompiledSchedule::compile(&gadget.graph, &delays, &stims)
            });
            black_box(sched);
            secs.push(span.ns() as f64 / 1e9);
        }
        layers.insert("sim.sched.compile_s", Summary::of(&secs).median);
        // Wheel events happen only in repaired (divergent) lanes.
        if let (Some(ns), Some(events)) = (obs.get("sim.sched.repair.ns"), obs.get("sim.events")) {
            layers.insert("sim.ns_per_event", ns as f64 / events.max(1) as f64);
        }
    }
}

// ---------------------------------------------------------------------
// gate-des-pd: the full masked-DES PD(10) netlist on the event wheel
// ---------------------------------------------------------------------

const DES_STYLE: SboxStyle = SboxStyle::Pd { unit_luts: 10 };
/// Crosstalk weight of the fig17 `--gate-level` campaign.
const COUPLING_K: f64 = 0.4;

/// The secAND2-PD(10) DES netlist, glitch-accurate, one bin per cycle.
struct GateDes {
    cfg: SourceConfig,
    plan: Plan,
    /// Encryptions per reference-ciphertext pass.
    encryptions: usize,
    /// Seed of the reference-ciphertext pass.
    pass_seed: u64,
}

impl GateDes {
    fn new(tiny: bool, inputs: &mut Inputs) -> GateDes {
        // The paper's key and fixed plaintext, and one fixed sampled
        // placement (`cfg.seed` also seeds the delay model), so every
        // seed times the same circuit; the seed draws the class labels
        // and the reference-ciphertext pass.
        GateDes {
            cfg: SourceConfig::new(CoreVariant::Pd { unit_luts: 10 }),
            pass_seed: inputs.next(),
            plan: Plan {
                traces: if tiny { 8 } else { 32 },
                threads: 1,
                seed: inputs.next(),
                stream_every: None,
                verdict_traces: 0,
                prefix: 0,
            },
            encryptions: if tiny { 2 } else { 24 },
        }
    }

    /// Encrypt on the event wheel through `DesDriverCore::encrypt` with
    /// the workload's delays, coupling and measurement model, checking
    /// every ciphertext against the DES reference. Returns the
    /// (driver, noise) nanoseconds per trace and the wheel events.
    fn driver_pass(
        &self,
        log: &SpanLog,
        parent: u64,
        fault: bool,
        checks: &mut Checks,
    ) -> (f64, f64, u64) {
        // Mirrors `GateLevelSource::new`: the same netlist, delay
        // spread/jitter, clock margin and coupling pairs.
        let cfg = &self.cfg;
        let core = build_des_core(DES_STYLE);
        let timing = gm_netlist::timing::analyze(&core.netlist).expect("core validates");
        let period_ps = timing.critical_path_ps * 6 / 5;
        let delays = DelayModel::with_variation(&core.netlist, 0.15, 40.0, cfg.seed ^ 0xdead);
        let graph = SimGraph::new(&core.netlist);
        let mut coupling = CouplingModel::new(600);
        for &(a, b) in &core.coupled_pairs {
            coupling.add_pair(a, b, COUPLING_K);
        }
        let cycles = total_cycles(DES_STYLE);
        let mut sink = coupling.sink(PowerTrace::new(0, period_ps, cycles));
        let mut inputs = Inputs(self.pass_seed);
        let mut driver = DesDriverCore::new(DES_STYLE, &graph, period_ps, inputs.next());
        let mut measurement = MeasurementModel::new(1.0, cfg.noise_sigma, 18, inputs.next());
        let mut mask_rng = MaskRng::new(inputs.next());
        let reference = Des::new(cfg.key);
        let (mut driver_ns, mut noise_ns, mut wrong) = (0u64, 0u64, Vec::new());
        for class in labels(&mut inputs, self.encryptions) {
            let pt = if class == Class::Fixed { cfg.fixed_pt } else { inputs.next() };
            let enc = EncryptionInputs::draw(pt, cfg.key, &mut mask_rng);
            driver.reset(&graph, inputs.next());
            sink.reset();
            sink.inner_mut().clear();
            let (ct, span) = log.time("des.driver", parent, || {
                driver.encrypt(&core, &graph, &delays, &enc, &mut sink)
            });
            driver_ns += span.ns();
            let (_, span) = log.time("sim.noise", parent, || {
                for &s in sink.inner().samples() {
                    black_box(measurement.sample(s));
                }
            });
            noise_ns += span.ns();
            let ct = if fault { ct ^ 1 } else { ct };
            if ct != reference.encrypt_block(pt) {
                wrong.push(format!("pt {pt:#018x}: ct {ct:#018x}"));
            }
        }
        checks.check("gate-level ciphertexts equal DES", wrong.is_empty(), || wrong.join("; "));
        let mut sim = Report::new();
        driver.sim().obs_report("sim", &mut sim);
        let n = self.encryptions as f64;
        (driver_ns as f64 / n, noise_ns as f64 / n, sim.get("sim.events").unwrap_or(0))
    }
}

impl Bench for GateDes {
    type Src = GateLevelSource;

    fn plan(&self) -> Plan {
        self.plan
    }

    fn build(&self) -> GateLevelSource {
        GateLevelSource::new(self.cfg.clone(), 1, COUPLING_K)
    }

    fn check_outputs(&self, fault: bool, checks: &mut Checks) {
        self.driver_pass(&SpanLog::default(), 0, fault, checks);
    }

    /// Netlist generation, STA and `SimGraph::new` (the gate-level
    /// set-up), then the driver pass.
    fn components(
        &self,
        log: &SpanLog,
        parent: u64,
        _obs: &Report,
        checks: &mut Checks,
        layers: &mut Layers,
    ) {
        let mut secs = Vec::new();
        for _ in 0..3 {
            let (graph, span) = log.time("des.netlist_gen", parent, || {
                let core = build_des_core(DES_STYLE);
                gm_netlist::timing::analyze(&core.netlist).expect("core validates");
                SimGraph::new(&core.netlist)
            });
            black_box(graph);
            secs.push(span.ns() as f64 / 1e9);
        }
        layers.insert("des.netlist_gen.build_s", Summary::of(&secs).median);
        let (driver, noise, events) = self.driver_pass(log, parent, false, checks);
        layers.insert("des.driver.ns_per_trace", driver);
        layers.insert("sim.noise.ns_per_trace", noise);
        layers.insert("sim.ns_per_event", driver * self.encryptions as f64 / events.max(1) as f64);
    }
}
