//! Compiled glitch schedule + 64-lane sweep executor.
//!
//! The dynamic engine ([`crate::engine`]) re-discovers the same event
//! cascade for every trace: pop, re-evaluate fan-out, push. For the
//! glitch campaigns of Table I / Fig. 15 the *topology* of that cascade
//! is fixed per trace-set — only the stimulus values and the per-event
//! jitter vary. This module exploits that:
//!
//! * [`CompiledSchedule::compile`] runs the event cascade **once** over
//!   the jitter-free base delays, recording a superset of every gate
//!   evaluation any trace can perform, linearized in base `(time, seq)`
//!   order. Compilation refuses netlists it cannot represent (clocked
//!   cores, cascades past the node cap) by returning `None`; callers
//!   then stay on the dynamic wheel wholesale.
//! * [`SchedRunner::run_pass`] sweeps that linear schedule once for up
//!   to 64 traces ("lanes") in parallel, carrying lane-word net values
//!   and drawing per-lane jitter with the same order-invariant counter
//!   hash the scalar engine uses ([`DelayModel::sample_event_ps`]).
//!
//! # Equivalence contract
//!
//! Per lane, a pass produces the **identical timed-transition multiset**
//! (time, net, value, weight) and final net values as the scalar wheel
//! run with the same trace seed — not the same emission *order*; every
//! real power sink (time-binning, counting) is order-insensitive, and
//! the property tests compare sorted streams. The contract holds because
//! jitter draws depend only on `(gate, ordinal, seed)`, so causally
//! independent events commute; where commutation could fail, the sweep
//! detects it and flags the lane **divergent**:
//!
//! * a gate observes pin events out of actual-time order (jitter
//!   reordered two arrivals across the base order), or tied between
//!   distinct gate-driven triggers (the scalar pop order of such a tie
//!   is not reconstructible from the schedule; ties between external
//!   stimulus slots are fine — slot order *is* the scalar seq order);
//! * an inertial annihilation must retract an output event that already
//!   committed with downstream consumers in the schedule.
//!
//! Divergent lanes are abandoned — their results are never emitted — and
//! the caller re-runs just those traces on the scalar wheel with the
//! same per-trace seed, which is bit-identical by construction. On the
//! bench gadget under Fig. 15 jitter (σ = 400 ps) about 2% of lanes
//! diverge, so the fallback is a small fraction of campaign time.

use crate::delay::{event_hash, quantized_gaussian, DelayModel, JitterTile};
use crate::engine::{SimGraph, JITTER_SALT_XOR, MAX_PINS};
use crate::power::LaneSink;
use gm_netlist::{Csr, GateId, NetId};
use gm_obs::{Counter, Report, Stopwatch};

/// Traces per sweep pass (one bit per lane in every net-value word).
pub const LANES: usize = 64;

/// One abandoned divergent lane, queued for deferred scalar repair:
/// everything the wheel rerun needs (the per-trace seed and the lane's
/// stimulus-slot values) plus the caller's label slot, so the repaired
/// result lands in the row the lane's label owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairTicket {
    /// Per-trace simulation seed of the abandoned lane.
    pub seed: u64,
    /// Stimulus-slot values, bit `s` = slot `s` (campaign schedules hold
    /// a handful of slots; 32 is far above any compiled plan in use).
    pub stim_bits: u32,
    /// Caller-defined output slot; the class/row encoding is the
    /// caller's own and is never interpreted here.
    pub slot: u32,
}

/// Deferred divergence-repair queue: divergent `(seed, stim, slot)`
/// tuples collected across sweep passes and drained in one batch. The
/// batching amortizes the stopwatch span over the whole drain and keeps
/// the scalar wheel's working set hot across consecutive reruns instead
/// of interleaving one cold rerun per lane into the sweep loop.
///
/// Ordering contract: [`RepairQueue::drain`] visits tickets in push
/// order, and every rerun is a pure function of its ticket (the wheel
/// is reset to the ticket's seed), so deferring repair never changes a
/// campaign's bytes — results land in the same label slots with the
/// same values an inline per-lane rerun produces.
#[derive(Debug, Default)]
pub struct RepairQueue {
    tickets: Vec<RepairTicket>,
}

impl RepairQueue {
    /// An empty queue (capacity grows on first use and is recycled).
    pub fn new() -> Self {
        RepairQueue::default()
    }

    /// Queue one divergent lane for deferred repair.
    pub fn push(&mut self, seed: u64, stim_bits: u32, slot: u32) {
        self.tickets.push(RepairTicket { seed, stim_bits, slot });
    }

    /// Tickets currently queued.
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// Whether no repair is pending.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Drain every queued ticket in push order under **one** hoisted
    /// `fallback_ns` span, calling `repair` per ticket, and account the
    /// batch in `stats` (`repair.lanes` / `repair.drains`). Returns the
    /// batch size (0 for an empty queue, which opens no span).
    pub fn drain(&mut self, stats: &mut SchedStats, mut repair: impl FnMut(RepairTicket)) -> usize {
        if self.tickets.is_empty() {
            return 0;
        }
        let span = stats.fallback_ns.span();
        let repair_span = gm_obs::trace::span("sched.repair");
        for &t in &self.tickets {
            repair(t);
        }
        drop(repair_span);
        drop(span);
        let n = self.tickets.len();
        stats.repair_drains.inc();
        stats.repair_lanes.add(n as u64);
        self.tickets.clear();
        n
    }
}

/// Compiled-cascade size cap: past this the superset cascade (deeply
/// reconvergent fan-out rings up exponentially many potential events)
/// stops paying for itself and [`CompiledSchedule::compile`] hands the
/// netlist back to the dynamic wheel.
const NODE_CAP: usize = 1 << 14;

/// Below this many toggled lanes a node visit draws jitter through the
/// scalar chain instead of the staged tile: four short stage loops cost
/// more than they save when only a couple of lanes toggle.
const TILE_MIN_DRAWS: u32 = 4;

/// Marks a stimulus node's `gate` field.
const STIM: u32 = u32::MAX;

/// Arrival-source tag ([`GateLane::src`]): no arrival seen this pass.
/// Zero so a fresh pass is one memset of the whole [`GateLane`] plane.
const NO_SRC: u16 = 0;
/// Arrival-source tag: last arrival was an external stimulus slot (any
/// slot — slot order is the scalar seq order, so stimulus ties are
/// always resolvable).
const STIM_SRC: u16 = 1;
/// Gate-trigger arrival tags start here: sweep index `k` encodes as
/// `k + SRC_BIAS` (fits `u16`: `NODE_CAP + SRC_BIAS < 65536`).
const SRC_BIAS: u16 = 2;
/// Fire-chain terminator ([`GateLane::last_node`] / `prev_fire`): zero
/// for the memset; a live node index `c` encodes as `c + 1`.
const NO_NODE: u16 = 0;

/// Per-(gate, lane) fire-side sweep state — the fields the draw/commit
/// loop reads and writes for every toggled lane. Split from
/// [`PinLane`] so the hottest loop touches an 8-byte record (one cache
/// line per eight lanes) and so the per-pass reset per plane is a
/// single zero-fill (every sentinel is 0). Times are `u32`:
/// compilation refuses schedules whose worst-case time bound
/// overflows, so in-pass actual times always fit.
#[derive(Debug, Clone, Copy, Default)]
struct GateLane {
    /// Last *scheduled* output-fire time (never reset by annihilation —
    /// scalar `out_last` parity).
    out_last: u32,
    /// Newest live fire of this gate (head of the `prev_fire` chain,
    /// node index + 1, [`NO_NODE`] when empty).
    last_node: u16,
    /// Toggling-evaluation ordinal this pass (the jitter-draw counter).
    ord: u16,
}

/// Per-(gate, lane) pin-arrival state — read only by the multi-source
/// monotonicity check, which most visits skip wholesale (`mono`), so
/// it lives apart from the fire-side [`GateLane`] plane.
#[derive(Debug, Clone, Copy, Default)]
struct PinLane {
    /// Newest pin-arrival time seen by the pin-order check.
    last_pin: u32,
    /// Source tag of that arrival ([`NO_SRC`]/[`STIM_SRC`]/`k + SRC_BIAS`).
    src: u16,
    _pad: u16,
}

/// One potential event in the compiled cascade.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Evaluated gate, or [`STIM`] for an external stimulus slot.
    gate: u32,
    /// Toggled net (gate output, or the stimulated net).
    net: u32,
    /// Triggering node (sweep index) for gate nodes; the stimulus slot
    /// index for stimulus nodes.
    trigger: u32,
    /// All the gate's pins hang off one source (single distinct input
    /// net): arrivals are monotone by construction — a driver's fires
    /// strictly increase in actual time and sweep in fire order — so the
    /// per-lane pin-order check is skipped wholesale.
    mono: bool,
    /// Jitter-free base time: the sweep ordering key (also the exact
    /// per-lane time for stimulus nodes — external edges carry no
    /// jitter).
    time: u64,
    /// Worst-case actual event time (base cascade + truncated-jitter
    /// ceiling + driver-edge clamps): when `wmax <= t_end` the whole
    /// lane-word commits without a per-lane window check.
    wmax: u64,
}

/// The per-trace-set static schedule: every gate evaluation any trace
/// can perform, in jitter-free `(time, seq)` order, with its trigger
/// edges. Immutable — build once per (netlist, stimulus plan), share
/// across worker threads (e.g. behind an `Arc`).
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    nodes: Vec<Node>,
    /// node -> dependent gate evaluations.
    children: Csr,
    num_stims: usize,
    /// Gates the cascade evaluates, with their visit counts: the
    /// runner's per-pass reset list (only these gates' lane state is
    /// ever read) and the bound on per-lane jitter ordinals.
    visited_gates: Vec<(u32, u32)>,
    /// Total gate visits of one pass (upper bound on per-lane jitter
    /// draws).
    num_slots: u32,
}

impl CompiledSchedule {
    /// Compile the cascade for `stims` (net, time) stimulus slots over
    /// the base delays of `delays`.
    ///
    /// Returns `None` — caller stays on the scalar wheel — when the
    /// netlist is clocked (flip-flop updates are the clocked harness's
    /// business), a stimulated net is gate-driven, or the cascade
    /// exceeds the node cap.
    pub fn compile(
        graph: &SimGraph,
        delays: &DelayModel,
        stims: &[(NetId, u64)],
    ) -> Option<CompiledSchedule> {
        if !graph.ff_gates.is_empty() || stims.is_empty() {
            return None;
        }
        for &(net, _) in stims {
            if graph.driver_gate[net.index()] != u32::MAX {
                return None;
            }
        }
        // Superset cascade over base delays: the dynamic engine's pop
        // loop with no values — every consumer evaluation is assumed to
        // potentially toggle.
        let mut gate: Vec<u32> = Vec::new();
        let mut net: Vec<u32> = Vec::new();
        let mut trigger: Vec<u32> = Vec::new();
        let mut time: Vec<u64> = Vec::new();
        let mut wmax: Vec<u64> = Vec::new();
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
            std::collections::BinaryHeap::new();
        for (s, &(n, t)) in stims.iter().enumerate() {
            gate.push(STIM);
            net.push(n.0);
            trigger.push(s as u32);
            time.push(t);
            wmax.push(t);
            heap.push(std::cmp::Reverse((t, s as u32)));
        }
        // Worst-case actual delay per gate: base (process-varied) plus
        // the jitter truncation ceiling (the quantile table never leaves
        // ±3.54σ; 3.6 adds rounding slack).
        let sigma = delays.jitter_sigma_ps();
        let wc_delay =
            |g: u32| -> u64 { (delays.base_ps(GateId(g)) + 3.6 * sigma).max(1.0).ceil() as u64 };
        // Running worst-case fire time per gate: mirrors the runner's
        // `t = max(t_trigger + d, out_last + 1)` clamp over maxima.
        let mut gmax: Vec<u64> = vec![0; graph.num_gates()];
        let mut order: Vec<u32> = Vec::new();
        while let Some(std::cmp::Reverse((t, j))) = heap.pop() {
            order.push(j);
            for &g in graph.consumers.row(net[j as usize] as usize) {
                if gate.len() >= NODE_CAP {
                    return None;
                }
                let k = gate.len() as u32;
                gate.push(g);
                net.push(graph.gates[g as usize].out);
                trigger.push(j);
                time.push(t + delays.base_fixed_of(GateId(g)).max(1));
                let gm = &mut gmax[g as usize];
                *gm = (wmax[j as usize] + wc_delay(g)).max(*gm + 1);
                wmax.push(*gm);
                heap.push(std::cmp::Reverse((time[k as usize], k)));
            }
        }
        // Gates whose pins all hang off one input net see arrivals in
        // monotone actual-time order by construction (a single driver's
        // fires strictly increase and sweep in fire order; stimulus slots
        // sweep in scalar seq order), so the runner skips the per-lane
        // pin-order check for them.
        let mono_of: Vec<bool> = (0..graph.num_gates())
            .map(|g| {
                let row = graph.gates[g].pins();
                row.windows(2).all(|w| w[0] == w[1])
            })
            .collect();
        // The runner keeps in-pass times as u32 (see [`GateLane`]): a
        // schedule whose worst-case bound could overflow — stimulus
        // times past ~4.29 ms, far beyond any glitch window — stays on
        // the scalar wheel.
        if wmax.iter().any(|&w| w >= u32::MAX as u64) {
            return None;
        }
        // Renumber into sweep (pop) order so the runner walks `nodes`
        // linearly. The heap tie-break by creation index keeps a gate's
        // own evaluations in trigger order and puts stimulus slots —
        // created first — ahead of gate events at equal times, exactly
        // like the scalar engine's `(time, seq)` pops.
        let mut sweep_of = vec![0u32; gate.len()];
        for (sweep, &creation) in order.iter().enumerate() {
            sweep_of[creation as usize] = sweep as u32;
        }
        let mut nodes = Vec::with_capacity(order.len());
        for &creation in &order {
            let c = creation as usize;
            let trig = if gate[c] == STIM { trigger[c] } else { sweep_of[trigger[c] as usize] };
            let mono = gate[c] == STIM || mono_of[gate[c] as usize];
            nodes.push(Node {
                gate: gate[c],
                net: net[c],
                trigger: trig,
                mono,
                time: time[c],
                wmax: wmax[c],
            });
        }
        let mut child_pairs: Vec<(u32, u32)> = Vec::with_capacity(nodes.len());
        for (k, node) in nodes.iter().enumerate() {
            if node.gate != STIM {
                child_pairs.push((node.trigger, k as u32));
            }
        }
        child_pairs.sort_unstable();
        let children = Csr::from_pairs(nodes.len(), &child_pairs);
        // Visited-gate census: the per-lane jitter ordinal advances at
        // most once per visit, so a gate visited `v` times never draws
        // past ordinal `v - 1`, and only these gates' lane state needs
        // resetting between passes.
        let mut visits = vec![0u32; graph.num_gates()];
        for node in &nodes {
            if node.gate != STIM {
                visits[node.gate as usize] += 1;
            }
        }
        let mut visited_gates = Vec::new();
        let mut num_slots = 0u32;
        for (g, &v) in visits.iter().enumerate() {
            if v > 0 {
                visited_gates.push((g as u32, v));
                num_slots += v;
            }
        }
        Some(CompiledSchedule { nodes, children, num_stims: stims.len(), visited_gates, num_slots })
    }

    /// Number of potential events per sweep (stimulus slots included).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of external stimulus slots.
    pub fn num_stims(&self) -> usize {
        self.num_stims
    }

    /// Total gate visits of one sweep — the upper bound on per-lane
    /// jitter draws (0 means no gate is ever evaluated).
    pub fn num_jitter_slots(&self) -> usize {
        self.num_slots as usize
    }
}

/// Sweep counters of a [`SchedRunner`] (zero-sized under `obs-off`).
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Sweep passes executed.
    pub passes: Counter,
    /// Schedule nodes swept (nodes × passes).
    pub nodes_swept: Counter,
    /// Traces entered into lanes.
    pub lanes: Counter,
    /// Lanes abandoned to the scalar fallback.
    pub fallback_lanes: Counter,
    /// Time inside [`SchedRunner::run_pass`].
    pub pass_ns: Stopwatch,
    /// Caller-reported time re-running divergent lanes on the wheel
    /// (public so trace sources can wrap their fallback loop in
    /// `stats.fallback_ns.span()`).
    pub fallback_ns: Stopwatch,
    /// Jitter draws taken through the staged tile sampler (every draw
    /// is consumed, nothing is over-drawn).
    pub jitter_batched: Counter,
    /// Jitter draws taken scalar inside the sweep loop (jitter-free
    /// model, or too few toggled lanes for a tile to pay).
    pub jitter_scalar: Counter,
    /// Divergent lanes repaired through a deferred [`RepairQueue`]
    /// drain (inline fallbacks count only in `fallback_lanes`).
    pub repair_lanes: Counter,
    /// Batched drains of the repair queue; `repair_lanes / repair_drains`
    /// is the realized batch size.
    pub repair_drains: Counter,
}

impl SchedStats {
    /// Export under `<prefix>.*` (canonically `sim.sched.*`).
    pub fn report_into(&self, prefix: &str, r: &mut Report) {
        r.set_nonzero(&format!("{prefix}.passes"), self.passes.get());
        r.set_nonzero(&format!("{prefix}.nodes_swept"), self.nodes_swept.get());
        r.set_nonzero(&format!("{prefix}.lanes"), self.lanes.get());
        r.set_nonzero(&format!("{prefix}.fallback_lanes"), self.fallback_lanes.get());
        r.set_nonzero(&format!("{prefix}.pass_ns"), self.pass_ns.ns());
        r.set_nonzero(&format!("{prefix}.fallback_ns"), self.fallback_ns.ns());
        r.set_nonzero(&format!("{prefix}.jitter.batched"), self.jitter_batched.get());
        r.set_nonzero(&format!("{prefix}.jitter.scalar"), self.jitter_scalar.get());
        r.set_nonzero(&format!("{prefix}.repair.lanes"), self.repair_lanes.get());
        r.set_nonzero(&format!("{prefix}.repair.drains"), self.repair_drains.get());
        // The drain span feeds `fallback_ns`, exported above; mirror it
        // under the repair prefix so the floor reads off one namespace.
        r.set_nonzero(&format!("{prefix}.repair.ns"), self.fallback_ns.ns());
    }
}

/// Reusable 64-lane sweep state over some [`CompiledSchedule`]. One per
/// worker thread; arrays are sized on first use and recycled across
/// passes without reallocation.
#[derive(Debug)]
pub struct SchedRunner {
    // Per (node, lane): actual event time.
    node_time: Vec<u64>,
    // Per (node, lane): previous live fire of the same gate (node index
    // + 1, [`NO_NODE`] at the chain end) — the compiled stand-in for
    // "events of this driver still in the queue", which scalar
    // annihilation kills wholesale via its version bump.
    prev_fire: Vec<u16>,
    // Per node (lane masks):
    fired: Vec<u64>,
    cancelled: Vec<u64>,
    applied: Vec<u64>,
    node_value: Vec<u64>,
    // Per net: lane-word values.
    values: Vec<u64>,
    // Per gate: lane-word last *scheduled* output values.
    out_sched: Vec<u64>,
    // Per (gate, lane): interleaved sweep state.
    glanes: Vec<GateLane>,
    // Stage scratch of the batched jitter sampler (persistent so the
    // buffers stay cache-hot across node visits).
    tile: JitterTile,
    // Deferred candidate times of inertially-rejected lanes (persistent
    // scratch: a visit writes `tarr[l]` before phase 3 reads it, only
    // for lanes in that visit's `rej` mask — stale entries are dead).
    tarr: [u64; LANES],
    salts: [u64; LANES],
    // Per (gate, lane): pin-arrival state of the monotonicity check.
    planes_pin: Vec<PinLane>,
    /// Sweep counters; `stats.fallback_ns` is the caller's to feed.
    pub stats: SchedStats,
}

impl Default for SchedRunner {
    fn default() -> Self {
        SchedRunner {
            node_time: Vec::new(),
            prev_fire: Vec::new(),
            fired: Vec::new(),
            cancelled: Vec::new(),
            applied: Vec::new(),
            node_value: Vec::new(),
            values: Vec::new(),
            out_sched: Vec::new(),
            glanes: Vec::new(),
            tile: JitterTile::new(),
            tarr: [0; LANES],
            salts: [0; LANES],
            planes_pin: Vec::new(),
            stats: SchedStats::default(),
        }
    }
}

impl SchedRunner {
    /// A fresh runner (arrays grow on first [`SchedRunner::run_pass`]).
    pub fn new() -> Self {
        SchedRunner::default()
    }

    /// Export sweep counters under `<prefix>.*`.
    pub fn obs_report(&self, prefix: &str, r: &mut Report) {
        self.stats.report_into(prefix, r);
    }

    /// Post-pass lane values of `net` (bit `l` = lane `l`; meaningful
    /// only for lanes outside the returned divergent mask).
    pub fn value(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    fn ensure_capacity(&mut self, sched: &CompiledSchedule, graph: &SimGraph) {
        let nn = sched.nodes.len();
        if self.node_time.len() < nn * LANES {
            self.node_time.resize(nn * LANES, 0);
            self.prev_fire.resize(nn * LANES, 0);
            self.fired.resize(nn, 0);
            self.cancelled.resize(nn, 0);
            self.applied.resize(nn, 0);
            self.node_value.resize(nn, 0);
        }
        let ng = graph.num_gates();
        if self.glanes.len() < ng * LANES {
            self.out_sched.resize(ng, 0);
            self.glanes.resize(ng * LANES, GateLane::default());
            self.planes_pin.resize(ng * LANES, PinLane::default());
        }
        if self.values.len() < graph.num_nets() {
            self.values.resize(graph.num_nets(), 0);
        }
    }

    /// Sweep the compiled schedule once for `seeds.len()` (≤ 64) traces.
    ///
    /// `stim_values[s]` carries the per-lane value of stimulus slot `s`
    /// (bit `l` = lane `l`); `weights` is the per-net toggle weight
    /// table (a campaign passes its possibly overridden copy of the
    /// graph weights). Applied transitions are delivered to `sink` per
    /// node after the sweep, masked to the non-divergent lanes.
    ///
    /// Returns the divergent-lane mask: those traces were **not**
    /// simulated (no transitions emitted for them) and must be re-run on
    /// the scalar wheel with the same per-trace seed.
    #[allow(clippy::too_many_arguments)]
    pub fn run_pass(
        &mut self,
        sched: &CompiledSchedule,
        graph: &SimGraph,
        delays: &DelayModel,
        weights: &[f64],
        seeds: &[u64],
        stim_values: &[u64],
        t_end_ps: u64,
        sink: &mut impl LaneSink,
    ) -> u64 {
        assert!(!seeds.is_empty() && seeds.len() <= LANES, "1..=64 lanes per pass");
        assert_eq!(stim_values.len(), sched.num_stims);
        self.ensure_capacity(sched, graph);
        let span = self.stats.pass_ns.span();
        let _sweep_span = gm_obs::trace::span("sched.sweep");
        let lane_mask = if seeds.len() == LANES { !0u64 } else { (1u64 << seeds.len()) - 1 };
        for (l, &s) in seeds.iter().enumerate() {
            self.salts[l] = s ^ JITTER_SALT_XOR;
        }
        let nn = sched.nodes.len();
        self.fired[..nn].fill(0);
        self.cancelled[..nn].fill(0);
        self.applied[..nn].fill(0);
        self.node_value[..nn].fill(0);
        for (v, &b) in self.values.iter_mut().zip(graph.baseline_values.iter()) {
            *v = if b { !0 } else { 0 };
        }
        for (v, &b) in self.out_sched.iter_mut().zip(graph.baseline_out_sched.iter()) {
            *v = if b { !0 } else { 0 };
        }
        // Per-gate lane state is reset only for gates the schedule can
        // visit — no other gate's [`GateLane`] is ever read in a pass —
        // so the reset cost tracks the cascade, not the netlist.
        for &(g, _) in &sched.visited_gates {
            let gl = g as usize * LANES;
            self.glanes[gl..gl + LANES].fill(GateLane::default());
            self.planes_pin[gl..gl + LANES].fill(PinLane::default());
        }
        // Per-visit staged tile draws: a jittered node visit that
        // toggles enough lanes compacts them into the runner's
        // [`JitterTile`] and draws all of them through the batched
        // sampler, which is bit-identical to the in-loop scalar chain.
        // Unlike a whole-pass pre-drawn plane this never over-draws: the
        // superset schedule visits gates ~3× more often than lanes
        // actually toggle.
        let use_tile = delays.jitter_sigma_ps() > 0.0;
        let mut batched_draws = 0u64;
        let mut scalar_draws = 0u64;
        let mut divergent = 0u64;

        for k in 0..nn {
            let node = sched.nodes[k];
            let net = node.net as usize;
            // Commit: apply the node's value change in the lanes where
            // it fired, was not annihilated, lands inside the window,
            // and actually changes the net (stimulus slots can be
            // redundant, exactly like the scalar engine's silent drop).
            let commit = if node.gate == STIM {
                let vals = stim_values[node.trigger as usize];
                self.node_value[k] = vals;
                if node.time <= t_end_ps {
                    self.node_time[k * LANES..(k + 1) * LANES].fill(node.time);
                    lane_mask & !divergent & (self.values[net] ^ vals)
                } else {
                    0
                }
            } else {
                let mut m = self.fired[k] & !self.cancelled[k] & !divergent;
                // Per-lane window check (actual times carry jitter) —
                // skipped when the compile-time worst case already fits.
                if m != 0 && node.wmax > t_end_ps {
                    let mut inside = 0u64;
                    let times = &self.node_time[k * LANES..(k + 1) * LANES];
                    let mut b = m;
                    while b != 0 {
                        let l = b.trailing_zeros() as usize;
                        b &= b - 1;
                        inside |= ((times[l] <= t_end_ps) as u64) << l;
                    }
                    m &= inside;
                }
                m
            };
            self.applied[k] = commit;
            if commit == 0 {
                continue;
            }
            self.values[net] = (self.values[net] & !commit) | (self.node_value[k] & commit);

            // Arrival-source tag for the pin-order check below: stimulus
            // slots collapse to one tag (slot order *is* the scalar seq
            // order, so stimulus ties are always fine).
            let idx_enc = if node.gate == STIM { STIM_SRC } else { k as u16 + SRC_BIAS };

            // Evaluate dependent gates at commit, like the scalar
            // engine's consumer loop at pop.
            for &c_u in sched.children.row(k) {
                let c = c_u as usize;
                let cn = sched.nodes[c];
                let g = cn.gate as usize;
                let gnet = cn.net as usize;
                let gl = g * LANES;
                // A child always schedules strictly later than its
                // trigger, so `k < c` in sweep order and the split
                // below is safe.
                let (head, tail) = self.node_time.split_at_mut(c * LANES);
                let times: &[u64] = &head[k * LANES..k * LANES + LANES];
                let ctimes: &mut [u64] = &mut tail[..LANES];

                // Pin-arrival monotonicity per lane: an older-than-seen
                // arrival, or a tie between gate-driven triggers, means
                // the base order lied for this lane — divergent.
                // Single-source gates are monotone by construction and
                // skip the check (and the lane loop) wholesale.
                let eval = if cn.mono {
                    commit
                } else {
                    let pls = &mut self.planes_pin[gl..gl + LANES];
                    let mut viol = 0u64;
                    // Iterate the committed lanes only (typically a
                    // fraction of 64): inactive lanes keep their state
                    // untouched either way.
                    let mut b = commit;
                    while b != 0 {
                        let l = b.trailing_zeros() as usize;
                        b &= b - 1;
                        let ple = &mut pls[l];
                        let t = times[l] as u32;
                        let src = ple.src;
                        let lpl = ple.last_pin;
                        // Tie (`t == lpl`): fine from the same trigger
                        // and fine after a stimulus slot.
                        if src != NO_SRC
                            && (t < lpl || (t == lpl && src != idx_enc && src != STIM_SRC))
                        {
                            viol |= 1u64 << l;
                        } else {
                            ple.last_pin = t;
                            ple.src = idx_enc;
                        }
                    }
                    divergent |= viol;
                    commit & !viol
                };
                if eval == 0 {
                    continue;
                }

                // Lane-parallel truth-table evaluation.
                let rec = &graph.gates[g];
                let row = rec.pins();
                let mut pv = [0u64; MAX_PINS];
                for (p, &pn) in row.iter().enumerate() {
                    pv[p] = self.values[pn as usize];
                }
                let truth = rec.truth;
                let mut out = 0u64;
                for idx in 0..1u16 << row.len() {
                    // Skip zero minterms outright: the truth pattern
                    // repeats every visit of the same gate, so the
                    // branch predicts — and it halves the AND-chains
                    // for AND-like cells.
                    if truth >> idx & 1 == 0 {
                        continue;
                    }
                    let mut m = !0u64;
                    for (p, &v) in pv.iter().enumerate().take(row.len()) {
                        m &= if idx >> p & 1 != 0 { v } else { !v };
                    }
                    out |= m;
                }
                self.node_value[c] = out;
                let toggle = (out ^ self.out_sched[g]) & eval;
                if toggle == 0 {
                    continue;
                }

                // Phases 1+2 merged — per-lane jitter draw, candidate
                // time, inertial check, and plain-fire commit in one
                // walk over the toggled lanes: this loop is the single
                // hottest code in a glitch campaign. When enough lanes
                // toggle the draws go through the staged tile sampler
                // (hash/convert/lerp pipelines batched so they
                // autovectorize); the in-loop chain survives as the
                // exact fallback, replicating
                // `DelayModel::sample_event_ps` with the per-gate
                // pieces hoisted out of the loop.
                let gid = GateId(g as u32);
                let reject = delays.pulse_reject_of(gid);
                let base = delays.base_ps(gid);
                let base_fixed = delays.base_fixed_of(gid);
                let sigma = delays.jitter_sigma_ps();
                let cl = c * LANES;
                let c_enc = c as u16 + 1;
                let mut rej = 0u64;
                let mut ok = 0u64;
                let nt = toggle.count_ones();
                if use_tile && nt >= TILE_MIN_DRAWS {
                    // Compact the toggled lanes into the tile, draw the
                    // whole visit in one batched call, then do the
                    // bookkeeping over the compacted list.
                    let mut lanes = [0u8; LANES];
                    {
                        let gls = &self.glanes[gl..gl + LANES];
                        let mut b = toggle;
                        let mut j = 0usize;
                        while b != 0 {
                            let l = b.trailing_zeros() as usize;
                            b &= b - 1;
                            lanes[j] = l as u8;
                            self.tile.salt[j] = self.salts[l];
                            self.tile.ord[j] = gls[l].ord as u32;
                            j += 1;
                        }
                    }
                    {
                        let _jitter_span = gm_obs::trace::span("sched.jitter");
                        delays.sample_event_tile(gid, nt as usize, &mut self.tile);
                    }
                    batched_draws += nt as u64;
                    let gls = &mut self.glanes[gl..gl + LANES];
                    for (&lb, &d) in lanes[..nt as usize].iter().zip(&self.tile.d) {
                        let l = lb as usize;
                        let gle = &mut gls[l];
                        // The ordinal advances for every toggling
                        // evaluation, annihilated or not — exactly like
                        // the scalar engine.
                        gle.ord += 1;
                        let tj = times[l];
                        let ol = gle.out_last as u64;
                        let t = (tj + d).max(ol + 1);
                        if ol > tj && t - ol < reject {
                            // Rare inertial rejection: defer to phase 3.
                            self.tarr[l] = t;
                            rej |= 1u64 << l;
                        } else {
                            ok |= 1u64 << l;
                            ctimes[l] = t;
                            self.prev_fire[cl + l] = gle.last_node;
                            gle.out_last = t as u32;
                            gle.last_node = c_enc;
                        }
                    }
                } else {
                    let gls = &mut self.glanes[gl..gl + LANES];
                    let mut b = toggle;
                    while b != 0 {
                        let l = b.trailing_zeros() as usize;
                        b &= b - 1;
                        let gle = &mut gls[l];
                        let d = if sigma > 0.0 {
                            scalar_draws += 1;
                            let q = quantized_gaussian(event_hash(
                                self.salts[l],
                                g as u32,
                                gle.ord as u32,
                            ));
                            (base + q * sigma).max(1.0) as u64
                        } else {
                            base_fixed
                        };
                        gle.ord += 1;
                        let tj = times[l];
                        let ol = gle.out_last as u64;
                        let t = (tj + d).max(ol + 1);
                        if ol > tj && t - ol < reject {
                            self.tarr[l] = t;
                            rej |= 1u64 << l;
                        } else {
                            ok |= 1u64 << l;
                            ctimes[l] = t;
                            self.prev_fire[cl + l] = gle.last_node;
                            gle.out_last = t as u32;
                            gle.last_node = c_enc;
                        }
                    }
                }
                if ok != 0 {
                    self.fired[c] |= ok;
                    self.out_sched[g] = (self.out_sched[g] & !ok) | (out & ok);
                }

                // Phase 3 — rare inertial annihilations, lane by lane.
                let mut b = rej;
                while b != 0 {
                    let l = b.trailing_zeros() as usize;
                    b &= b - 1;
                    let bit = 1u64 << l;
                    let tj = times[l];
                    let t = self.tarr[l];
                    let out_bit = out >> l & 1 != 0;
                    // Scalar annihilation is a version bump: every
                    // event of this driver still in flight at `tj`
                    // (actual time > `tj`) dies at once, and
                    // out_sched falls back to the net's value *at
                    // tj*. Walk the live fire chain back to that
                    // point, retracting the killed fires. A fire
                    // that already committed in sweep order is
                    // retractable only if nothing downstream could
                    // have observed it (no dependent evaluations in
                    // the schedule); a fire tied exactly at `tj` has
                    // unknowable pop order — both flag the lane
                    // divergent.
                    let mut q = self.glanes[gl + l].last_node;
                    let mut bad = false;
                    let v = loop {
                        if q == NO_NODE {
                            break graph.baseline_values[gnet];
                        }
                        let qi = q as usize - 1;
                        let qt = head[qi * LANES + l];
                        if qt < tj {
                            break self.node_value[qi] >> l & 1 != 0;
                        }
                        if qt == tj {
                            bad = true;
                            break false;
                        }
                        if self.applied[qi] & bit != 0 {
                            if !sched.children.row(qi).is_empty() {
                                bad = true;
                                break false;
                            }
                            self.values[gnet] ^= bit;
                            self.applied[qi] &= !bit;
                        } else {
                            self.cancelled[qi] |= bit;
                        }
                        q = self.prev_fire[qi * LANES + l];
                    };
                    if bad {
                        divergent |= bit;
                        continue;
                    }
                    self.glanes[gl + l].last_node = q;
                    self.out_sched[g] = (self.out_sched[g] & !bit) | if v { bit } else { 0 };
                    if out_bit != v {
                        self.fired[c] |= bit;
                        ctimes[l] = t;
                        self.prev_fire[c * LANES + l] = q;
                        self.out_sched[g] =
                            (self.out_sched[g] & !bit) | if out_bit { bit } else { 0 };
                        let gle = &mut self.glanes[gl + l];
                        gle.out_last = t as u32;
                        gle.last_node = c as u16 + 1;
                    }
                }
            }
        }

        // Deferred emission: only now are annihilations settled, so
        // `applied` is final. Masked to non-divergent lanes — abandoned
        // lanes leak nothing into the sinks.
        let live = lane_mask & !divergent;
        for k in 0..nn {
            let m = self.applied[k] & live;
            if m != 0 {
                let net = sched.nodes[k].net as usize;
                sink.transitions(
                    NetId(net as u32),
                    weights[net],
                    m,
                    self.node_value[k],
                    &self.node_time[k * LANES..(k + 1) * LANES],
                );
            }
        }

        drop(span);
        self.stats.passes.inc();
        self.stats.nodes_swept.add(nn as u64);
        self.stats.lanes.add(seeds.len() as u64);
        self.stats.jitter_batched.add(batched_draws);
        self.stats.jitter_scalar.add(scalar_draws);
        divergent &= lane_mask;
        self.stats.fallback_lanes.add(divergent.count_ones() as u64);
        divergent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::LaneCounting;
    use crate::{PowerSink, SimCore, Simulator};
    use gm_netlist::Netlist;

    /// The golden hazard circuit: y = (a & b) ^ buf(buf(a | b)).
    fn hazard() -> (Netlist, [NetId; 2]) {
        let mut n = Netlist::new("hz");
        let a = n.input("a");
        let b = n.input("b");
        let p = n.and2(a, b);
        let q0 = n.or2(a, b);
        let q1 = n.buf(q0);
        let q = n.buf(q1);
        let y = n.xor2(p, q);
        n.output("y", y);
        n.validate().unwrap();
        (n, [a, b])
    }

    /// Scalar reference: sorted multiset of (time, net, value, weight
    /// bits) plus final net values.
    type Multiset = Vec<(u64, u32, bool, u64)>;

    fn scalar_multiset(
        graph: &SimGraph,
        delays: &DelayModel,
        stims: &[(NetId, u64)],
        vals: &[bool],
        seed: u64,
        t_end: u64,
    ) -> (Multiset, Vec<bool>) {
        struct Rec(Multiset);
        impl PowerSink for Rec {
            fn transition(&mut self, t: u64, net: NetId, v: bool, w: f64) {
                self.0.push((t, net.0, v, w.to_bits()));
            }
        }
        let mut sim = SimCore::new(graph, seed);
        for (&(net, t), &v) in stims.iter().zip(vals) {
            sim.schedule(net, t, v);
        }
        let mut rec = Rec(Vec::new());
        sim.run_until(graph, delays, t_end, &mut rec);
        rec.0.sort_unstable();
        let finals = (0..graph.num_nets()).map(|i| sim.value(NetId(i as u32))).collect();
        (rec.0, finals)
    }

    /// Lane sink recording full transitions for comparison.
    struct LaneRec(Vec<Vec<(u64, u32, bool, u64)>>);
    impl LaneRec {
        fn new() -> Self {
            LaneRec(vec![Vec::new(); LANES])
        }
    }
    impl LaneSink for LaneRec {
        fn transitions(&mut self, net: NetId, w: f64, applied: u64, values: u64, times: &[u64]) {
            let mut m = applied;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                self.0[l].push((times[l], net.0, values >> l & 1 != 0, w.to_bits()));
            }
        }
    }

    /// Every non-divergent lane's transition multiset and final values
    /// match the scalar wheel bit-for-bit, jitter included.
    #[test]
    fn lanes_match_scalar_wheel() {
        let (n, ins) = hazard();
        let graph = SimGraph::new(&n);
        for sigma in [0.0, 60.0, 400.0] {
            let delays = DelayModel::with_variation(&n, 0.4, sigma, 0xfeed);
            let stims: Vec<(NetId, u64)> = vec![(ins[0], 1_000), (ins[1], 1_400)];
            let sched = CompiledSchedule::compile(&graph, &delays, &stims)
                .expect("combinational cascade compiles");
            let t_end = 60_000u64;
            let mut runner = SchedRunner::new();
            let seeds: Vec<u64> = (0..LANES as u64).map(|l| l * 77 + 3).collect();
            // Lane l stimulus values cycle over all (a, b) combinations.
            let mut stim_vals = [0u64; 2];
            for l in 0..LANES {
                if l & 1 != 0 {
                    stim_vals[0] |= 1 << l;
                }
                if l & 2 != 0 {
                    stim_vals[1] |= 1 << l;
                }
            }
            let mut rec = LaneRec::new();
            let div = runner.run_pass(
                &sched,
                &graph,
                &delays,
                &graph.weights,
                &seeds,
                &stim_vals,
                t_end,
                &mut rec,
            );
            for (l, &lane_seed) in seeds.iter().enumerate() {
                if div >> l & 1 != 0 {
                    continue; // abandoned; caller would rerun on the wheel
                }
                let vals = [stim_vals[0] >> l & 1 != 0, stim_vals[1] >> l & 1 != 0];
                let (want, want_finals) =
                    scalar_multiset(&graph, &delays, &stims, &vals, lane_seed, t_end);
                let mut got = rec.0[l].clone();
                got.sort_unstable();
                assert_eq!(got, want, "lane {l} sigma {sigma}");
                for (i, &wv) in want_finals.iter().enumerate() {
                    assert_eq!(
                        runner.value(NetId(i as u32)) >> l & 1 != 0,
                        wv,
                        "final net {i} lane {l} sigma {sigma}"
                    );
                }
            }
            // The schedule must do real work. σ = 400 ps dwarfs this toy
            // circuit's 200–500 ps base delays, so genuine reorders are
            // common there (campaign gadgets run ~1 ns LUTs, where the
            // divergence rate is well under 1%); moderate jitter must
            // stay almost fully compiled.
            let cap = if sigma > 100.0 { 32 } else { 8 };
            assert!(div.count_ones() < cap, "sigma {sigma}: divergent mask {div:#x}");
            // Jittered passes draw through the staged tile, so the
            // wheel comparison above pins the tile sampler too.
            #[cfg(not(feature = "obs-off"))]
            assert_eq!(runner.stats.jitter_batched.get() > 0, sigma > 0.0, "sigma {sigma}");
        }
    }

    /// The window truncates compiled passes exactly like the wheel.
    #[test]
    fn window_truncation_matches() {
        let (n, ins) = hazard();
        let graph = SimGraph::new(&n);
        let delays = DelayModel::with_variation(&n, 0.3, 80.0, 9);
        let stims: Vec<(NetId, u64)> = vec![(ins[0], 500), (ins[1], 900)];
        let sched = CompiledSchedule::compile(&graph, &delays, &stims).unwrap();
        // Cut mid-cascade: base depth is ~3 gates × ~1 ns.
        for t_end in [1_000u64, 2_500, 4_000] {
            let mut runner = SchedRunner::new();
            let seeds = [11u64, 22, 33];
            let stim_vals = [0b111u64, 0b101];
            let mut rec = LaneRec::new();
            let div = runner.run_pass(
                &sched,
                &graph,
                &delays,
                &graph.weights,
                &seeds,
                &stim_vals,
                t_end,
                &mut rec,
            );
            for (l, &seed) in seeds.iter().enumerate() {
                if div >> l & 1 != 0 {
                    continue;
                }
                let vals = [stim_vals[0] >> l & 1 != 0, stim_vals[1] >> l & 1 != 0];
                let (want, _) = scalar_multiset(&graph, &delays, &stims, &vals, seed, t_end);
                let mut got = rec.0[l].clone();
                got.sort_unstable();
                assert_eq!(got, want, "lane {l} t_end {t_end}");
            }
        }
    }

    /// Inertial annihilation survives compilation: a narrow input pulse
    /// dies inside a delay buffer in compiled lanes exactly as on the
    /// wheel.
    #[test]
    fn annihilation_matches_scalar() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let buf = n.delay_buf(a);
        n.output("o", buf);
        n.validate().unwrap();
        let graph = SimGraph::new(&n);
        let delays = DelayModel::nominal(&n);
        // Slot plan: up at 100, down at 110 (narrow pulse), up at 50 000.
        let stims: Vec<(NetId, u64)> = vec![(a, 100), (a, 110), (a, 50_000)];
        let sched = CompiledSchedule::compile(&graph, &delays, &stims).unwrap();
        let mut runner = SchedRunner::new();
        let seeds = [7u64, 8];
        // Lane 0 runs the full pulse plan; lane 1 holds a at 1 from
        // t=100 on (slots 1 and 2 redundant), so no pulse exists.
        let stim_vals = [0b11u64, 0b10, 0b11];
        let mut counting = LaneCounting::default();
        let div = runner.run_pass(
            &sched,
            &graph,
            &delays,
            &graph.weights,
            &seeds,
            &stim_vals,
            100_000,
            &mut counting,
        );
        assert_eq!(div, 0);
        // Lane 0: a up/down/up + buf up = 4 (pulse annihilated in buf).
        assert_eq!(counting.count[0], 4);
        // Lane 1: a up + buf up = 2.
        assert_eq!(counting.count[1], 2);
        assert_eq!(runner.value(buf), 0b11);
    }

    /// Clocked netlists and gate-driven stimulus nets refuse to compile.
    #[test]
    fn compile_guards() {
        let mut n2 = Netlist::new("t2");
        let a = n2.input("a");
        let b = n2.buf(a);
        let y = n2.inv(b);
        n2.output("y", y);
        n2.validate().unwrap();
        let graph2 = SimGraph::new(&n2);
        let delays2 = DelayModel::nominal(&n2);
        assert!(
            CompiledSchedule::compile(&graph2, &delays2, &[(b, 100)]).is_none(),
            "gate-driven stimulus net must refuse"
        );
        assert!(CompiledSchedule::compile(&graph2, &delays2, &[]).is_none());
        let ok = CompiledSchedule::compile(&graph2, &delays2, &[(a, 100)]).unwrap();
        // a -> buf -> inv: stimulus + two gate evaluations.
        assert_eq!(ok.num_nodes(), 3);
        assert_eq!(ok.num_stims(), 1);
    }

    /// Sweep counters reconcile with the work done.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn stats_reconcile() {
        let (n, ins) = hazard();
        let graph = SimGraph::new(&n);
        let delays = DelayModel::nominal(&n);
        let stims: Vec<(NetId, u64)> = vec![(ins[0], 1_000), (ins[1], 1_000)];
        let sched = CompiledSchedule::compile(&graph, &delays, &stims).unwrap();
        let mut runner = SchedRunner::new();
        let mut counting = LaneCounting::default();
        for pass in 0..3u64 {
            let seeds = [pass + 1, pass + 2];
            runner.run_pass(
                &sched,
                &graph,
                &delays,
                &graph.weights,
                &seeds,
                &[!0u64, !0u64],
                50_000,
                &mut counting,
            );
        }
        assert_eq!(runner.stats.passes.get(), 3);
        assert_eq!(runner.stats.nodes_swept.get(), 3 * sched.num_nodes() as u64);
        assert_eq!(runner.stats.lanes.get(), 6);
        let mut r = Report::new();
        runner.obs_report("sim.sched", &mut r);
        assert_eq!(r.get("sim.sched.passes"), Some(3));
    }

    /// A compiled pass agrees with a Simulator on the same seed (the
    /// runner shares nothing mutable with the scalar path).
    #[test]
    fn coexists_with_scalar() {
        let (n, ins) = hazard();
        let graph = SimGraph::new(&n);
        let delays = DelayModel::with_variation(&n, 0.2, 30.0, 4);
        let stims: Vec<(NetId, u64)> = vec![(ins[0], 1_000), (ins[1], 1_000)];
        let sched = CompiledSchedule::compile(&graph, &delays, &stims).unwrap();
        let mut runner = SchedRunner::new();
        let mut counting = LaneCounting::default();
        let div = runner.run_pass(
            &sched,
            &graph,
            &delays,
            &graph.weights,
            &[5],
            &[!0u64, !0u64],
            50_000,
            &mut counting,
        );
        assert_eq!(div, 0);
        let mut sim = Simulator::with_graph(&graph, &delays, 5);
        sim.init_all_zero();
        sim.schedule(ins[0], 1_000, true);
        sim.schedule(ins[1], 1_000, true);
        assert_eq!(sim.run_counting(50_000), counting.count[0]);
    }
}
