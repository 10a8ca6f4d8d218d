//! The event engine: transport delay with inertial pulse rejection.
//!
//! Semantics, matching CMOS physics:
//!
//! * **transport**: every scheduled output change wider than the gate's
//!   switching time is delivered — a gate whose inputs settle at clearly
//!   different moments emits its full glitch train (this is the hazard
//!   the paper builds on);
//! * **inertial rejection**: a pulse narrower than the gate's switching
//!   time ([`DelayModel::pulse_reject_ps`]) is annihilated before it can
//!   propagate — near-simultaneous input edges do *not* produce output
//!   energy. Without this filter a cancelled glitch would be counted as a
//!   full double-toggle and the data-dependence of glitch energy (the
//!   whole point of Table I) would wash out.
//!
//! # Layout
//!
//! The engine is split into immutable topology and mutable state so one
//! netlist can back millions of traces without rebuilding anything:
//!
//! * [`SimGraph`] — everything derivable from the [`Netlist`] alone:
//!   CSR fanout (net → consumer gates) and pin (gate → input nets)
//!   tables, per-net driver/weight tables, the topological order, and
//!   the settled all-zero baseline state. Built once, shared read-only
//!   across threads.
//! * [`SimCore`] — the per-"device" mutable state: net values, per-gate
//!   schedule bookkeeping, the event queue (a [`TimingWheel`]), the
//!   jitter RNG, and dirty lists that make [`SimCore::reset`] O(touched)
//!   instead of O(netlist).
//! * [`Simulator`] — a thin convenience wrapper binding a graph, a
//!   [`DelayModel`] and a core, keeping the original borrow-style API.

use crate::delay::DelayModel;
use crate::power::NullSink;
use crate::wheel::{TimingWheel, WheelStats};
use gm_netlist::netlist::Driver;
use gm_netlist::{Csr, GateId, GateKind, NetId, Netlist};
use gm_obs::{Counter, Report};
#[cfg(test)]
use std::cmp::Reverse;
#[cfg(test)]
use std::collections::BinaryHeap;

/// Upper bound on combinational/sequential fan-in (Mux2 and configured
/// DFFs top out at 3 pins); lets pin values live on the stack.
pub(crate) const MAX_PINS: usize = 4;

/// Folded into the trace seed to derive the jitter salt. Shared with the
/// compiled-schedule backend ([`crate::sched`]) so both engines draw the
/// identical per-event delay for the same `(seed, gate, ordinal)`.
pub(crate) const JITTER_SALT_XOR: u64 = 0xd1b5_4a32_d192_ed03;

/// Receiver of net-transition (switching-activity) notifications.
///
/// `weight` is the capacitance proxy of the toggled net (the area of its
/// driver cell); implementations bin it into power samples, count it, or
/// feed crosstalk models.
pub trait PowerSink {
    /// Called once per *applied* net transition.
    fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, weight: f64);
}

impl<A: PowerSink, B: PowerSink> PowerSink for (A, B) {
    fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, weight: f64) {
        self.0.transition(time_ps, net, new_value, weight);
        self.1.transition(time_ps, net, new_value, weight);
    }
}

impl PowerSink for NullSink {
    fn transition(&mut self, _time_ps: u64, _net: NetId, _new_value: bool, _weight: f64) {}
}

/// Queued net change; time and seq live in the queue key.
#[derive(Debug, Clone, Copy)]
struct Pending {
    net: u32,
    value: bool,
    /// Driver-gate schedule version; stale versions are cancelled pulses.
    /// External events carry `u32::MAX` (never cancelled).
    version: u32,
}

/// Reference-queue event: the exact struct (and derived ordering) of the
/// original `BinaryHeap` engine. `seq` is unique per event, so the
/// derived `(time, seq, ..)` order *is* the `(time, seq)` order the
/// wheel uses — the property tests lean on this.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: u64,
    seq: u64,
    net: NetId,
    value: bool,
    version: u32,
}

/// The pending-event queue: the timing wheel, plus (in unit tests only)
/// the original binary heap as a differential-testing reference.
//
// One Queue exists per SimCore (never stored in arrays), so the size
// gap between the inline wheel and the reference heap wastes nothing;
// boxing the wheel would add an indirection to every push/pop on the
// hot event path instead.
#[cfg_attr(test, allow(clippy::large_enum_variant))]
#[derive(Debug)]
enum Queue {
    Wheel(TimingWheel<Pending>),
    #[cfg(test)]
    Heap(BinaryHeap<Reverse<Event>>),
}

impl Queue {
    #[inline]
    fn push(&mut self, time: u64, seq: u64, p: Pending) {
        match self {
            Queue::Wheel(w) => w.push(time, seq, p),
            #[cfg(test)]
            Queue::Heap(h) => h.push(Reverse(Event {
                time,
                seq,
                net: NetId(p.net),
                value: p.value,
                version: p.version,
            })),
        }
    }

    #[cfg(test)]
    fn peek_time(&mut self) -> Option<u64> {
        match self {
            Queue::Wheel(w) => w.peek_time(),
            #[cfg(test)]
            Queue::Heap(h) => h.peek().map(|Reverse(e)| e.time),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(u64, Pending)> {
        match self {
            Queue::Wheel(w) => w.pop().map(|(t, _, p)| (t, p)),
            #[cfg(test)]
            Queue::Heap(h) => h.pop().map(|Reverse(e)| {
                (e.time, Pending { net: e.net.0, value: e.value, version: e.version })
            }),
        }
    }

    /// Fused peek + pop: the earliest event iff its time is at most
    /// `t_max`. Like a peek, leaves the queue untouched when the front
    /// event lies beyond the horizon.
    #[inline]
    fn pop_at_most(&mut self, t_max: u64) -> Option<(u64, Pending)> {
        match self {
            Queue::Wheel(w) => w.pop_at_most(t_max).map(|(t, _, p)| (t, p)),
            #[cfg(test)]
            Queue::Heap(h) => {
                if h.peek().is_none_or(|Reverse(e)| e.time > t_max) {
                    return None;
                }
                h.pop().map(|Reverse(e)| {
                    (e.time, Pending { net: e.net.0, value: e.value, version: e.version })
                })
            }
        }
    }

    fn clear(&mut self) {
        match self {
            Queue::Wheel(w) => w.clear(),
            #[cfg(test)]
            Queue::Heap(h) => h.clear(),
        }
    }
}

/// Everything the event loop reads about one gate, packed (24 bytes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateRec {
    /// Input nets in pin order; the first `arity` are valid (sequential
    /// gates included, for the clocked harness).
    pins: [u32; MAX_PINS],
    /// Output net.
    pub(crate) out: u32,
    /// Precomputed truth table: bit `i` is the output when the pin
    /// values spell `i` (pin `k` → bit `k`). Replaces the
    /// `GateKind::eval` dispatch on the event hot path; sequential gates
    /// get 0 (register updates belong to the clocked harness).
    pub(crate) truth: u16,
    arity: u8,
}

impl GateRec {
    /// Input nets, in pin order.
    #[inline]
    pub(crate) fn pins(&self) -> &[u32] {
        &self.pins[..self.arity as usize]
    }

    /// Output for the pin values read from `values`.
    #[inline]
    fn eval(&self, values: &[bool]) -> bool {
        let mut idx = 0usize;
        for (k, &pn) in self.pins().iter().enumerate() {
            idx |= usize::from(values[pn as usize]) << k;
        }
        self.truth >> idx & 1 != 0
    }
}

/// Immutable simulation topology shared by every [`SimCore`] over the
/// same netlist: flat CSR adjacency, driver/weight tables, topological
/// order and the settled all-zero baseline. Build once per netlist
/// (typically behind an `Arc`), then hand out `&SimGraph` to as many
/// cores/threads as needed.
#[derive(Debug, Clone)]
pub struct SimGraph {
    /// net -> combinational consumer gates, in gate/pin declaration order.
    pub(crate) consumers: Csr,
    /// gate -> pins, truth table and output net in one record, so the
    /// fan-out loop touches one cache line per consumer gate.
    pub(crate) gates: Vec<GateRec>,
    pub(crate) kinds: Vec<GateKind>,
    /// net -> driver gate (`u32::MAX` for inputs/constants).
    pub(crate) driver_gate: Vec<u32>,
    /// Default per-net toggle weight (driver cell area).
    pub(crate) weights: Vec<f64>,
    /// Constant-driven nets and their values.
    pub(crate) constants: Vec<(u32, bool)>,
    /// Sequential gates, in gate order.
    pub(crate) ff_gates: Vec<GateId>,
    /// Combinational gates in topological order.
    pub(crate) order: Vec<u32>,
    /// Settled net values of the all-zero initial state.
    pub(crate) baseline_values: Vec<bool>,
    /// Settled per-gate scheduled-output values of the all-zero state.
    pub(crate) baseline_out_sched: Vec<bool>,
}

impl SimGraph {
    /// Derive the simulation topology from a validated netlist.
    pub fn new(netlist: &Netlist) -> Self {
        let nn = netlist.num_nets();
        let ng = netlist.num_gates();
        let mut consumer_pairs: Vec<(u32, u32)> = Vec::new();
        let mut kinds = Vec::with_capacity(ng);
        let mut gates = Vec::with_capacity(ng);
        let mut ff_gates = Vec::new();
        for (gi, g) in netlist.gates().iter().enumerate() {
            let np = g.inputs.len();
            assert!(np <= MAX_PINS, "gate {gi} has {np} pins, more than {MAX_PINS}");
            let mut rec =
                GateRec { pins: [0; MAX_PINS], out: g.output.0, truth: 0, arity: np as u8 };
            for (p, &i) in rec.pins.iter_mut().zip(&g.inputs) {
                *p = i.0;
            }
            kinds.push(g.kind);
            if g.kind.is_sequential() {
                ff_gates.push(GateId(gi as u32));
            } else {
                for &i in &g.inputs {
                    consumer_pairs.push((i.0, gi as u32));
                }
                let mut buf = [false; MAX_PINS];
                for idx in 0..1u16 << np {
                    for (k, b) in buf.iter_mut().enumerate().take(np) {
                        *b = idx >> k & 1 != 0;
                    }
                    if g.kind.eval(&buf[..np]) {
                        rec.truth |= 1 << idx;
                    }
                }
            }
            gates.push(rec);
        }
        let consumers = Csr::from_pairs(nn, &consumer_pairs);

        let mut weights = vec![1.0; nn];
        let mut driver_gate = vec![u32::MAX; nn];
        let mut constants = Vec::new();
        for i in 0..nn {
            match netlist.driver(NetId(i as u32)) {
                Driver::Gate(g) => {
                    weights[i] = netlist.gate(g).kind.area_ge();
                    driver_gate[i] = g.0;
                }
                Driver::Constant(v) => constants.push((i as u32, v)),
                _ => {}
            }
        }

        let order: Vec<u32> = gm_netlist::topo::combinational_order(netlist)
            .expect("netlist validated before simulation")
            .into_iter()
            .map(|g| g.0)
            .collect();

        // Settle the all-zero state once; every core resets to this.
        let mut baseline_values = vec![false; nn];
        for &(ni, v) in &constants {
            baseline_values[ni as usize] = v;
        }
        let mut baseline_out_sched = vec![false; ng];
        for &gi in &order {
            let g = &gates[gi as usize];
            let v = g.eval(&baseline_values);
            baseline_values[g.out as usize] = v;
            baseline_out_sched[gi as usize] = v;
        }

        SimGraph {
            consumers,
            gates,
            kinds,
            driver_gate,
            weights,
            constants,
            ff_gates,
            order,
            baseline_values,
            baseline_out_sched,
        }
    }

    /// Number of nets in the underlying netlist.
    pub fn num_nets(&self) -> usize {
        self.weights.len()
    }

    /// Number of gates in the underlying netlist.
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Per-net toggle weights (the compiled-schedule backend's
    /// [`crate::sched::SchedRunner::run_pass`] takes these explicitly so
    /// campaigns can substitute an overridden table).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Sequential gates, in gate order.
    pub fn ff_gates(&self) -> &[GateId] {
        &self.ff_gates
    }

    /// Cell kind of a gate.
    pub fn kind(&self, gate: GateId) -> GateKind {
        self.kinds[gate.index()]
    }

    /// Output net of a gate.
    pub fn output(&self, gate: GateId) -> NetId {
        NetId(self.gates[gate.index()].out)
    }

    /// Input nets of a gate, in pin order.
    pub fn inputs(&self, gate: GateId) -> &[u32] {
        self.gates[gate.index()].pins()
    }
}

/// Owned, reusable mutable simulation state over some [`SimGraph`].
///
/// All methods take the graph (and, where events propagate, the
/// [`DelayModel`]) by reference, so a `SimCore` can live inside
/// long-lived structs — e.g. per-worker trace sources — without
/// self-referential lifetimes. [`SimCore::reset`] restores the settled
/// all-zero state in O(touched) time and is bit-for-bit equivalent to
/// constructing a fresh core with the same seed.
#[derive(Debug)]
pub struct SimCore {
    values: Vec<bool>,
    /// Per-gate schedule bookkeeping.
    gates: Vec<GateState>,
    /// Per-net toggle weight; starts from the graph's defaults, mutable
    /// via [`SimCore::set_net_weight`] (persists across resets).
    weights: Vec<f64>,
    queue: Queue,
    seq: u64,
    time: u64,
    /// Per-trace jitter salt (`seed ^ JITTER_SALT_XOR`). Event delays are
    /// drawn by counter hash over `(salt, gate, ordinal)` — see
    /// [`DelayModel::sample_event_ps`] — so the jitter a gate's n-th
    /// toggling evaluation sees is a pure function of the trace seed,
    /// independent of how unrelated events interleave. The
    /// compiled-schedule backend replays the identical draws.
    salt: u64,
    /// Nets whose value may deviate from the baseline.
    touched_nets: Vec<u32>,
    net_mark: Vec<bool>,
    /// Gates whose [`GateState`] may deviate from the baseline.
    touched_gates: Vec<u32>,
    stats: SimStats,
}

/// One gate's mutable schedule bookkeeping, fused into one record (the
/// event loop reads and writes these fields together).
#[derive(Debug, Clone, Copy, Default)]
struct GateState {
    /// Time of the last scheduled output event: jitter must not reorder
    /// a single driver's edges (a physical wire cannot).
    last_time: u64,
    /// Schedule version; bumping it cancels in-flight pulses.
    version: u32,
    /// Toggling evaluations this trace (the `ordinal` fed to the jitter
    /// hash).
    ord: u32,
    /// Last *scheduled* output value (transport-delay bookkeeping).
    sched: bool,
    /// Whether the gate is on `touched_gates`.
    mark: bool,
}

impl GateState {
    /// The settled all-zero state of a gate whose output settles to `sched`.
    fn baseline(sched: bool) -> Self {
        GateState { sched, ..GateState::default() }
    }
}

/// Lifetime event counters of a [`SimCore`] (all zero and zero-sized
/// under `obs-off`). Counters survive [`SimCore::reset`] — a recycled
/// per-worker core accumulates whole-campaign totals; snapshot or diff
/// at campaign boundaries.
#[derive(Debug, Default)]
pub struct SimStats {
    /// Events popped off the queue (applied + redundant + stale).
    pub events_popped: Counter,
    /// Net transitions actually applied (= power-sink calls).
    pub transitions: Counter,
    /// Popped events dropped because the net already held the value.
    pub redundant: Counter,
    /// Popped events dropped as cancelled pulses (stale schedule version).
    pub stale: Counter,
    /// Inertial annihilations (in-flight pulse narrower than the
    /// switching time, cancelled before delivery).
    pub annihilations: Counter,
    /// Events scheduled by combinational propagation.
    pub scheduled: Counter,
    /// External edges injected via [`SimCore::schedule`].
    pub external: Counter,
    /// Between-trace [`SimCore::reset`] calls.
    pub resets: Counter,
    /// Applied transitions by driver cell class
    /// ([`GateKind::class_index`] order).
    kind_transitions: [Counter; GateKind::NUM_CLASSES],
    /// Applied transitions on externally driven nets (primary inputs,
    /// FF outputs injected by clocked harnesses).
    pub input_transitions: Counter,
    /// Per-event delay draws ([`DelayModel::sample_event_ps`]), one per
    /// toggling fan-out evaluation.
    pub jitter_scalar: Counter,
}

impl SimStats {
    /// Applied transitions per cell class, in
    /// [`GateKind::CLASS_NAMES`] order (zeros under `obs-off`).
    pub fn kind_transitions(&self) -> [u64; GateKind::NUM_CLASSES] {
        let mut out = [0u64; GateKind::NUM_CLASSES];
        for (o, c) in out.iter_mut().zip(self.kind_transitions.iter()) {
            *o = c.get();
        }
        out
    }

    /// Export all counters under `prefix` (e.g. `"sim"`); the per-class
    /// census lands at `<prefix>.toggle.<class>`.
    pub fn report_into(&self, prefix: &str, r: &mut Report) {
        r.set_nonzero(&format!("{prefix}.events"), self.events_popped.get());
        r.set_nonzero(&format!("{prefix}.transitions"), self.transitions.get());
        r.set_nonzero(&format!("{prefix}.redundant"), self.redundant.get());
        r.set_nonzero(&format!("{prefix}.stale"), self.stale.get());
        r.set_nonzero(&format!("{prefix}.annihilations"), self.annihilations.get());
        r.set_nonzero(&format!("{prefix}.scheduled"), self.scheduled.get());
        r.set_nonzero(&format!("{prefix}.external"), self.external.get());
        r.set_nonzero(&format!("{prefix}.resets"), self.resets.get());
        r.set_nonzero(&format!("{prefix}.toggle.input"), self.input_transitions.get());
        r.set_nonzero(&format!("{prefix}.jitter.scalar"), self.jitter_scalar.get());
        for (name, c) in GateKind::CLASS_NAMES.iter().zip(self.kind_transitions.iter()) {
            r.set_nonzero(&format!("{prefix}.toggle.{name}"), c.get());
        }
    }
}

impl SimCore {
    /// A core in the settled all-zero state. `seed` drives per-event
    /// delay jitter.
    pub fn new(graph: &SimGraph, seed: u64) -> Self {
        SimCore {
            values: graph.baseline_values.clone(),
            gates: graph.baseline_out_sched.iter().map(|&s| GateState::baseline(s)).collect(),
            weights: graph.weights.clone(),
            queue: Queue::Wheel(TimingWheel::new()),
            seq: 0,
            time: 0,
            salt: seed ^ JITTER_SALT_XOR,
            touched_nets: Vec::new(),
            net_mark: vec![false; graph.num_nets()],
            touched_gates: Vec::new(),
            stats: SimStats::default(),
        }
    }

    /// Lifetime event counters (zeros under `obs-off`).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Export engine counters under `<prefix>.*` and, when the timing
    /// wheel is in use, queue counters under `<prefix>.wheel.*`.
    pub fn obs_report(&self, prefix: &str, r: &mut Report) {
        self.stats.report_into(prefix, r);
        if let Some(w) = self.wheel_stats() {
            w.report_into(&format!("{prefix}.wheel"), r);
        }
    }

    /// Queue counters of the timing wheel, when it is in use.
    pub fn wheel_stats(&self) -> Option<&WheelStats> {
        match &self.queue {
            Queue::Wheel(w) => Some(w.stats()),
            #[cfg(test)]
            Queue::Heap(_) => None,
        }
    }

    /// Swap the timing wheel for the original `BinaryHeap`. Differential
    /// testing only; must be called while the queue is empty.
    #[cfg(test)]
    pub(crate) fn use_reference_heap_queue(&mut self) {
        assert!(self.queue.peek_time().is_none(), "queue must be empty to swap");
        self.queue = Queue::Heap(BinaryHeap::new());
    }

    /// Current simulation time (ps).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    #[inline]
    fn touch_net(&mut self, ni: usize) {
        if !self.net_mark[ni] {
            self.net_mark[ni] = true;
            self.touched_nets.push(ni as u32);
        }
    }

    #[inline]
    fn touch_gate(&mut self, gi: usize) {
        if !self.gates[gi].mark {
            self.gates[gi].mark = true;
            self.touched_gates.push(gi as u32);
        }
    }

    /// Set a net value *silently* (no event, no power) — initial condition.
    pub fn set_initial(&mut self, net: NetId, value: bool) {
        self.values[net.index()] = value;
        self.touch_net(net.index());
    }

    /// Override the toggle weight (capacitance proxy) of one net. The
    /// default is the driver cell's area; experiments targeting FPGA
    /// power may want e.g. LUT-as-buffer delay elements at LUT weight
    /// rather than their ASIC-area equivalent. Weight overrides persist
    /// across [`SimCore::reset`] (they describe the device, not a trace).
    pub fn set_net_weight(&mut self, net: NetId, weight: f64) {
        self.weights[net.index()] = weight;
    }

    /// Set the toggle weight of every net driven by a cell of `kind`.
    pub fn set_kind_weight(&mut self, graph: &SimGraph, kind: GateKind, weight: f64) {
        for gi in 0..graph.num_gates() {
            if graph.kinds[gi] == kind {
                self.weights[graph.gates[gi].out as usize] = weight;
            }
        }
    }

    /// Restore every touched net/gate to the settled all-zero baseline
    /// and drop pending events. O(touched), not O(netlist).
    fn restore_baseline(&mut self, graph: &SimGraph) {
        for &ni in &self.touched_nets {
            self.values[ni as usize] = graph.baseline_values[ni as usize];
            self.net_mark[ni as usize] = false;
        }
        self.touched_nets.clear();
        for &gi in &self.touched_gates {
            self.gates[gi as usize] = GateState::baseline(graph.baseline_out_sched[gi as usize]);
        }
        self.touched_gates.clear();
        self.queue.clear();
    }

    /// Zero every primary input and flip-flop output, then let the
    /// combinational logic settle silently. Mirrors the paper's "reset all
    /// registers to 0" starting condition: nets downstream of inverting
    /// logic settle to 1, exactly as in hardware. (The settled state is
    /// precomputed on the [`SimGraph`]; this restores it in O(touched).)
    pub fn init_all_zero(&mut self, graph: &SimGraph) {
        self.restore_baseline(graph);
    }

    /// Full between-traces reset: the settled all-zero state, time 0 and
    /// a fresh jitter stream. Bit-for-bit equivalent to replacing the
    /// core with `SimCore::new(graph, seed)`.
    pub fn reset(&mut self, graph: &SimGraph, seed: u64) {
        self.stats.resets.inc();
        self.restore_baseline(graph);
        self.seq = 0;
        self.time = 0;
        self.salt = seed ^ JITTER_SALT_XOR;
    }

    /// Silently settle combinational logic from the current initial values
    /// (zero-delay), so the first scheduled edges start from a consistent
    /// state. Constants are also applied here.
    pub fn settle_silent(&mut self, graph: &SimGraph) {
        for i in 0..graph.constants.len() {
            let (ni, v) = graph.constants[i];
            self.values[ni as usize] = v;
            self.touch_net(ni as usize);
        }
        for oi in 0..graph.order.len() {
            let gi = graph.order[oi] as usize;
            let g = &graph.gates[gi];
            let v = g.eval(&self.values);
            self.values[g.out as usize] = v;
            self.gates[gi].sched = v;
            self.touch_net(g.out as usize);
            self.touch_gate(gi);
        }
    }

    /// Schedule an external edge on `net` at absolute time `time_ps`.
    ///
    /// # Panics
    ///
    /// Panics when scheduling into the past.
    pub fn schedule(&mut self, net: NetId, time_ps: u64, value: bool) {
        assert!(time_ps >= self.time, "cannot schedule into the past");
        self.stats.external.inc();
        self.seq += 1;
        self.queue.push(time_ps, self.seq, Pending { net: net.0, value, version: u32::MAX });
    }

    /// Process all events up to and including `t_end_ps`, reporting every
    /// applied transition to `sink`.
    pub fn run_until(
        &mut self,
        graph: &SimGraph,
        delays: &DelayModel,
        t_end_ps: u64,
        sink: &mut impl PowerSink,
    ) {
        while let Some((time, p)) = self.queue.pop_at_most(t_end_ps) {
            self.stats.events_popped.inc();
            self.time = time;
            self.apply(graph, delays, time, p, sink);
        }
        self.time = self.time.max(t_end_ps);
    }

    /// Run until the event queue is empty (the circuit is quiescent).
    pub fn run_to_quiescence(
        &mut self,
        graph: &SimGraph,
        delays: &DelayModel,
        sink: &mut impl PowerSink,
    ) {
        while let Some((time, p)) = self.queue.pop() {
            self.stats.events_popped.inc();
            self.time = time;
            self.apply(graph, delays, time, p, sink);
        }
    }

    /// Run until `t_end_ps` and return the raw number of applied transitions.
    pub fn run_counting(&mut self, graph: &SimGraph, delays: &DelayModel, t_end_ps: u64) -> u64 {
        let mut sink = crate::power::CountingSink::default();
        self.run_until(graph, delays, t_end_ps, &mut sink);
        sink.count
    }

    /// Drain any still-pending events (ignoring their effects) and reset
    /// simulation time to 0, keeping current net values. Used between
    /// back-to-back acquisitions on the same "device".
    pub fn rewind_time(&mut self) {
        self.queue.clear();
        for &gi in &self.touched_gates {
            self.gates[gi as usize].last_time = 0;
        }
        self.time = 0;
    }

    fn apply(
        &mut self,
        graph: &SimGraph,
        delays: &DelayModel,
        time: u64,
        p: Pending,
        sink: &mut impl PowerSink,
    ) {
        let ni = p.net as usize;
        // Stale version: this pulse was inertially annihilated after being
        // scheduled.
        if p.version != u32::MAX && self.gates[graph.driver_gate[ni] as usize].version != p.version
        {
            self.stats.stale.inc();
            return;
        }
        if self.values[ni] == p.value {
            self.stats.redundant.inc();
            return; // redundant edge
        }
        self.values[ni] = p.value;
        self.touch_net(ni);
        self.stats.transitions.inc();
        if gm_obs::ENABLED {
            // Per-class glitch census: one table lookup, folded away
            // entirely under obs-off.
            let dg = graph.driver_gate[ni];
            if dg == u32::MAX {
                self.stats.input_transitions.inc();
            } else {
                self.stats.kind_transitions[graph.kinds[dg as usize].class_index()].inc();
            }
        }
        sink.transition(time, NetId(p.net), p.value, self.weights[ni]);

        // Re-evaluate combinational fan-out; schedule changed outputs.
        for &gi_u in graph.consumers.row(ni) {
            let gi = gi_u as usize;
            let g = &graph.gates[gi];
            let out = g.eval(&self.values);
            if out != self.gates[gi].sched {
                self.touch_gate(gi);
                let ord = self.gates[gi].ord;
                self.gates[gi].ord = ord + 1;
                self.stats.jitter_scalar.inc();
                let d = delays.sample_event_ps(GateId(gi_u), self.salt, ord);
                self.schedule_output(delays, time, gi_u, g.out, out, d);
            }
        }
    }

    /// Schedule gate `gi_u`'s output change (on net `out_net`) at
    /// `time + d` — transport ordering, inertial annihilation, version
    /// bump and queue push.
    #[inline]
    fn schedule_output(
        &mut self,
        delays: &DelayModel,
        time: u64,
        gi_u: u32,
        out_net: u32,
        out: bool,
        d: u64,
    ) {
        let g = &mut self.gates[gi_u as usize];
        // A single driver's edges stay ordered even under jitter.
        let t = (time + d).max(g.last_time + 1);
        let pending = g.last_time > time;
        if pending && t.saturating_sub(g.last_time) < delays.pulse_reject_of(GateId(gi_u)) {
            // The in-flight pulse is narrower than the switching
            // time: annihilate it instead of delivering both edges.
            self.stats.annihilations.inc();
            g.version = g.version.wrapping_add(1);
            g.sched = self.values[out_net as usize];
            if out == g.sched {
                return;
            }
        }
        g.sched = out;
        g.last_time = t;
        let version = g.version;
        self.seq += 1;
        self.stats.scheduled.inc();
        self.queue.push(t, self.seq, Pending { net: out_net, value: out, version });
    }
}

/// How a [`Simulator`]/[`ClockedSim`](crate::ClockedSim) holds its graph:
/// built on the spot, or borrowed from a shared prebuilt one.
#[derive(Debug)]
pub(crate) enum GraphRef<'a> {
    Owned(Box<SimGraph>),
    Shared(&'a SimGraph),
}

impl GraphRef<'_> {
    #[inline]
    pub(crate) fn get(&self) -> &SimGraph {
        match self {
            GraphRef::Owned(g) => g,
            GraphRef::Shared(g) => g,
        }
    }
}

/// Event-driven simulator over one [`Netlist`] instance.
///
/// External edges (primary inputs, flip-flop outputs) are injected with
/// [`Simulator::schedule`]; combinational propagation, including glitches,
/// follows from the [`DelayModel`].
///
/// For one-shot use, [`Simulator::new`] derives the topology itself. For
/// campaigns, build a [`SimGraph`] once, share it, and recycle one
/// simulator per worker via [`Simulator::with_graph`] +
/// [`Simulator::reset`].
///
/// # Examples
///
/// A NAND whose two inputs rise at different times produces a 0-glitch:
///
/// ```
/// use gm_netlist::Netlist;
/// use gm_sim::{DelayModel, Simulator};
///
/// let mut n = Netlist::new("g");
/// let a = n.input("a");
/// let b = n.input("b");
/// let inv_a = n.inv(a);           // slow path
/// let y = n.and2(inv_a, b);       // y = !a & b
/// n.output("y", y);
///
/// let delays = DelayModel::nominal(&n);
/// let mut sim = Simulator::new(&n, &delays, 0);
/// sim.init_all_zero();
/// sim.set_initial(b, false);
/// // a and b rise together: y should stay 0, but the inverter lags.
/// sim.schedule(a, 1_000, true);
/// sim.schedule(b, 1_000, true);
/// let toggles = sim.run_counting(10_000);
/// assert!(toggles >= 2, "glitch pulse on y expected, saw {toggles} toggles");
/// ```
pub struct Simulator<'a> {
    delays: &'a DelayModel,
    graph: GraphRef<'a>,
    core: SimCore,
}

impl<'a> Simulator<'a> {
    /// Build a simulator (deriving its own [`SimGraph`]). `seed` drives
    /// per-event delay jitter.
    pub fn new(netlist: &Netlist, delays: &'a DelayModel, seed: u64) -> Self {
        let graph = Box::new(SimGraph::new(netlist));
        let core = SimCore::new(&graph, seed);
        Simulator { delays, graph: GraphRef::Owned(graph), core }
    }

    /// Build a simulator over a shared prebuilt [`SimGraph`].
    pub fn with_graph(graph: &'a SimGraph, delays: &'a DelayModel, seed: u64) -> Self {
        let core = SimCore::new(graph, seed);
        Simulator { delays, graph: GraphRef::Shared(graph), core }
    }

    /// The simulation topology in use.
    pub fn graph(&self) -> &SimGraph {
        self.graph.get()
    }

    /// Full between-traces reset; bit-for-bit equivalent to a fresh
    /// `Simulator::new` with the same seed (see [`SimCore::reset`]).
    pub fn reset(&mut self, seed: u64) {
        self.core.reset(self.graph.get(), seed);
    }

    /// Swap in the reference heap queue (differential testing only).
    #[cfg(test)]
    pub(crate) fn use_reference_heap_queue(&mut self) {
        self.core.use_reference_heap_queue();
    }

    /// Current simulation time (ps).
    pub fn time(&self) -> u64 {
        self.core.time()
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.core.value(net)
    }

    /// Set a net value *silently* (no event, no power) — initial condition.
    pub fn set_initial(&mut self, net: NetId, value: bool) {
        self.core.set_initial(net, value);
    }

    /// Override the toggle weight of one net (see [`SimCore::set_net_weight`]).
    pub fn set_net_weight(&mut self, net: NetId, weight: f64) {
        self.core.set_net_weight(net, weight);
    }

    /// Set the toggle weight of every net driven by a cell of `kind`.
    pub fn set_kind_weight(&mut self, kind: GateKind, weight: f64) {
        self.core.set_kind_weight(self.graph.get(), kind, weight);
    }

    /// Restore the settled all-zero state (see [`SimCore::init_all_zero`]).
    pub fn init_all_zero(&mut self) {
        self.core.init_all_zero(self.graph.get());
    }

    /// Silently settle combinational logic from the current initial values.
    pub fn settle_silent(&mut self) {
        self.core.settle_silent(self.graph.get());
    }

    /// Schedule an external edge on `net` at absolute time `time_ps`.
    ///
    /// # Panics
    ///
    /// Panics when scheduling into the past.
    pub fn schedule(&mut self, net: NetId, time_ps: u64, value: bool) {
        self.core.schedule(net, time_ps, value);
    }

    /// Process all events up to and including `t_end_ps`, reporting every
    /// applied transition to `sink`.
    pub fn run_until(&mut self, t_end_ps: u64, sink: &mut impl PowerSink) {
        self.core.run_until(self.graph.get(), self.delays, t_end_ps, sink);
    }

    /// Run until `t_end_ps` and return the raw number of applied transitions.
    pub fn run_counting(&mut self, t_end_ps: u64) -> u64 {
        self.core.run_counting(self.graph.get(), self.delays, t_end_ps)
    }

    /// Drain pending events and reset time to 0, keeping net values.
    pub fn rewind_time(&mut self) {
        self.core.rewind_time();
    }

    /// Run until the event queue is empty (the circuit is quiescent).
    pub fn run_to_quiescence(&mut self, sink: &mut impl PowerSink) {
        self.core.run_to_quiescence(self.graph.get(), self.delays, sink);
    }

    /// Lifetime event counters (zeros under `obs-off`).
    pub fn stats(&self) -> &SimStats {
        self.core.stats()
    }

    /// Export engine (and wheel) counters under `<prefix>.*`.
    pub fn obs_report(&self, prefix: &str, r: &mut Report) {
        self.core.obs_report(prefix, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{CountingSink, NullSink};

    /// y = a & b with equal input arrival: exactly the final transitions.
    #[test]
    fn no_glitch_when_inputs_aligned() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let y = n.and2(a, b);
        n.output("y", y);
        let delays = DelayModel::nominal(&n);
        let mut sim = Simulator::new(&n, &delays, 0);
        sim.init_all_zero();
        sim.schedule(a, 100, true);
        sim.schedule(b, 100, true);
        let mut c = CountingSink::default();
        sim.run_until(10_000, &mut c);
        // a, b, y — three transitions, no glitches.
        assert_eq!(c.count, 3);
        assert!(sim.value(y));
    }

    /// Static-1 hazard on an AND-OR pair: xor of skewed inputs glitches.
    #[test]
    fn skewed_inputs_glitch() {
        // y = (a & b) ^ (a | b); with a=b=1 -> 1^1 = 0, steady state 0->0,
        // but the AND path is faster/slower than the OR path via an extra buf.
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let p = n.and2(a, b);
        let q0 = n.or2(a, b);
        let q1 = n.buf(q0); // two buffers: skew > pulse-reject width
        let q = n.buf(q1);
        let y = n.xor2(p, q);
        n.output("y", y);
        let delays = DelayModel::nominal(&n);
        let mut sim = Simulator::new(&n, &delays, 0);
        sim.init_all_zero();
        sim.schedule(a, 100, true);
        sim.schedule(b, 100, true);
        let mut c = CountingSink::default();
        sim.run_until(20_000, &mut c);
        assert!(!sim.value(y), "steady state of 1&1 ^ 1|1 is 0");
        // y must have pulsed: transitions strictly exceed the glitch-free
        // count (a, b, p, q0, q1, q = 6).
        assert!(c.count > 6, "expected a glitch pulse, got {} transitions", c.count);
    }

    /// Final values always match zero-delay evaluation, glitches or not.
    #[test]
    fn settles_to_functional_value() {
        use rand::{RngExt, SeedableRng};
        let mut n = Netlist::new("t");
        let ins: Vec<_> = (0..4).map(|i| n.input(format!("i{i}"))).collect();
        let x0 = n.and2(ins[0], ins[1]);
        let x1 = n.or2(ins[2], ins[3]);
        let x2 = n.xor2(x0, x1);
        let x3 = n.mux2(ins[0], x2, x1);
        let inv = n.inv(x3);
        n.output("o", inv);
        n.validate().unwrap();

        let delays = DelayModel::with_variation(&n, 0.3, 40.0, 5);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        for trial in 0..50 {
            let mut sim = Simulator::new(&n, &delays, trial);
            sim.init_all_zero();
            let bits: Vec<bool> = (0..4).map(|_| rng.random()).collect();
            for (k, &net) in ins.iter().enumerate() {
                // staggered arrivals to invite glitches
                sim.schedule(net, 100 + 137 * k as u64, bits[k]);
            }
            sim.run_until(1_000_000, &mut NullSink);

            let mut ev = gm_netlist::Evaluator::new(&n).unwrap();
            let want =
                ev.run_combinational(&n, &ins.iter().copied().zip(bits).collect::<Vec<_>>())[0];
            assert_eq!(sim.value(inv), want, "trial {trial}");
        }
    }

    /// Pulses narrower than the switching time are inertially rejected;
    /// wide pulses are transported in full.
    #[test]
    fn inertial_rejects_narrow_transports_wide() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let chain = n.delay_chain(a, 2);
        n.output("o", chain);
        let delays = DelayModel::nominal(&n);

        // 10 ps pulse (<< pulse_reject_ps): dies at the first buffer.
        let mut sim = Simulator::new(&n, &delays, 0);
        sim.init_all_zero();
        sim.schedule(a, 100, true);
        sim.schedule(a, 110, false);
        let mut c = CountingSink::default();
        sim.run_until(100_000, &mut c);
        assert_eq!(c.count, 2, "only the input edges themselves");

        // 5 ns pulse (>> pulse_reject_ps): both chain nets pulse fully.
        let mut sim = Simulator::new(&n, &delays, 0);
        sim.init_all_zero();
        sim.schedule(a, 100, true);
        sim.schedule(a, 5_100, false);
        let mut c = CountingSink::default();
        sim.run_until(100_000, &mut c);
        assert_eq!(c.count, 6, "a up/down + 2 nets up/down");
    }

    /// run_to_quiescence drains everything regardless of horizon.
    #[test]
    fn run_to_quiescence_settles() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let chain = n.delay_chain(a, 5);
        n.output("o", chain);
        let delays = DelayModel::nominal(&n);
        let mut sim = Simulator::new(&n, &delays, 0);
        sim.init_all_zero();
        sim.schedule(a, 1, true);
        sim.run_to_quiescence(&mut NullSink);
        assert!(sim.value(chain), "edge must have traversed all 5 stages");
        assert!(sim.time() >= 5 * 1150);
    }

    /// An annihilated pulse leaves no residue: after the cancel, a later
    /// genuine edge still propagates with a fresh version.
    #[test]
    fn cancelled_pulse_then_real_edge() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let buf = n.delay_buf(a);
        n.output("o", buf);
        let delays = DelayModel::nominal(&n);
        let mut sim = Simulator::new(&n, &delays, 0);
        sim.init_all_zero();
        // 10 ps pulse: annihilated inside the DelayBuf.
        sim.schedule(a, 100, true);
        sim.schedule(a, 110, false);
        // Much later, a real edge.
        sim.schedule(a, 50_000, true);
        let mut c = CountingSink::default();
        sim.run_until(100_000, &mut c);
        assert!(sim.value(buf), "the real edge must arrive");
        // a: up/down/up (3) + buf: up (1).
        assert_eq!(c.count, 4);
    }

    #[test]
    fn redundant_edges_are_ignored() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let y = n.buf(a);
        n.output("y", y);
        let delays = DelayModel::nominal(&n);
        let mut sim = Simulator::new(&n, &delays, 0);
        sim.init_all_zero();
        sim.schedule(a, 100, false); // no-op: already 0
        let mut c = CountingSink::default();
        sim.run_until(10_000, &mut c);
        assert_eq!(c.count, 0);
    }

    /// reset() brings a dirtied simulator back to the exact fresh state:
    /// replaying the same stimuli yields the identical transition stream.
    #[test]
    fn reset_equals_fresh() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let p = n.and2(a, b);
        let q = n.xor2(p, a);
        let inv = n.inv(q);
        n.output("o", inv);
        n.validate().unwrap();
        let delays = DelayModel::with_variation(&n, 0.4, 60.0, 9);

        let record = |sim: &mut Simulator| {
            let mut rec = Vec::new();
            struct R<'v>(&'v mut Vec<(u64, u32, bool)>);
            impl PowerSink for R<'_> {
                fn transition(&mut self, t: u64, net: NetId, v: bool, _w: f64) {
                    self.0.push((t, net.0, v));
                }
            }
            sim.schedule(a, 500, true);
            sim.schedule(b, 900, true);
            sim.schedule(a, 30_000, false);
            sim.run_until(60_000, &mut R(&mut rec));
            rec
        };

        let mut fresh = Simulator::new(&n, &delays, 42);
        fresh.init_all_zero();
        let want = record(&mut fresh);

        // Dirty a simulator with a different seed/stimuli, then reset.
        let mut reused = Simulator::new(&n, &delays, 7);
        reused.init_all_zero();
        reused.schedule(b, 100, true);
        reused.run_until(900_000, &mut NullSink);
        reused.reset(42);
        let got = record(&mut reused);
        assert_eq!(got, want, "reset must reproduce the fresh stream");
    }

    /// The engine counters reconcile: every popped event is applied,
    /// redundant, or stale, and the per-class census sums to the applied
    /// transitions.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn stats_reconcile() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let p = n.and2(a, b);
        let q0 = n.or2(a, b);
        let q1 = n.buf(q0);
        let q = n.buf(q1);
        let y = n.xor2(p, q);
        n.output("y", y);
        let delays = DelayModel::nominal(&n);
        let mut sim = Simulator::new(&n, &delays, 3);
        sim.init_all_zero();
        sim.schedule(a, 100, true);
        sim.schedule(b, 100, true);
        let mut c = CountingSink::default();
        sim.run_until(50_000, &mut c);

        let s = sim.stats();
        assert_eq!(s.external.get(), 2);
        assert_eq!(
            s.events_popped.get(),
            s.transitions.get() + s.redundant.get() + s.stale.get(),
            "popped = applied + redundant + stale"
        );
        assert_eq!(s.transitions.get(), c.count, "census agrees with the power sink");
        let census: u64 = s.kind_transitions().iter().sum();
        assert_eq!(census + s.input_transitions.get(), s.transitions.get());
        assert_eq!(s.input_transitions.get(), 2, "a and b");

        let mut r = Report::new();
        sim.obs_report("sim", &mut r);
        assert_eq!(r.get("sim.transitions"), Some(s.transitions.get()));
        assert!(r.get("sim.wheel.push_ring").is_some());
    }

    /// A shared SimGraph behaves identically to a privately built one.
    #[test]
    fn with_graph_matches_new() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let chain = n.delay_chain(a, 3);
        let inv = n.inv(chain);
        n.output("o", inv);
        let delays = DelayModel::with_variation(&n, 0.2, 30.0, 3);
        let graph = SimGraph::new(&n);

        let mut s1 = Simulator::new(&n, &delays, 5);
        let mut s2 = Simulator::with_graph(&graph, &delays, 5);
        for sim in [&mut s1, &mut s2] {
            sim.init_all_zero();
            sim.schedule(a, 1_000, true);
        }
        assert_eq!(s1.run_counting(100_000), s2.run_counting(100_000));
        assert_eq!(s1.value(inv), s2.value(inv));
        assert_eq!(s1.time(), s2.time());
    }

    /// Property tests over random logic cones: the wheel-backed core
    /// against the reference `BinaryHeap` queue (which exists only in
    /// unit-test builds), and a recycled core against a fresh one.
    mod cone_prop {
        use super::*;
        use proptest::prelude::*;

        /// Records every applied transition exactly (weight compared by bits).
        #[derive(Default)]
        struct RecordingSink(Vec<(u64, u32, bool, u64)>);

        impl PowerSink for RecordingSink {
            fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, weight: f64) {
                self.0.push((time_ps, net.0, new_value, weight.to_bits()));
            }
        }

        /// Build a random combinational cone over 4 primary inputs: each gate
        /// draws its operands from any earlier net, so the graph is acyclic by
        /// construction and fans out freely (reconvergence included).
        fn random_cone(gates: &[(u8, u8, u8)]) -> (Netlist, [NetId; 4]) {
            let mut n = Netlist::new("cone");
            let inputs = [n.input("i0"), n.input("i1"), n.input("i2"), n.input("i3")];
            let mut nets: Vec<NetId> = inputs.to_vec();
            for &(kind, a, b) in gates {
                let x = nets[a as usize % nets.len()];
                let y = nets[b as usize % nets.len()];
                let out = match kind % 8 {
                    0 => n.and2(x, y),
                    1 => n.or2(x, y),
                    2 => n.xor2(x, y),
                    3 => n.nand2(x, y),
                    4 => n.nor2(x, y),
                    5 => n.xnor2(x, y),
                    6 => n.inv(x),
                    _ => n.buf(x),
                };
                nets.push(out);
            }
            let z = *nets.last().expect("at least the inputs");
            n.output("z", z);
            n.validate().expect("random cone validates");
            (n, inputs)
        }

        /// Schedule the stimulus list on `sim` (input index, time, value).
        fn apply_stimuli(sim: &mut Simulator<'_>, inputs: &[NetId; 4], stims: &[(u8, u64, bool)]) {
            for &(i, t, v) in stims {
                sim.schedule(inputs[i as usize % 4], t, v);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The wheel-backed simulator and the reference heap-backed one emit
            /// identical transition streams (time, net, value, weight) on random
            /// cones with jittered delays — pulse rejection and tie-breaking
            /// included.
            #[test]
            fn wheel_sim_matches_heap_sim(
                gates in prop::collection::vec((0u8..8, 0u8..32, 0u8..32), 3..24),
                stims in prop::collection::vec((0u8..4, 0u64..60_000, any::<bool>()), 1..24),
                seed in any::<u64>(),
            ) {
                let (n, inputs) = random_cone(&gates);
                let delays = DelayModel::with_variation(&n, 0.3, 60.0, seed);

                let mut wheel_sim = Simulator::new(&n, &delays, seed);
                wheel_sim.init_all_zero();
                let mut heap_sim = Simulator::new(&n, &delays, seed);
                heap_sim.use_reference_heap_queue();
                heap_sim.init_all_zero();

                apply_stimuli(&mut wheel_sim, &inputs, &stims);
                apply_stimuli(&mut heap_sim, &inputs, &stims);

                let (mut rw, mut rh) = (RecordingSink::default(), RecordingSink::default());
                wheel_sim.run_until(500_000, &mut rw);
                heap_sim.run_until(500_000, &mut rh);
                prop_assert_eq!(rw.0, rh.0);
                for net in 0..n.num_nets() as u32 {
                    prop_assert_eq!(wheel_sim.value(NetId(net)), heap_sim.value(NetId(net)));
                }
            }

            /// `reset()` + rerun on a recycled core is bit-identical to a fresh
            /// construction: same transitions, same final values — even after a
            /// first run with unrelated stimuli and a different seed.
            #[test]
            fn reset_rerun_matches_fresh(
                gates in prop::collection::vec((0u8..8, 0u8..32, 0u8..32), 3..24),
                warmup in prop::collection::vec((0u8..4, 0u64..60_000, any::<bool>()), 1..12),
                stims in prop::collection::vec((0u8..4, 0u64..60_000, any::<bool>()), 1..24),
                seed in any::<u64>(),
            ) {
                let (n, inputs) = random_cone(&gates);
                let delays = DelayModel::with_variation(&n, 0.3, 60.0, seed ^ 0x5eed);
                let graph = SimGraph::new(&n);

                let mut fresh = Simulator::with_graph(&graph, &delays, seed);
                fresh.init_all_zero();
                apply_stimuli(&mut fresh, &inputs, &stims);
                let mut want = RecordingSink::default();
                fresh.run_until(500_000, &mut want);

                let mut reused = Simulator::with_graph(&graph, &delays, seed ^ 0xbad);
                reused.init_all_zero();
                apply_stimuli(&mut reused, &inputs, &warmup);
                reused.run_until(500_000, &mut RecordingSink::default());

                reused.reset(seed);
                apply_stimuli(&mut reused, &inputs, &stims);
                let mut got = RecordingSink::default();
                reused.run_until(500_000, &mut got);

                prop_assert_eq!(got.0, want.0);
                for net in 0..n.num_nets() as u32 {
                    prop_assert_eq!(reused.value(NetId(net)), fresh.value(NetId(net)));
                }
            }
        }
    }
}
