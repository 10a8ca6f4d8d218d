//! The round FSM driving a generated DES core.
//!
//! The control schedule is data-independent (public); it is expressed
//! once as a list of per-cycle control words and can drive either the
//! zero-delay [`gm_netlist::Evaluator`] (fast functional checks) or the
//! event-driven [`gm_sim::ClockedSim`] (glitch-accurate power traces).

use super::core::{DesCoreNetlist, SboxStyle};
use crate::tables::SHIFTS;
use gm_core::MaskRng;
use gm_netlist::{Evaluator, NetId};
use gm_sim::clocked::Stimulus;
use gm_sim::engine::PowerSink;
use gm_sim::{ClockedCore, DelayModel, SimGraph};

/// One cycle's control word. `masks_for_round` loads the 14 fresh mask
/// bits for the given round during this cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleCtl {
    /// Assert `ctl_load` (state-register load path).
    pub load: bool,
    /// Assert `ctl_load_key`.
    pub load_key: bool,
    /// Assert `ctl_ir_en` (key rotation + IR capture at the cycle's end).
    pub ir_en: bool,
    /// Rotate by two.
    pub shift2: bool,
    /// Assert `ctl_state_en`.
    pub state_en: bool,
    /// FF enables.
    pub and1: bool,
    /// FF enables.
    pub and2: bool,
    /// FF enables.
    pub sel: bool,
    /// FF enables.
    pub mux2: bool,
    /// FF enables.
    pub sout: bool,
    /// PD mid-register enable.
    pub mid: bool,
    /// Present round `r`'s fresh masks on the mask inputs this cycle.
    pub masks_for_round: Option<usize>,
}

/// The complete control schedule for one encryption (excluding the
/// trailing flush cycle the drivers add).
pub fn schedule(style: SboxStyle) -> Vec<CycleCtl> {
    let mut s = Vec::new();
    // Setup cycle: plaintext/key shares arrive at the input pins.
    s.push(CycleCtl::default());
    s.push(CycleCtl { load: true, load_key: true, ..Default::default() });
    match style {
        SboxStyle::Ff => {
            for (r, &shift) in SHIFTS.iter().enumerate() {
                s.push(CycleCtl {
                    ir_en: true,
                    shift2: shift == 2,
                    masks_for_round: Some(r),
                    ..Default::default()
                });
                s.push(CycleCtl { and1: true, ..Default::default() });
                s.push(CycleCtl { and2: true, ..Default::default() });
                s.push(CycleCtl { sel: true, ..Default::default() });
                s.push(CycleCtl { mux2: true, ..Default::default() });
                s.push(CycleCtl { sout: true, ..Default::default() });
                s.push(CycleCtl { state_en: true, ..Default::default() });
            }
        }
        SboxStyle::Pd { .. } => {
            // Pre-load: the state mux still presents the IP right half
            // (load held high, key load released) while the key rotates
            // by SHIFTS[0], so IR captures E(R0) ⊕ K1.
            s.push(CycleCtl {
                load: true,
                ir_en: true,
                shift2: SHIFTS[0] == 2,
                masks_for_round: Some(0),
                ..Default::default()
            });
            for r in 0..16 {
                s.push(CycleCtl { mid: true, ..Default::default() });
                // State update; rounds 0..15 also capture the next IR on
                // the same edge (Fig. 9b's parallel update).
                let next = r + 1;
                s.push(CycleCtl {
                    state_en: true,
                    ir_en: next < 16,
                    shift2: next < 16 && SHIFTS[next] == 2,
                    masks_for_round: if next < 16 { Some(next) } else { None },
                    ..Default::default()
                });
            }
        }
    }
    s
}

/// Latency in clock cycles of one encryption (including load and the
/// trailing flush edge).
pub fn total_cycles(style: SboxStyle) -> usize {
    schedule(style).len() + 1
}

type CtlNet = (NetId, fn(&CycleCtl) -> bool);

fn control_nets(core: &DesCoreNetlist) -> [CtlNet; 11] {
    let c = &core.ctl;
    [
        (c.load, |x: &CycleCtl| x.load),
        (c.load_key, |x: &CycleCtl| x.load_key),
        (c.ir_en, |x| x.ir_en),
        (c.shift2, |x| x.shift2),
        (c.state_en, |x| x.state_en),
        (c.and1_en, |x| x.and1),
        (c.and2_en, |x| x.and2),
        (c.sel_en, |x| x.sel),
        (c.mux2_en, |x| x.mux2),
        (c.sout_en, |x| x.sout),
        (c.mid_en, |x| x.mid),
    ]
}

/// Per-encryption masked stimulus: the shares of plaintext and key plus
/// the sixteen 14-bit fresh-mask words.
#[derive(Debug, Clone)]
pub struct EncryptionInputs {
    /// Plaintext shares `(s0, s1)`.
    pub pt: (u64, u64),
    /// Key shares `(s0, s1)`.
    pub key: (u64, u64),
    /// 14 fresh bits per round (low 14 bits used).
    pub round_masks: [u16; 16],
}

impl EncryptionInputs {
    /// Freshly share `pt`/`key` and draw all round masks from `rng`.
    pub fn draw(pt: u64, key: u64, rng: &mut MaskRng) -> Self {
        let ptm = rng.bits(64);
        let keym = rng.bits(64);
        EncryptionInputs {
            pt: (ptm, pt ^ ptm),
            key: (keym, key ^ keym),
            round_masks: std::array::from_fn(|_| rng.bits(14) as u16),
        }
    }
}

/// Drive one encryption on the zero-delay evaluator (functional path).
pub fn encrypt_functional(core: &DesCoreNetlist, inputs: &EncryptionInputs) -> u64 {
    let mut ev = Evaluator::new(&core.netlist).expect("core validates");
    for i in 0..64 {
        ev.set_input(core.pt.s0[i], (inputs.pt.0 >> (63 - i)) & 1 == 1);
        ev.set_input(core.pt.s1[i], (inputs.pt.1 >> (63 - i)) & 1 == 1);
        ev.set_input(core.key.s0[i], (inputs.key.0 >> (63 - i)) & 1 == 1);
        ev.set_input(core.key.s1[i], (inputs.key.1 >> (63 - i)) & 1 == 1);
    }
    let nets = control_nets(core);
    for ctl in schedule(core.style).iter() {
        for (net, get) in nets {
            ev.set_input(net, get(ctl));
        }
        if let Some(r) = ctl.masks_for_round {
            for (b, &m) in core.masks.iter().enumerate() {
                ev.set_input(m, (inputs.round_masks[r] >> b) & 1 == 1);
            }
        }
        ev.clock(&core.netlist);
    }
    // Flush edge for the final state capture.
    for (net, _) in nets {
        ev.set_input(net, false);
    }
    ev.clock(&core.netlist);
    let mut ct = 0u64;
    for i in 0..64 {
        let bit = ev.value(core.ct.s0[i]) ^ ev.value(core.ct.s1[i]);
        ct = (ct << 1) | u64::from(bit);
    }
    ct
}

/// Owned (lifetime-free) driver state: the clocked event core plus the
/// prebuilt control schedule and a reused stimulus buffer. Campaign
/// workers hold one of these next to `Arc`s of the netlist/graph/delay
/// tables and call [`DesDriverCore::reset`] between traces; nothing is
/// rebuilt or reallocated per encryption.
pub struct DesDriverCore {
    clocked: ClockedCore,
    /// The (public, data-independent) control schedule, built once.
    schedule: Vec<CycleCtl>,
    /// Reused per-cycle stimulus buffer.
    stims: Vec<Stimulus>,
}

impl DesDriverCore {
    /// Build the driver state over a prebuilt [`SimGraph`] of the core.
    pub fn new(style: SboxStyle, graph: &SimGraph, period_ps: u64, seed: u64) -> Self {
        DesDriverCore {
            clocked: ClockedCore::new(graph, period_ps, seed),
            schedule: schedule(style),
            stims: Vec::with_capacity(256),
        }
    }

    /// Return the driver to the exact state of a freshly constructed one
    /// with the given seed: registers cleared, nets at the settled
    /// all-zero baseline, time at 0, delay/clk-to-Q RNG streams reseeded.
    pub fn reset(&mut self, graph: &SimGraph, seed: u64) {
        self.clocked.reset(graph, seed);
    }

    /// Clock period in ps.
    pub fn period_ps(&self) -> u64 {
        self.clocked.period_ps()
    }

    /// The underlying event-simulator core (read-only; counters survive
    /// [`DesDriverCore::reset`], so they accumulate over a campaign).
    pub fn sim(&self) -> &gm_sim::SimCore {
        self.clocked.sim()
    }

    /// Run one full encryption, streaming switching activity into `sink`.
    /// Device state persists across calls (no reset), like back-to-back
    /// operations on the real core; time restarts at 0 per call so power
    /// traces align.
    pub fn encrypt(
        &mut self,
        core: &DesCoreNetlist,
        graph: &SimGraph,
        delays: &DelayModel,
        inputs: &EncryptionInputs,
        sink: &mut impl PowerSink,
    ) -> u64 {
        // Restart the time base while keeping register contents.
        self.clocked.rebase_time();

        let nets = control_nets(core);
        let mut prev = CycleCtl::default();
        let data_offset = self.clocked.period_ps() / 8;
        let ctl_offset = self.clocked.period_ps() / 16;

        let mut stims = std::mem::take(&mut self.stims);
        for cyc in 0..self.schedule.len() {
            let ctl = self.schedule[cyc];
            stims.clear();
            if cyc == 0 {
                // Present plaintext/key shares during the load cycle.
                for i in 0..64 {
                    for (net, val) in [
                        (core.pt.s0[i], (inputs.pt.0 >> (63 - i)) & 1 == 1),
                        (core.pt.s1[i], (inputs.pt.1 >> (63 - i)) & 1 == 1),
                        (core.key.s0[i], (inputs.key.0 >> (63 - i)) & 1 == 1),
                        (core.key.s1[i], (inputs.key.1 >> (63 - i)) & 1 == 1),
                    ] {
                        stims.push(Stimulus { net, offset_ps: data_offset, value: val });
                    }
                }
            }
            for (net, get) in nets {
                if get(&ctl) != get(&prev) {
                    stims.push(Stimulus { net, offset_ps: ctl_offset, value: get(&ctl) });
                }
            }
            if let Some(r) = ctl.masks_for_round {
                for (b, &net) in core.masks.iter().enumerate() {
                    stims.push(Stimulus {
                        net,
                        offset_ps: data_offset,
                        value: (inputs.round_masks[r] >> b) & 1 == 1,
                    });
                }
            }
            self.clocked.step(graph, delays, &stims, sink);
            prev = ctl;
        }
        // Flush edge.
        stims.clear();
        for (net, get) in nets {
            if get(&prev) {
                stims.push(Stimulus { net, offset_ps: ctl_offset, value: false });
            }
        }
        self.clocked.step(graph, delays, &stims, sink);
        self.stims = stims;

        let mut ct = 0u64;
        for i in 0..64 {
            let bit = self.clocked.value(core.ct.s0[i]) ^ self.clocked.value(core.ct.s1[i]);
            ct = (ct << 1) | u64::from(bit);
        }
        ct
    }
}

/// Which graph a [`DesCoreDriver`] simulates over.
enum DriverGraph<'a> {
    Owned(Box<SimGraph>),
    Shared(&'a SimGraph),
}

impl DriverGraph<'_> {
    fn get(&self) -> &SimGraph {
        match self {
            DriverGraph::Owned(g) => g,
            DriverGraph::Shared(g) => g,
        }
    }
}

/// Event-driven driver producing glitch-accurate power traces.
///
/// Construction builds (or borrows via [`DesCoreDriver::with_graph`]) the
/// [`SimGraph`] for the core once; campaign loops call
/// [`DesCoreDriver::reset`] between traces instead of constructing a new
/// driver, which skips the graph/baseline rebuild and reuses the stimulus
/// and schedule buffers.
pub struct DesCoreDriver<'a> {
    core: &'a DesCoreNetlist,
    delays: &'a DelayModel,
    graph: DriverGraph<'a>,
    inner: DesDriverCore,
}

impl<'a> DesCoreDriver<'a> {
    /// Wrap a core with a clocked event simulation at the given period.
    pub fn new(
        core: &'a DesCoreNetlist,
        delays: &'a DelayModel,
        period_ps: u64,
        seed: u64,
    ) -> Self {
        let graph = Box::new(SimGraph::new(&core.netlist));
        let inner = DesDriverCore::new(core.style, &graph, period_ps, seed);
        DesCoreDriver { core, delays, graph: DriverGraph::Owned(graph), inner }
    }

    /// Like [`DesCoreDriver::new`], but sharing a prebuilt [`SimGraph`]
    /// (read-only, so one graph can serve every worker of a campaign).
    pub fn with_graph(
        core: &'a DesCoreNetlist,
        graph: &'a SimGraph,
        delays: &'a DelayModel,
        period_ps: u64,
        seed: u64,
    ) -> Self {
        let inner = DesDriverCore::new(core.style, graph, period_ps, seed);
        DesCoreDriver { core, delays, graph: DriverGraph::Shared(graph), inner }
    }

    /// Return the driver to the exact state of a freshly constructed one
    /// with the given seed (see [`DesDriverCore::reset`]).
    pub fn reset(&mut self, seed: u64) {
        self.inner.reset(self.graph.get(), seed);
    }

    /// Clock period in ps.
    pub fn period_ps(&self) -> u64 {
        self.inner.period_ps()
    }

    /// Cycles one encryption takes (including the flush edge).
    pub fn total_cycles(&self) -> usize {
        total_cycles(self.core.style)
    }

    /// Run one full encryption (see [`DesDriverCore::encrypt`]).
    pub fn encrypt(&mut self, inputs: &EncryptionInputs, sink: &mut impl PowerSink) -> u64 {
        self.inner.encrypt(self.core, self.graph.get(), self.delays, inputs, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist_gen::build_des_core;
    use crate::reference::Des;
    use gm_sim::power::NullSink;

    #[test]
    fn schedule_lengths() {
        // Setup + load + 16 rounds + flush: the paper's 115-cycle block.
        assert_eq!(total_cycles(SboxStyle::Ff), 115);
        assert_eq!(total_cycles(SboxStyle::Pd { unit_luts: 10 }), 1 + 1 + 1 + 32 + 1);
    }

    #[test]
    fn ff_core_functional_matches_reference() {
        let core = build_des_core(SboxStyle::Ff);
        let mut rng = MaskRng::new(171);
        for (pt, key) in [
            (0x0123456789ABCDEFu64, 0x133457799BBCDFF1u64),
            (0x8787878787878787, 0x0E329232EA6D0D73),
            (0xDEADBEEF01234567, 0xA55A_F00D_1234_5678),
        ] {
            let inputs = EncryptionInputs::draw(pt, key, &mut rng);
            assert_eq!(
                encrypt_functional(&core, &inputs),
                Des::new(key).encrypt_block(pt),
                "pt {pt:016x}"
            );
        }
    }

    #[test]
    fn pd_core_functional_matches_reference() {
        let core = build_des_core(SboxStyle::Pd { unit_luts: 1 });
        let mut rng = MaskRng::new(172);
        for (pt, key) in [
            (0x0123456789ABCDEFu64, 0x133457799BBCDFF1u64),
            (0x0000000000000000, 0xFFFFFFFFFFFFFFFF),
        ] {
            let inputs = EncryptionInputs::draw(pt, key, &mut rng);
            assert_eq!(
                encrypt_functional(&core, &inputs),
                Des::new(key).encrypt_block(pt),
                "pt {pt:016x}"
            );
        }
    }

    #[test]
    fn event_driver_matches_reference_ff() {
        let core = build_des_core(SboxStyle::Ff);
        let delays = DelayModel::nominal(&core.netlist);
        let period = 20_000;
        let mut drv = DesCoreDriver::new(&core, &delays, period, 3);
        let mut rng = MaskRng::new(173);
        for _ in 0..2 {
            let inputs = EncryptionInputs::draw(0x0123456789ABCDEF, 0x133457799BBCDFF1, &mut rng);
            let ct = drv.encrypt(&inputs, &mut NullSink);
            assert_eq!(ct, 0x85E813540F0AB405);
        }
    }

    /// A recycled driver (`reset` + shared graph) must be bit-identical
    /// to a freshly constructed one: same ciphertext, same power trace.
    #[test]
    fn reset_driver_matches_fresh() {
        use gm_sim::{PowerTrace, SimGraph};

        let core = build_des_core(SboxStyle::Pd { unit_luts: 1 });
        let delays = DelayModel::with_variation(&core.netlist, 0.15, 40.0, 99);
        let period = 20_000;
        let cycles = total_cycles(core.style) as u64;
        let mut rng = MaskRng::new(174);
        let batches: Vec<EncryptionInputs> = (0..3)
            .map(|_| EncryptionInputs::draw(0x0123456789ABCDEF, 0x133457799BBCDFF1, &mut rng))
            .collect();

        // Reference: a brand-new driver per trace (the old per-trace cost).
        let mut fresh = Vec::new();
        for (t, inputs) in batches.iter().enumerate() {
            let mut drv = DesCoreDriver::new(&core, &delays, period, 0xabc ^ t as u64);
            let mut trace = PowerTrace::new(0, 100, (cycles * period / 100) as usize);
            let ct = drv.encrypt(inputs, &mut trace);
            fresh.push((ct, trace.into_samples()));
        }

        // Recycled: one shared graph, one driver, reset per trace.
        let graph = SimGraph::new(&core.netlist);
        let mut drv = DesCoreDriver::with_graph(&core, &graph, &delays, period, 0);
        for (t, inputs) in batches.iter().enumerate() {
            drv.reset(0xabc ^ t as u64);
            let mut trace = PowerTrace::new(0, 100, (cycles * period / 100) as usize);
            let ct = drv.encrypt(inputs, &mut trace);
            assert_eq!(ct, fresh[t].0, "trace {t}: ciphertext differs");
            assert_eq!(trace.samples(), fresh[t].1.as_slice(), "trace {t}: power differs");
        }
    }

    /// Golden digest of one glitch-accurate encryption on the clocked
    /// event path: the secAND2-PD(10) core with σ = 40 ps per-event
    /// jitter and k = 0.4 delay-line coupling (the `fig17 --gate-level`
    /// configuration), hashed over every applied `(time, net, value)`
    /// transition and the bits of every power sample. Any change to event
    /// order, timing or energy in the engine, the event queue or the
    /// clocked harness changes the digest.
    #[test]
    fn pd10_encrypt_golden_digest() {
        use gm_sim::{CouplingModel, PowerTrace};

        /// FNV-1a over the little-endian bytes of each transition,
        /// forwarding it to the coupled power trace.
        struct Digest<S> {
            hash: u64,
            inner: S,
        }
        impl<S> Digest<S> {
            fn feed(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        impl<S: PowerSink> PowerSink for Digest<S> {
            fn transition(&mut self, t: u64, net: NetId, v: bool, w: f64) {
                self.feed(&t.to_le_bytes());
                self.feed(&net.0.to_le_bytes());
                self.feed(&[u8::from(v)]);
                self.inner.transition(t, net, v, w);
            }
        }

        let style = SboxStyle::Pd { unit_luts: 10 };
        let core = build_des_core(style);
        let timing = gm_netlist::timing::analyze(&core.netlist).expect("core validates");
        let period = timing.critical_path_ps * 6 / 5;
        let delays = DelayModel::with_variation(&core.netlist, 0.15, 40.0, 2023);
        let mut coupling = CouplingModel::new(600);
        for &(a, b) in &core.coupled_pairs {
            coupling.add_pair(a, b, 0.4);
        }
        let cycles = total_cycles(style);
        let trace = PowerTrace::new(0, period / 4, cycles * 4);
        let mut sink = Digest { hash: 0xcbf2_9ce4_8422_2325, inner: coupling.sink(trace) };
        let mut rng = MaskRng::new(2023);
        let inputs = EncryptionInputs::draw(0x0123456789ABCDEF, 0x133457799BBCDFF1, &mut rng);
        let graph = SimGraph::new(&core.netlist);
        let mut drv = DesDriverCore::new(style, &graph, period, 2023);
        let ct = drv.encrypt(&core, &graph, &delays, &inputs, &mut sink);
        assert_eq!(ct, 0x85E813540F0AB405);
        let samples = sink.inner.inner().samples().to_vec();
        for s in samples {
            sink.feed(&s.to_bits().to_le_bytes());
        }
        assert_eq!(sink.hash, 0xebd3_e22b_6420_55a2, "digest {:#018x}", sink.hash);
    }
}
