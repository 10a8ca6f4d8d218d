//! Exact-time calendar queue ("timing wheel") for the event engine.
//!
//! The simulator's pending-event set is small and clustered in time
//! (transport delays of a few hundred ps around the current instant), but
//! a full-DES trace pushes and pops ~150 k events through it, so the
//! queue should neither sort nor compare. The wheel gives every
//! picosecond of the next [`HORIZON_PS`] its own ring slot: slot
//! `t mod HORIZON_PS` holds the events due at exactly `t` as a FIFO list
//! threaded through a reused node pool. A pop takes the head of the first
//! non-empty slot at or after the cursor; a two-level occupancy bitmap
//! finds that slot in a few word scans, also across the idle stretch at
//! the end of a clock cycle. Events beyond the horizon wait in an
//! overflow list and are folded back into the ring, in push order, as the
//! cursor approaches them.
//!
//! Events are ordered by `(time, seq)`. The engine draws every `seq` from
//! one push counter, so `seq` grows with push order, FIFO order within a
//! slot *is* `seq` order, and the pop order is the `(time, seq)` order of
//! the reference `BinaryHeap` without a single key comparison. The
//! `wheel_matches_heap` property tests pin that equivalence.

use gm_obs::{Counter, Report};

/// log2 of the ring span in ps.
const HORIZON_SHIFT: u32 = 15;
/// Ring span in ps (one slot per ps, 32.8 ns). Propagation pushes land
/// one gate delay past the cursor, and a clocked harness's stimuli at
/// most a fraction of a period past the edge, which lies within the span
/// of the cycle's last event in all but quiet cycles: overflow stays
/// rare (294 of ~148 k pushes on a PD(10) DES trace). The ring's list
/// tails take 128 KiB.
pub const HORIZON_PS: u64 = 1 << HORIZON_SHIFT;
const SLOT_MASK: u64 = HORIZON_PS - 1;
const OCC_WORDS: usize = (HORIZON_PS / 64) as usize;
const SUM_WORDS: usize = OCC_WORDS / 64;
/// Empty slot / end of the free list. Node 0 is a sentinel that is never
/// linked, so 0 can mark "no node" and the ring starts out as zero pages.
const NIL: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct Node<T> {
    seq: u64,
    /// Next node of the slot's circular list, or of the free list.
    next: u32,
    payload: T,
}

#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

/// A min-queue over `(time, seq)` keys whose push and pop do constant
/// work: no sorting and no key comparisons.
///
/// Contract: `seq` must grow with push order (between [`clear`]s), and
/// every push must carry a time at or after the last popped key — the
/// engine's causality guarantee (`schedule` refuses the past, propagation
/// always lands strictly later). An empty wheel also accepts earlier
/// times (a fresh trace on a recycled core).
///
/// Invariants:
/// * `cur` is the time of the most recently popped key (0 initially); it
///   advances only when a pop commits to a later key;
/// * the ring holds exactly the queued events with time in
///   `[cur, cur + HORIZON_PS)`, each in slot `time & SLOT_MASK`. A slot is
///   a circular singly linked list in `nodes`: `tails[slot]` is the newest
///   node and its `next` the oldest, so both append and pop-front are
///   O(1). `occ` bit `slot` is set iff the slot is non-empty, `summary`
///   bit `w` iff `occ[w] != 0`;
/// * `overflow` holds the rest, all at `>= cur + HORIZON_PS`, in push
///   order, with `overflow_min` its minimum time.
///
/// [`clear`]: TimingWheel::clear
#[derive(Debug, Clone)]
pub struct TimingWheel<T> {
    /// Newest node per ring slot, or `NIL`. Empty until the first push:
    /// building a core must not pay for the ring.
    tails: Vec<u32>,
    occ: Vec<u64>,
    summary: [u64; SUM_WORDS],
    /// Node pool; freed nodes chain through `next` from `free`.
    nodes: Vec<Node<T>>,
    free: u32,
    cur: u64,
    overflow: Vec<Entry<T>>,
    overflow_min: u64,
    len: usize,
    /// Smallest `seq` the next push may carry (contract check only).
    #[cfg(debug_assertions)]
    next_seq: u64,
    stats: WheelStats,
}

/// Lifetime operation counters of a [`TimingWheel`] (all zero and
/// zero-sized under `obs-off`). Survives [`TimingWheel::clear`], so a
/// recycled per-worker wheel accumulates whole-campaign totals.
#[derive(Debug, Clone, Default)]
pub struct WheelStats {
    /// Pushes landing in a ring slot.
    pub pushes_ring: Counter,
    /// Pushes beyond the ring horizon (overflow list).
    pub pushes_overflow: Counter,
    /// Overflow entries folded back into the ring as the cursor
    /// approached them.
    pub spills: Counter,
    /// Cursor advances (pops that moved to a later time).
    pub advances: Counter,
}

impl WheelStats {
    /// Export all counters under `prefix` (e.g. `"wheel"`).
    pub fn report_into(&self, prefix: &str, r: &mut Report) {
        r.set_nonzero(&format!("{prefix}.push_ring"), self.pushes_ring.get());
        r.set_nonzero(&format!("{prefix}.push_overflow"), self.pushes_overflow.get());
        r.set_nonzero(&format!("{prefix}.spills"), self.spills.get());
        r.set_nonzero(&format!("{prefix}.advances"), self.advances.get());
    }
}

impl<T: Copy> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T: Copy> TimingWheel<T> {
    /// An empty wheel positioned at time 0. Allocates nothing; the ring
    /// is allocated by the first push.
    pub fn new() -> Self {
        TimingWheel {
            tails: Vec::new(),
            occ: Vec::new(),
            summary: [0; SUM_WORDS],
            nodes: Vec::new(),
            free: NIL,
            cur: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
            #[cfg(debug_assertions)]
            next_seq: 0,
            stats: WheelStats::default(),
        }
    }

    /// Lifetime operation counters (zeros under `obs-off`).
    pub fn stats(&self) -> &WheelStats {
        &self.stats
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue an event. `seq` must exceed every earlier push's `seq`
    /// since the last [`TimingWheel::clear`], and `time` must be at or
    /// after the last popped key unless the wheel is empty.
    pub fn push(&mut self, time: u64, seq: u64, payload: T) {
        if self.len == 0 && time < self.cur {
            // Idle wheel rewound (fresh trace on a recycled core).
            self.cur = time;
        }
        debug_assert!(time >= self.cur, "event precedes the last popped key");
        #[cfg(debug_assertions)]
        {
            assert!(seq >= self.next_seq, "seq must grow with push order");
            self.next_seq = seq + 1;
        }
        if time - self.cur < HORIZON_PS {
            self.stats.pushes_ring.inc();
            self.link(time, seq, payload);
        } else {
            self.stats.pushes_overflow.inc();
            self.overflow.push(Entry { time, seq, payload });
            self.overflow_min = self.overflow_min.min(time);
        }
        self.len += 1;
    }

    /// Timestamp of the earliest queued event. Read-only: the cursor does
    /// not move, so earlier (but post-`cur`) pushes remain legal after a
    /// peek — `run_until` peeks past its horizon, then the caller
    /// schedules the next cycle's stimuli before those events pop.
    pub fn peek_time(&self) -> Option<u64> {
        self.front_time()
    }

    /// Remove and return the earliest event as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let t = self.front_time()?;
        Some(self.take(t))
    }

    /// Remove and return the earliest event iff its time is at most
    /// `t_max`. Equivalent to [`TimingWheel::peek_time`] followed by
    /// [`TimingWheel::pop`] with a single slot search — and, like a bare
    /// peek, it does *not* commit the cursor when the front event lies
    /// beyond the horizon, so earlier (post-`cur`) pushes remain legal
    /// afterwards.
    pub fn pop_at_most(&mut self, t_max: u64) -> Option<(u64, u64, T)> {
        let t = self.front_time()?;
        if t > t_max {
            return None;
        }
        Some(self.take(t))
    }

    /// Drop all queued events and rewind to time 0. Keeps the ring and
    /// the pool's capacity.
    pub fn clear(&mut self) {
        if self.len > self.overflow.len() {
            for sw in 0..SUM_WORDS {
                let mut words = self.summary[sw];
                while words != 0 {
                    let w = sw * 64 + words.trailing_zeros() as usize;
                    let mut bits = self.occ[w];
                    while bits != 0 {
                        self.tails[w * 64 + bits.trailing_zeros() as usize] = NIL;
                        bits &= bits - 1;
                    }
                    self.occ[w] = 0;
                    words &= words - 1;
                }
            }
            self.summary = [0; SUM_WORDS];
        }
        self.nodes.truncate(1);
        self.free = NIL;
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.cur = 0;
        self.len = 0;
        #[cfg(debug_assertions)]
        {
            self.next_seq = 0;
        }
    }

    /// Time of the earliest queued event. Ring events all precede
    /// overflow events, so the overflow minimum is the front only when
    /// the ring is empty.
    #[inline]
    fn front_time(&self) -> Option<u64> {
        if self.len == self.overflow.len() {
            return (self.len != 0).then_some(self.overflow_min);
        }
        let start = (self.cur & SLOT_MASK) as usize;
        let slot = self.next_slot(start) as u64;
        Some(self.cur + (slot.wrapping_sub(start as u64) & SLOT_MASK))
    }

    /// Commit the cursor to `t` (the front time) and pop the oldest event
    /// of its slot.
    #[inline]
    fn take(&mut self, t: u64) -> (u64, u64, T) {
        if t != self.cur {
            self.stats.advances.inc();
            self.cur = t;
            if self.overflow_min - t < HORIZON_PS {
                self.fold_overflow();
            }
        }
        let slot = (t & SLOT_MASK) as usize;
        let tail = self.tails[slot];
        let head = self.nodes[tail as usize].next;
        let node = self.nodes[head as usize];
        if head == tail {
            self.tails[slot] = NIL;
            let w = slot / 64;
            self.occ[w] &= !(1 << (slot % 64));
            if self.occ[w] == 0 {
                self.summary[w / 64] &= !(1 << (w % 64));
            }
        } else {
            self.nodes[tail as usize].next = node.next;
        }
        self.nodes[head as usize].next = self.free;
        self.free = head;
        self.len -= 1;
        (t, node.seq, node.payload)
    }

    /// Append an event inside the horizon to the tail of its slot.
    #[inline]
    fn link(&mut self, time: u64, seq: u64, payload: T) {
        if self.nodes.is_empty() {
            // First push: the zeroed (lazily mapped) ring and bitmap, and
            // the never-linked sentinel node 0; `clear` keeps all three.
            self.tails = vec![NIL; HORIZON_PS as usize];
            self.occ = vec![0; OCC_WORDS];
            self.nodes.push(Node { seq: 0, next: NIL, payload });
        }
        let node = Node { seq, next: NIL, payload };
        let n = if self.free != NIL {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        let slot = (time & SLOT_MASK) as usize;
        let tail = self.tails[slot];
        if tail == NIL {
            self.nodes[n as usize].next = n;
            let w = slot / 64;
            self.occ[w] |= 1 << (slot % 64);
            self.summary[w / 64] |= 1 << (w % 64);
        } else {
            self.nodes[n as usize].next = self.nodes[tail as usize].next;
            self.nodes[tail as usize].next = n;
        }
        self.tails[slot] = n;
    }

    /// Move every overflow event now inside the horizon into the ring,
    /// in push order, so each slot's list stays in `seq` order. Every
    /// event already in the ring is earlier than every moved one, so no
    /// slot receives both.
    fn fold_overflow(&mut self) {
        let end = self.cur + HORIZON_PS;
        let mut overflow = std::mem::take(&mut self.overflow);
        let mut min = u64::MAX;
        overflow.retain(|e| {
            if e.time < end {
                self.stats.spills.inc();
                self.link(e.time, e.seq, e.payload);
                false
            } else {
                min = min.min(e.time);
                true
            }
        });
        self.overflow = overflow;
        self.overflow_min = min;
    }

    /// First occupied ring slot at or after `start`, in ring order. The
    /// caller guarantees the ring is non-empty.
    #[inline]
    fn next_slot(&self, start: usize) -> usize {
        let w = start / 64;
        let bits = self.occ[w] >> (start % 64);
        if bits != 0 {
            return start + bits.trailing_zeros() as usize;
        }
        // The next non-empty word after `w`, wrapping around; `w` itself
        // comes last, for its slots below `start`.
        let from = (w + 1) % OCC_WORDS;
        let sw = from / 64;
        let words = self.summary[sw] >> (from % 64);
        let w = if words != 0 {
            from + words.trailing_zeros() as usize
        } else {
            (1..=SUM_WORDS)
                .map(|step| (sw + step) % SUM_WORDS)
                .find(|&j| self.summary[j] != 0)
                .map(|j| j * 64 + self.summary[j].trailing_zeros() as usize)
                .expect("ring holds an event")
        };
        w * 64 + self.occ[w].trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut TimingWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_in_time_seq_order() {
        let mut w = TimingWheel::new();
        for (i, t) in [500u64, 100, 100, 90_000, 3, 700, 100].iter().enumerate() {
            w.push(*t, i as u64, i as u32);
        }
        let popped = drain_all(&mut w);
        let times: Vec<u64> = popped.iter().map(|e| e.0).collect();
        assert_eq!(times, vec![3, 100, 100, 100, 500, 700, 90_000]);
        // Equal times pop in seq order.
        let seqs: Vec<u64> = popped.iter().filter(|e| e.0 == 100).map(|e| e.1).collect();
        assert_eq!(seqs, vec![1, 2, 6]);
    }

    #[test]
    fn far_future_via_overflow() {
        let mut w = TimingWheel::new();
        w.push(5 * HORIZON_PS, 0, 0);
        w.push(10, 1, 1);
        w.push(2 * HORIZON_PS + 3, 2, 2);
        assert_eq!(w.peek_time(), Some(10));
        let times: Vec<u64> = drain_all(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(times, vec![10, 2 * HORIZON_PS + 3, 5 * HORIZON_PS]);
    }

    /// Overflow events fold back ahead of later pushes to the same
    /// picosecond, so a slot stays in `seq` order across the fold.
    #[test]
    fn folded_overflow_precedes_later_pushes_at_the_same_time() {
        let mut w = TimingWheel::new();
        let t = HORIZON_PS + 100;
        w.push(t, 0, 0); // beyond the horizon: overflow
        w.push(t, 1, 1); // overflow, behind seq 0
        w.push(200, 2, 2);
        assert_eq!(w.pop(), Some((200, 2, 2))); // cursor at 200: folds both
        w.push(t, 3, 3); // now inside the horizon: ring
        let seqs: Vec<u64> = drain_all(&mut w).iter().map(|e| e.1).collect();
        assert_eq!(seqs, vec![0, 1, 3]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut w = TimingWheel::new();
        w.push(1_000, 0, 0);
        assert_eq!(w.pop().unwrap().0, 1_000);
        // Push at the popped time itself and just after it.
        w.push(1_000, 1, 1);
        w.push(1_005, 2, 2);
        w.push(1_003, 3, 3);
        assert_eq!(w.pop(), Some((1_000, 1, 1)));
        w.push(1_004, 4, 4);
        let times: Vec<u64> = drain_all(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(times, vec![1_003, 1_004, 1_005]);
        assert!(w.is_empty());
    }

    /// A peek must not commit the cursor: after peeking a far-future
    /// event, pushes at earlier (still post-pop) times stay legal and pop
    /// first. This is `run_until`'s horizon pattern.
    #[test]
    fn peek_then_earlier_push() {
        let mut w = TimingWheel::new();
        w.push(200_000, 0, 0);
        assert_eq!(w.peek_time(), Some(200_000));
        assert_eq!(w.pop_at_most(199_999), None);
        w.push(1_500, 1, 1);
        w.push(300, 2, 2);
        assert_eq!(w.peek_time(), Some(300));
        let times: Vec<u64> = drain_all(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(times, vec![300, 1_500, 200_000]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut w = TimingWheel::new();
        for i in 0..100u64 {
            w.push(i * 997, i, i as u32);
        }
        w.push(3 * HORIZON_PS, 100, 100);
        w.pop();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
        w.push(42, 0, 7);
        assert_eq!(w.pop(), Some((42, 0, 7)));
        assert_eq!(w.pop(), None);
    }

    /// The three routes an event can take into the ring: a direct push,
    /// a push beyond the horizon, and that event's later spill.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn stats_census_all_three_push_routes() {
        let mut w = TimingWheel::new();
        w.push(3, 0, 0); // ring
        w.push(1_000, 1, 1); // ring
        w.push(2 * HORIZON_PS, 2, 2); // beyond the horizon: overflow
        drain_all(&mut w);
        let s = w.stats();
        assert_eq!(s.pushes_ring.get(), 2);
        assert_eq!(s.pushes_overflow.get(), 1);
        assert_eq!(s.spills.get(), 1, "overflow entry folded back on approach");
        assert_eq!(s.advances.get(), 3, "cursor moved from 0 to 3, 1000, 2 horizons");
        w.clear();
        assert_eq!(w.stats().pushes_ring.get(), 2, "stats survive clear");

        let mut r = Report::new();
        w.stats().report_into("wheel", &mut r);
        assert_eq!(r.get("wheel.spills"), Some(1));
        assert_eq!(r.get("wheel.push_overflow"), Some(1));
    }

    #[test]
    fn idle_wheel_repositions_backwards() {
        // After draining, an idle wheel may legally receive an event
        // earlier than the last popped key (sim time rebased / new trace).
        let mut w = TimingWheel::new();
        w.push(1_000_000, 0, 0);
        w.pop();
        w.push(5, 1, 1);
        assert_eq!(w.pop(), Some((5, 1, 1)));
    }
}
