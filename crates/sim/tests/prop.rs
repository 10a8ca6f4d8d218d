//! Property test for the timing-wheel event queue, differential against
//! `std`'s `BinaryHeap`: the wheel is a drop-in priority queue — identical
//! `(time, seq)` pop order for any push/pop interleaving the engine can
//! produce (pushes never precede the last popped time, and `seq` grows
//! with push order).
//!
//! The simulator-level contracts (wheel-backed core ≡ the reference
//! heap-backed core on random logic cones, `reset()` + rerun ≡ a fresh
//! core) are unit tests in `engine.rs`, because the reference heap queue
//! exists only in unit-test builds.

use gm_sim::wheel::HORIZON_PS;
use gm_sim::TimingWheel;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wheel ≡ heap pop order under the engine's push contract. Each op
    /// pushes a burst at one time (one event, or up to hundreds at the
    /// same picosecond, like the 256 data stimuli at a cycle's data
    /// offset), pops a few or many, then optionally probes with
    /// `pop_at_most`. Offsets range from the same picosecond through the
    /// ring horizon (`HORIZON_PS`, exactly and ±2 ps) to several horizons
    /// ahead, so events spill from the overflow list. When a probe
    /// returns `None`, an event is pushed earlier than the peeked front —
    /// `run_until`'s horizon pattern.
    #[test]
    fn wheel_matches_heap_order(ops in prop::collection::vec(
        (
            prop_oneof![
                0u64..64,
                0u64..4_000,
                0u64..300_000,
                (HORIZON_PS - 2)..(HORIZON_PS + 3),
            ],
            prop_oneof![Just(1u16), 1u16..400],
            prop_oneof![0u16..4, 0u16..600],
            any::<bool>(),
            0u64..40_000,
        ),
        1..300,
    )) {
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut floor = 0u64; // last popped time
        let mut seq = 0u64;
        let mut push = |wheel: &mut TimingWheel<u64>, heap: &mut BinaryHeap<_>, t: u64| {
            wheel.push(t, seq, seq);
            heap.push(Reverse((t, seq)));
            seq += 1;
        };
        for (dt, burst, pops, probe, probe_dt) in ops {
            for _ in 0..burst {
                push(&mut wheel, &mut heap, floor + dt);
            }
            for _ in 0..pops {
                prop_assert_eq!(wheel.peek_time(), heap.peek().map(|r| r.0 .0));
                let Some(Reverse(want)) = heap.pop() else { break };
                let (wt, ws, payload) = wheel.pop().expect("wheel matches heap length");
                prop_assert_eq!((wt, ws), want);
                prop_assert_eq!(payload, ws);
                floor = wt;
            }
            if probe {
                let t_max = floor + probe_dt;
                match heap.peek().map(|r| r.0) {
                    Some(want) if want.0 <= t_max => {
                        heap.pop();
                        prop_assert_eq!(wheel.pop_at_most(t_max), Some((want.0, want.1, want.1)));
                        floor = want.0;
                    }
                    front => {
                        prop_assert_eq!(wheel.pop_at_most(t_max), None);
                        if let Some((front, _)) = front {
                            push(&mut wheel, &mut heap, floor + (front - floor) / 2);
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        while let Some(Reverse(want)) = heap.pop() {
            let (wt, ws, _) = wheel.pop().expect("wheel matches heap length");
            prop_assert_eq!((wt, ws), want);
        }
        prop_assert!(wheel.pop().is_none());
        prop_assert!(wheel.is_empty());
    }
}
