//! Property test for the timing-wheel event queue, differential against
//! `std`'s `BinaryHeap`: the wheel is a drop-in priority queue — identical
//! `(time, seq)` pop order for any push/pop interleaving the engine can
//! produce (pushes never precede the last popped time).
//!
//! The simulator-level contracts (wheel-backed core ≡ the reference
//! heap-backed core on random logic cones, `reset()` + rerun ≡ a fresh
//! core) are unit tests in `engine.rs`, because the reference heap queue
//! exists only in unit-test builds.

use gm_sim::TimingWheel;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wheel ≡ heap pop order under the engine's push contract: every
    /// push is at or after the most recently popped time, pops and
    /// pushes interleave arbitrarily, and times span multiple buckets
    /// plus the overflow region (bucket span is 512 ps × 256).
    #[test]
    fn wheel_matches_heap_order(ops in prop::collection::vec((0u64..300_000, 0u8..4), 1..300)) {
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut floor = 0u64; // last popped time
        for (seq, (dt, pops)) in ops.into_iter().enumerate() {
            let seq = seq as u64;
            let t = floor + dt;
            wheel.push(t, seq, seq);
            heap.push(Reverse((t, seq)));
            for _ in 0..pops {
                prop_assert_eq!(wheel.peek_time(), heap.peek().map(|r| r.0 .0));
                let Some(Reverse(want)) = heap.pop() else { break };
                let (wt, ws, payload) = wheel.pop().expect("wheel matches heap length");
                prop_assert_eq!((wt, ws), want);
                prop_assert_eq!(payload, ws);
                floor = wt;
            }
        }
        while let Some(Reverse(want)) = heap.pop() {
            let (wt, ws, _) = wheel.pop().expect("wheel matches heap length");
            prop_assert_eq!((wt, ws), want);
        }
        prop_assert!(wheel.pop().is_none());
        prop_assert!(wheel.is_empty());
    }
}
