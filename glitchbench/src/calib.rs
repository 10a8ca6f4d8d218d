//! Host-speed calibration. On a shared host the speed of a CPU drifts
//! by tens of percent over tens of seconds (other tenants contend for
//! its core, caches and memory), and the drift moves every timing of a
//! run together. A fixed kernel that calls no program code, timed on
//! the same CPU right before and after each timed section, measures that
//! drift; dividing the section's wall time by the kernel's slowdown
//! against [`NOMINAL_S`] gives the time the section would have taken at
//! the host's unloaded speed.
//!
//! The kernel mixes what the workloads spend their time on: 64-bit
//! bitwise logic, data-dependent loads from an L2-sized table, popcounts
//! and a floating-point multiply-add chain.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time on an unloaded CPU of the reference host (a 2-vCPU
/// Xeon KVM guest). It only scales the corrected figures: a
/// corrected time reads as wall time at this kernel speed.
pub const NOMINAL_S: f64 = 0.0085;

/// Table size of the kernel: 256 KiB, resident in L2.
const WORDS: usize = 1 << 15;
/// Passes over the table per timing.
const PASSES: usize = 64;

fn kernel(table: &mut [u64]) -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0.0f64;
    let mask = table.len() - 1;
    for _ in 0..PASSES {
        for i in 0..table.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = table[i] ^ (table[x as usize & mask] & x) ^ (!table[i] | x.rotate_left(11));
            table[i] = v;
            let f = f64::from(v.count_ones());
            acc = acc * 0.999 + f * f;
        }
    }
    acc
}

/// Wall seconds of one kernel run on the calling thread's CPU.
pub fn time() -> f64 {
    let mut table = vec![1u64; WORDS];
    // One untimed pass brings the table into cache.
    black_box(&mut table).iter_mut().for_each(|w| *w = w.wrapping_add(1));
    let t = Instant::now();
    black_box(kernel(black_box(&mut table)));
    t.elapsed().as_secs_f64()
}

/// `wall_s` scaled to the unloaded host speed, given the kernel times
/// taken right before and after it.
pub fn correct(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * NOMINAL_S * 2.0 / (before_s + after_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_times_are_positive_and_correction_scales() {
        assert!(time() > 0.0);
        assert_eq!(correct(3.0, NOMINAL_S, NOMINAL_S), 3.0);
        assert_eq!(correct(3.0, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 1.5);
    }
}
