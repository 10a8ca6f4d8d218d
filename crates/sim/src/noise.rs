//! Measurement-chain model: amplifier gain, additive Gaussian noise, and
//! ADC quantisation — turning ideal toggle-count traces into something that
//! looks like the "raw oscilloscope ADC output" of Fig. 13/16.
//!
//! The noise sigma is the lever that maps the paper's trace counts onto
//! tractable simulated campaigns: TVLA detection thresholds scale with
//! `noise² / N`, so dividing sigma by √k divides the traces-to-detection by
//! k. EXPERIMENTS.md records the scaling used for each figure.

use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::OnceLock;

/// Ziggurat layer count (Marsaglia–Tsang, standard normal).
const ZIG_LAYERS: usize = 256;
/// Rightmost layer boundary for 256 layers.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Per-layer area (the bottom layer's includes the tail mass).
const ZIG_V: f64 = 0.004_928_673_233_974_655;

/// Layer edges `x[i]` and densities `f[i] = exp(-x[i]²/2)`.
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

/// Tables are derived once from `(R, V)` by the standard downward
/// recursion and shared process-wide (they are a property of N(0,1),
/// not of any particular noise model instance).
fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = [0.0; ZIG_LAYERS + 1];
        // x[0] is the bottom layer's *effective* width: stretching the
        // strip to area V accounts for the tail beyond R.
        x[0] = ZIG_V / (-0.5 * ZIG_R * ZIG_R).exp();
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            let prev = x[i - 1];
            x[i] = (-2.0 * (ZIG_V / prev + (-0.5 * prev * prev).exp()).ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        for i in 0..=ZIG_LAYERS {
            f[i] = (-0.5 * x[i] * x[i]).exp();
        }
        ZigTables { x, f }
    })
}

/// A word source that serves a prefetched run of raw PRNG output before
/// falling through to the live generator.
///
/// The xoshiro step is a short serial dependency chain; interleaved with
/// the ziggurat transform, every draw stalls on the previous state
/// update. Prefetching one word per output sample in a tight loop lets
/// that chain retire back-to-back, and the transform loop then reads
/// words with no cross-iteration dependency. Each ziggurat sample
/// consumes **at least** one word, so a prefetch of `out.len()` words
/// never outlives its fill call: rejections simply overflow to the live
/// generator, whose state already sits past the prefetched run — the
/// consumed stream is position-for-position the sequential one.
struct BufferedWords<'a> {
    buf: &'a [u64],
    pos: usize,
    rng: &'a mut SmallRng,
}

impl RngCore for BufferedWords<'_> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        match self.buf.get(self.pos) {
            Some(&w) => {
                self.pos += 1;
                w
            }
            None => self.rng.next_u64(),
        }
    }
}

/// Ziggurat core, generic over the RNG borrow so the hoisted-table bulk
/// fill and the one-shot path share one implementation. See
/// [`MeasurementModel::gauss`] for the algorithm notes.
fn gauss_with<R: RngCore>(rng: &mut R, t: &ZigTables) -> f64 {
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // 53-bit uniform in [-1, 1) from the non-layer bits.
        let u = ((bits >> 11) as f64) * (2.0 / 9_007_199_254_740_992.0) - 1.0;
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x;
        }
        if i == 0 {
            // Tail beyond R: Marsaglia's exponential-majorant draw.
            loop {
                let a = rng.random::<f64>().max(f64::MIN_POSITIVE).ln() / ZIG_R;
                let b = rng.random::<f64>().max(f64::MIN_POSITIVE).ln();
                if -2.0 * b >= a * a {
                    return if u < 0.0 { a - ZIG_R } else { ZIG_R - a };
                }
            }
        }
        // Wedge: accept under the true density.
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.random::<f64>() < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// Measurement chain applied to an ideal power trace.
#[derive(Debug, Clone)]
pub struct MeasurementModel {
    /// Multiplicative gain (ADC counts per unit of weighted toggle).
    pub gain: f64,
    /// Additive Gaussian noise sigma, in ADC counts, applied per sample.
    pub noise_sigma: f64,
    /// ADC resolution in bits; samples clamp to the signed full-scale range.
    pub adc_bits: u32,
    rng: SmallRng,
}

impl MeasurementModel {
    /// Build a measurement model with its own noise RNG.
    pub fn new(gain: f64, noise_sigma: f64, adc_bits: u32, seed: u64) -> Self {
        assert!((2..=24).contains(&adc_bits), "unrealistic ADC width");
        MeasurementModel {
            gain,
            noise_sigma,
            adc_bits,
            rng: SmallRng::seed_from_u64(seed ^ 0x853c_49e6_748f_ea9b),
        }
    }

    /// Standard normal deviate: 256-layer ziggurat (Marsaglia–Tsang).
    ///
    /// The noise draw sits on the campaign hot path — one per trace
    /// sample — and Box–Muller's `ln`/`sin_cos` pair dominated whole
    /// TVLA campaigns. The ziggurat needs one `u64` draw, a table
    /// lookup, and a multiply ~98.8% of the time; only wedge and tail
    /// rejections (the remaining ~1%) touch `exp`/`ln`. The sampled
    /// distribution is exactly N(0,1) either way.
    fn gauss(&mut self) -> f64 {
        gauss_with(&mut self.rng, zig_tables())
    }

    /// Fill `out` with standard-normal draws — the bulk form of the
    /// per-sample ziggurat, consuming the noise RNG stream in element
    /// order. `out[j]` is bit-identical to the `j`-th sequential
    /// `gauss()` on the same state; the lane-major trace sources prefill
    /// one tile per 64-trace group with this so the noise stage runs
    /// once per group instead of once per sample call.
    pub fn fill_gauss(&mut self, out: &mut [f64]) {
        let t = zig_tables();
        // Prefetch one raw word per sample per chunk (see
        // [`BufferedWords`]); values and stream order are untouched.
        const CHUNK: usize = 1024;
        let mut words = [0u64; CHUNK];
        for block in out.chunks_mut(CHUNK) {
            let prefetched = &mut words[..block.len()];
            for w in prefetched.iter_mut() {
                *w = self.rng.next_u64();
            }
            let mut src = BufferedWords { buf: prefetched, pos: 0, rng: &mut self.rng };
            for o in block {
                *o = gauss_with(&mut src, t);
            }
        }
    }

    /// Noise-free unquantised chain (for calibration and debugging).
    pub fn ideal() -> Self {
        MeasurementModel::new(1.0, 0.0, 24, 0)
    }

    /// ADC full scale (half range, signed).
    pub fn full_scale(&self) -> f64 {
        f64::from(1u32 << (self.adc_bits - 1))
    }

    /// Apply gain, noise, and quantisation to one sample.
    pub fn sample(&mut self, ideal: f64) -> f64 {
        let mut v = ideal * self.gain;
        if self.noise_sigma > 0.0 {
            v += self.gauss() * self.noise_sigma;
        }
        let fs = self.full_scale();
        v.round().clamp(-fs, fs - 1.0)
    }

    /// Apply the chain to a whole trace in place, one
    /// [`MeasurementModel::sample`] per element in trace order.
    pub fn apply(&mut self, trace: &mut [f64]) {
        for s in trace {
            *s = self.sample(*s);
        }
    }

    /// Run `ideal` through the chain into `out` (up to the shorter of
    /// the two slices): the out-of-place batched form campaign trace
    /// sources use to turn binned toggle energy into ADC samples.
    pub fn sample_into(&mut self, ideal: &[f64], out: &mut [f64]) {
        let n = ideal.len().min(out.len());
        out[..n].copy_from_slice(&ideal[..n]);
        self.apply(&mut out[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_chain_rounds_only() {
        let mut m = MeasurementModel::ideal();
        assert_eq!(m.sample(3.4), 3.0);
        assert_eq!(m.sample(3.6), 4.0);
    }

    #[test]
    fn clamps_to_adc_range() {
        let mut m = MeasurementModel::new(1.0, 0.0, 8, 0);
        assert_eq!(m.sample(1e9), 127.0);
        assert_eq!(m.sample(-1e9), -128.0);
    }

    #[test]
    fn noise_statistics() {
        let mut m = MeasurementModel::new(1.0, 10.0, 16, 1);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| m.sample(100.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
        // Quantisation adds 1/12 variance.
        assert!((var - 100.0).abs() < 5.0, "var {var}");
    }

    /// The whole-trace entry points must consume the RNG stream exactly
    /// like the per-sample chain: same seed, same ADC counts.
    #[test]
    fn batched_chain_matches_per_sample() {
        let ideal: Vec<f64> = (0..257).map(|i| (i as f64 * 13.7).sin() * 900.0).collect();
        let mut want = Vec::new();
        {
            let mut m = MeasurementModel::new(1.3, 6.0, 12, 77);
            for &s in &ideal {
                want.push(m.sample(s));
            }
        }
        let mut m = MeasurementModel::new(1.3, 6.0, 12, 77);
        let mut got = ideal.clone();
        m.apply(&mut got);
        assert_eq!(got, want, "apply");
        let mut m = MeasurementModel::new(1.3, 6.0, 12, 77);
        let mut got = vec![0.0; ideal.len()];
        m.sample_into(&ideal, &mut got);
        assert_eq!(got, want, "sample_into");
    }

    /// The bulk fill must be the same RNG stream as sequential draws.
    #[test]
    fn fill_gauss_matches_sequential_draws() {
        let mut seq = MeasurementModel::new(1.0, 1.0, 12, 123);
        let want: Vec<f64> = (0..1000).map(|_| seq.gauss()).collect();
        let mut bulk = MeasurementModel::new(1.0, 1.0, 12, 123);
        let mut got = vec![0.0; 1000];
        bulk.fill_gauss(&mut got);
        assert_eq!(got, want);
        // Split fills continue the stream exactly.
        let mut split = MeasurementModel::new(1.0, 1.0, 12, 123);
        let mut head = vec![0.0; 300];
        let mut tail = vec![0.0; 700];
        split.fill_gauss(&mut head);
        split.fill_gauss(&mut tail);
        head.extend_from_slice(&tail);
        assert_eq!(head, want);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = MeasurementModel::new(1.0, 5.0, 12, 9);
        let mut b = MeasurementModel::new(1.0, 5.0, 12, 9);
        for _ in 0..100 {
            assert_eq!(a.sample(7.0), b.sample(7.0));
        }
    }
}
