//! The machine's speed, measured while the benchmark runs, so that a
//! timing can be reported at one fixed speed.
//!
//! The boxes this runs on have two speeds. The same cache-resident
//! popcount loop takes 565 ns or 760 ns, the same sort 2.4 ms or 3.1 ms,
//! and the box flips between the two every few seconds as its neighbours
//! come and go — sometimes most of a run is fast, sometimes none of it.
//! No statistic of one run's wall-clock samples survives that: the same
//! build and seed read `big_p50_ms` 6.3 or 8.3 on `warm-scoring` by median
//! and 6.2 or 7.8 by minimum (README: "Noise").
//!
//! So every thread that times anything carries a [`Speedometer`]: a fixed
//! piece of work — half bit-parallel, half branchy, none of it code of the
//! program under test — timed again whenever the last reading is older
//! than [`STALE`]. A sample is multiplied by `REFERENCE_NS / probe_ns`: what
//! it would have taken had the machine run at the reference speed
//! throughout. The reference is this box's fast speed, so on a quiet box
//! the factor is 1 and a reported millisecond is a wall-clock one.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the probe takes on the box the bounds were set on, at its fast
/// speed (185 µs fast, 225–235 µs slow). Ratios between reported times
/// depend on the code alone; their absolute scale is tied to this
/// constant, so it must not change between runs that are compared.
pub const REFERENCE_NS: f64 = 185_000.0;

/// A reading older than this is taken again before it is used: the box
/// holds a speed for seconds, so a tenth of a second is current enough,
/// and three probes of under a quarter millisecond each tenth of a second
/// cost well under one percent of the run.
const STALE: Duration = Duration::from_millis(100);

/// Back-to-back repetitions of the probe; the fastest counts, so one
/// interrupt or preemption does not read as a slow machine.
const REPEATS: usize = 3;

const WORDS: usize = 2048;
const KEYS: usize = 4096;
const PASSES: usize = 128;

pub struct Speedometer {
    a: Vec<u64>,
    b: Vec<u64>,
    keys: Vec<u32>,
    scratch: Vec<u32>,
    factor: f64,
    read_at: Instant,
    /// Every reading of the run, in nanoseconds, for the report.
    readings: Vec<f64>,
}

impl Default for Speedometer {
    fn default() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut s = Speedometer {
            a: (0..WORDS).map(|_| next()).collect(),
            b: (0..WORDS).map(|_| next()).collect(),
            keys: (0..KEYS).map(|_| next() as u32).collect(),
            scratch: Vec::with_capacity(KEYS),
            factor: 1.0,
            read_at: Instant::now(),
            readings: Vec::new(),
        };
        s.read();
        s
    }
}

impl Speedometer {
    /// The fixed work, about half of each: [`PASSES`] AND-popcounts over
    /// two 16 KiB slices, then a sort of [`KEYS`] scrambled keys.
    fn work(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..PASSES {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            acc += a
                .iter()
                .zip(b)
                .map(|(x, y)| u64::from((x & y).count_ones()))
                .sum::<u64>();
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(black_box(&self.keys));
        self.scratch.sort_unstable();
        acc + u64::from(self.scratch[KEYS / 2])
    }

    fn read(&mut self) {
        let mut best = f64::INFINITY;
        for _ in 0..REPEATS {
            let start = Instant::now();
            black_box(self.work());
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        self.readings.push(best);
        self.factor = REFERENCE_NS / best;
        self.read_at = Instant::now();
    }

    /// What to multiply a wall-clock duration that starts now by, to get
    /// the duration at the reference speed.
    pub fn factor(&mut self) -> f64 {
        if self.read_at.elapsed() > STALE {
            self.read();
        }
        self.factor
    }

    /// Every probe time of the run, in nanoseconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fresh_reading_is_reused_and_a_stale_one_is_not() {
        let mut s = Speedometer::default();
        assert_eq!(s.readings().len(), 1);
        let f = s.factor();
        assert_eq!(s.readings().len(), 1, "fresh reading reused");
        assert!(f > 0.0 && f.is_finite());
        std::thread::sleep(STALE + Duration::from_millis(5));
        s.factor();
        assert_eq!(s.readings().len(), 2, "stale reading replaced");
    }

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        let mut s = Speedometer::default();
        assert_eq!(s.work(), s.work());
    }
}
