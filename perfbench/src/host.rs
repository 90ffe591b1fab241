//! Host speed, measured beside the work so timings can be scaled to a
//! reference speed.
//!
//! On the 2-vCPU recording host the speed of both vCPUs drifts together
//! by a third or more over a few minutes (one count run took 2.8 s and,
//! five minutes later, 1.6 s), with CPU time equal to wall and no steal
//! time to explain it. Ten runs of one workload span minutes, so plain
//! wall times spread by up to 28 % (quartile distance ÷ median). A fixed
//! memory-bound kernel timed between the measured operations tracks the
//! drift: over ten 30 s runs of `count-dense48` the count wall spread
//! 19 % raw and 6 % scaled by it.

use std::hint::black_box;
use std::time::Instant;

/// Median probe time on the recording host when it was quiet, in
/// seconds: a timing scaled by [`HostSpeed::factor`] reads as wall time
/// on a host where the probe takes this long.
const REFERENCE_S: f64 = 0.064;

/// Table size of the probe (8 MiB of `u64`): larger than the caches the
/// drift shows in, like the program's own working set.
const TABLE: usize = 1 << 20;
const STEPS: u64 = 20_000_000;

/// Probe times collected over one run.
#[derive(Default)]
pub struct HostSpeed {
    probes: Vec<f64>,
}

impl HostSpeed {
    /// Times one pass of the probe: a random walk over the table with a
    /// read-modify-write every fourth step.
    pub fn probe(&mut self) {
        let mut table: Vec<u64> =
            (0..TABLE as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let start = Instant::now();
        let (mut x, mut acc) = (1u64, 0u64);
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE - 1);
            acc = acc.wrapping_mul(31).wrapping_add(table[i]);
            if acc & 3 == 0 {
                table[i] = acc;
            }
        }
        black_box(acc);
        self.probes.push(start.elapsed().as_secs_f64());
    }

    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.probes)
    }

    pub fn count(&self) -> usize {
        self.probes.len()
    }

    /// Multiplier that scales a timing from this run to reference speed.
    pub fn factor(&self) -> f64 {
        crate::stats::ratio(REFERENCE_S, self.median_s())
    }
}
