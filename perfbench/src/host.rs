//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host, and other work on
//! that host changes the simulator's speed by tens of percent over
//! seconds to minutes (sibling hardware threads, shared caches, clock
//! frequency). A fixed kernel that is independent of the simulator is
//! timed between simulation runs, and each run's host seconds are scaled
//! by [`REFERENCE_S`] over the kernel's time around that run. A slower
//! simulator still reads slower, because the kernel does not change with
//! it; a busier host reads slower much less.
//!
//! The kernel sorts a buffer of pseudo-random integers that fits a core's
//! private cache: branchy, data-dependent integer work, like the
//! simulator's. Of the kernels tried on a 2-vCPU KVM guest over fifteen
//! minutes of host load (a random read-modify-write over 32 MiB or 1 MiB,
//! a dependent ALU chain, a pointer chase, a small cache model, an
//! allocation churn), it tracked the simulator best: scaling cut the
//! interquartile range of 56-second dacapo-gc throughput windows from
//! 21% to 6% of their median.

use std::hint::black_box;
use std::time::Instant;

/// Integers sorted per burst (1.2 MiB).
const BURST_LEN: usize = 300_000;
/// Bursts per calibration; the median is kept.
const BURSTS: usize = 7;

/// Seconds one burst takes on the reference host (a 2-vCPU KVM guest on
/// an Intel Xeon "Sapphire Rapids" host). Scaled host seconds are what
/// the run would have taken there.
pub const REFERENCE_S: f64 = 0.008;

/// The calibration kernel and its buffer.
pub struct Calibrator {
    buf: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            buf: vec![0; BURST_LEN],
        }
    }

    /// Fills the buffer from a fixed xorshift stream and sorts it; the
    /// same work every time.
    fn burst(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x >> 32) as u32;
        }
        self.buf.sort_unstable();
        black_box(self.buf[BURST_LEN / 2]);
        t0.elapsed().as_secs_f64()
    }

    /// The median seconds of [`BURSTS`] bursts.
    pub fn measure(&mut self) -> f64 {
        let mut t: Vec<f64> = (0..BURSTS).map(|_| self.burst()).collect();
        t.sort_by(f64::total_cmp);
        t[BURSTS / 2]
    }
}

/// The factor that scales host seconds measured between two calibrations
/// to reference-host seconds.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}
