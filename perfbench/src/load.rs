//! The closed loop: one worker starts the next run as soon as its
//! previous run completes, so a slower simulator simply completes fewer
//! runs per second. One worker on a host of two or more cores leaves a
//! core to the OS and the benchmark's own bookkeeping, so what is timed
//! is the simulator, not the scheduler.

use std::time::Instant;

/// Worker threads of the closed loop (fixed, so results from hosts with
/// different core counts stay comparable; the host's core count is
/// recorded beside every result).
pub const WORKERS: usize = 1;

/// One job's outcome with its host timing, seconds from the pass start.
#[derive(Debug)]
pub struct Timed<T> {
    pub value: T,
    pub start: f64,
    pub end: f64,
}

impl<T> Timed<T> {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// One pass: every job run once, in job order.
#[derive(Debug)]
pub struct Pass<T> {
    /// Outcomes in job order.
    pub jobs: Vec<Timed<T>>,
    /// Host seconds from the first job's start to the last job's end.
    pub wall: f64,
}

/// Runs jobs `0..n` one after another.
pub fn run_pass<T>(n: usize, job: impl Fn(usize) -> T) -> Pass<T> {
    let t0 = Instant::now();
    let jobs: Vec<Timed<T>> = (0..n)
        .map(|i| {
            let start = t0.elapsed().as_secs_f64();
            let value = job(i);
            let end = t0.elapsed().as_secs_f64();
            Timed { value, start, end }
        })
        .collect();
    Pass {
        wall: t0.elapsed().as_secs_f64(),
        jobs,
    }
}
