//! `repro --bench`: dependency-free performance microbenchmarks.
//!
//! Two measurements, both wall-clock based (`std::time::Instant`, no
//! external bench framework, so the mode works in the hermetic build):
//!
//! * **Access kernel** — drives the mutator→cache→memory-controller fast
//!   path of a bare [`Machine`] with a deterministic pseudo-random access
//!   stream over a working set larger than the LLC, reporting line
//!   accesses per second. This is the path the fast-path optimizations
//!   (packed cache metadata, page-batched translation, reusable
//!   write-back scratch) target.
//! * **Quick sweep** — a small fixed sweep (three fast DaCapo workloads ×
//!   two collector configurations) through the [`Harness`] at the
//!   requested `--jobs` width, reporting runs per second. This exercises
//!   the parallel executor end to end.
//!
//! Results are written as `BENCH_results.json`; a checked-in copy of that
//! file serves as the CI regression baseline (`--bench-baseline`), which
//! fails the run when access-kernel line throughput or end-to-end sweep
//! run throughput drops below 80% of the baseline.

use crate::harness::{Harness, Profile, RunStatus, Scale};
use hemu_heap::CollectorKind;
use hemu_machine::{CtxId, Machine, MachineProfile, ProcId};
use hemu_obs::json::{JsonObject, ToJson};
use hemu_obs::write_atomic_str;
use hemu_types::{Addr, HemuError, MemoryAccess, Result, SocketId, SubmitMode};
use hemu_workloads::WorkloadSpec;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Multi-line accesses issued by the kernel benchmark (each touches 4
/// cache lines, so the hierarchy sees 4× this many line accesses).
const KERNEL_OPS: u64 = 1_000_000;

/// Kernel working set; deliberately larger than the 20 MiB LLC so the
/// stream exercises misses, evictions, and write-backs, not just hits.
const KERNEL_REGION: u64 = 32 << 20;

/// Accesses per [`Machine::access_batch`] call in the kernel benchmark —
/// large enough that each shard's queue amortizes pipeline setup, small
/// enough that the staging arrays stay cache-resident.
const KERNEL_BATCH: usize = 4096;

/// Workloads driven by the sweep benchmark: fast DaCapo members, so the
/// mode stays usable as a CI gate.
const SWEEP_APPS: [&str; 3] = ["avrora", "fop", "luindex"];

/// Collector configurations crossed with [`SWEEP_APPS`] (6 runs total).
const SWEEP_COLLECTORS: [CollectorKind; 2] = [CollectorKind::PcmOnly, CollectorKind::KgN];

/// Tenant density of the consolidated run the sweep appends (7th run), so
/// the bench gate also covers the co-scheduling path end to end.
const SWEEP_TENANTS: usize = 2;

/// Access-kernel measurement.
#[derive(Debug, Clone, Copy)]
pub struct KernelResult {
    /// Line-granularity accesses issued to the hierarchy.
    pub line_accesses: u64,
    /// Wall-clock seconds spent issuing them.
    pub seconds: f64,
    /// `line_accesses / seconds`.
    pub accesses_per_sec: f64,
    /// Accesses per `access_batch` call.
    pub batch_size: usize,
    /// Batch-resolution worker threads the kernel machine used.
    pub intra_threads: usize,
}

impl ToJson for KernelResult {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("line_accesses", &self.line_accesses)
            .field("seconds", &self.seconds)
            .field("accesses_per_sec", &self.accesses_per_sec)
            .field("batch_size", &self.batch_size)
            .field("intra_threads", &self.intra_threads);
        obj.finish();
    }
}

/// Quick-sweep measurement.
#[derive(Debug, Clone, Copy)]
pub struct SweepResult {
    /// Submission mode (deferred vs scalar) each run used.
    pub submit_mode: SubmitMode,
    /// Experiments executed.
    pub runs: usize,
    /// Wall-clock seconds for the whole sweep.
    pub seconds: f64,
    /// `runs / seconds`.
    pub runs_per_sec: f64,
    /// Median per-run wall seconds (right-edge quantile over all runs).
    pub run_p50_seconds: f64,
    /// 95th-percentile per-run wall seconds.
    pub run_p95_seconds: f64,
    /// Intra-run batch-resolution threads each run used.
    pub intra_threads: usize,
    /// Tenant density of the sweep's consolidated run.
    pub tenants: usize,
}

impl ToJson for SweepResult {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("runs", &self.runs)
            .field("seconds", &self.seconds)
            .field("runs_per_sec", &self.runs_per_sec)
            .field("run_p50_seconds", &self.run_p50_seconds)
            .field("run_p95_seconds", &self.run_p95_seconds)
            .field("intra_threads", &self.intra_threads)
            .field("submit_mode", self.submit_mode.name())
            .field("tenants", &self.tenants);
        obj.finish();
    }
}

/// Right-edge quantile of an unsorted sample set: the smallest element with
/// at least `q` of the distribution at or below it. Returns 0 for an empty
/// set.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Everything `repro --bench` measured, plus the verdict against an
/// optional baseline.
#[derive(Debug)]
pub struct BenchOutcome {
    /// Human-readable summary for stdout.
    pub summary: String,
    /// `Some(message)` when the access kernel regressed more than 20%
    /// against the baseline file; the caller turns this into a non-zero
    /// exit.
    pub regression: Option<String>,
}

/// Times the access fast path on a bare machine with a deterministic
/// mixed read/write stream (LCG-generated addresses, fixed seed) over a
/// working set that overflows the LLC.
///
/// # Errors
///
/// Propagates machine access failures (none are expected on a healthy
/// machine without fault injection).
pub fn bench_kernel(intra_threads: usize) -> Result<KernelResult> {
    let mut m = Machine::new(MachineProfile::emulation());
    m.set_intra_threads(intra_threads);
    let proc = m.add_process(SocketId::DRAM);
    // Classic 64-bit LCG: deterministic, dependency-free, and cheap
    // enough that the measurement stays dominated by the access path.
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut batch: Vec<(CtxId, ProcId, MemoryAccess)> = Vec::with_capacity(KERNEL_BATCH);
    let t0 = Instant::now();
    let mut i = 0u64;
    while i < KERNEL_OPS {
        batch.clear();
        while i < KERNEL_OPS && batch.len() < KERNEL_BATCH {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let addr = Addr::new((state >> 16) % (KERNEL_REGION - 256));
            let access = if i % 4 == 0 {
                MemoryAccess::write(addr, 256)
            } else {
                MemoryAccess::read(addr, 256)
            };
            batch.push((CtxId((i % 4) as usize), proc, access));
            i += 1;
        }
        m.access_batch(&batch)?;
    }
    let seconds = t0.elapsed().as_secs_f64();
    let line_accesses = m.stats().line_accesses;
    Ok(KernelResult {
        line_accesses,
        seconds,
        accesses_per_sec: line_accesses as f64 / seconds.max(1e-9),
        batch_size: KERNEL_BATCH,
        intra_threads: m.intra_threads(),
    })
}

/// Times a fixed seven-run sweep through the harness at `jobs` width:
/// [`SWEEP_APPS`] × [`SWEEP_COLLECTORS`] plus one [`SWEEP_TENANTS`]-tenant
/// consolidated run.
///
/// # Errors
///
/// Propagates harness failures (workload registry lookups and any run
/// that terminally fails).
pub fn bench_sweep(
    jobs: usize,
    intra_threads: usize,
    submit_mode: SubmitMode,
) -> Result<SweepResult> {
    let mut h = Harness::new(Scale::Quick);
    h.set_jobs(jobs);
    h.set_intra_threads(intra_threads);
    h.set_submit_mode(submit_mode);
    let t0 = Instant::now();
    // run_opt (not `?`) so a planning pass discovers all six jobs at once
    // instead of aborting at the first deferred run.
    h.run_planned(|h| {
        for name in SWEEP_APPS {
            let spec = WorkloadSpec::by_name(name).ok_or_else(|| {
                HemuError::InvalidConfig(format!("bench workload `{name}` missing from registry"))
            })?;
            for collector in SWEEP_COLLECTORS {
                let _ = h.run_opt(spec, collector, 1, Profile::Emulation);
            }
        }
        let _ = h.run_consolidated_opt(
            hemu_workloads::Mix::Dacapo,
            SWEEP_TENANTS,
            64,
            CollectorKind::PcmOnly,
            Profile::Emulation,
        );
        Ok(String::new())
    })?;
    if h.failed_count() > 0 {
        return Err(HemuError::InvalidConfig(format!(
            "{} bench sweep run(s) failed; throughput would be meaningless",
            h.failed_count()
        )));
    }
    let seconds = t0.elapsed().as_secs_f64();
    let runs = h.runs_executed;
    let wall: Vec<f64> = h
        .records()
        .iter()
        .filter(|r| r.status == RunStatus::Ok)
        .map(|r| r.wall_seconds)
        .collect();
    Ok(SweepResult {
        submit_mode,
        runs,
        seconds,
        runs_per_sec: runs as f64 / seconds.max(1e-9),
        run_p50_seconds: quantile(&wall, 0.50),
        run_p95_seconds: quantile(&wall, 0.95),
        intra_threads: h.intra_threads(),
        tenants: SWEEP_TENANTS,
    })
}

/// Extracts the first `"name":<number>` member from hand-rolled JSON.
/// Enough of a parser for the baseline gate; the platform never parses
/// general JSON.
fn json_number_field(text: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| c == ',' || c == '}')
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Runs both benchmarks, writes `out_path` (`BENCH_results.json`), and
/// compares the access kernel against `baseline` when given.
///
/// # Errors
///
/// Returns [`HemuError::Io`] when the results file or baseline cannot be
/// read/written, otherwise propagates benchmark failures. A throughput
/// regression is NOT an error — it is reported in
/// [`BenchOutcome::regression`] so the caller controls the exit code.
pub fn run_bench(
    jobs: usize,
    intra_threads: usize,
    submit_mode: SubmitMode,
    out_path: &Path,
    baseline: Option<&Path>,
) -> Result<BenchOutcome> {
    let t0 = Instant::now();
    let kernel = bench_kernel(intra_threads)?;
    let sweep = bench_sweep(jobs, intra_threads, submit_mode)?;
    let wall_seconds = t0.elapsed().as_secs_f64();

    // Schema 4 adds sweep.tenants (the consolidated run's density). The
    // gate reads only the first occurrence of accesses_per_sec and
    // runs_per_sec, so older-schema baselines keep gating newer results
    // files (a baseline without `runs_per_sec` simply skips that gate)
    // during transitions.
    let mut text = String::new();
    let mut obj = JsonObject::new(&mut text);
    obj.field("schema", "hemu-bench-results/4")
        .field("jobs", &jobs)
        .field("kernel", &kernel)
        .field("sweep", &sweep)
        .field("wall_seconds", &wall_seconds);
    obj.finish();
    text.push('\n');
    write_atomic_str(out_path, &text)
        .map_err(|e| HemuError::Io(format!("writing {}: {e}", out_path.display())))?;

    let mut regression = None;
    if let Some(base_path) = baseline {
        let base_text = fs::read_to_string(base_path)
            .map_err(|e| HemuError::Io(format!("reading {}: {e}", base_path.display())))?;
        let base = json_number_field(&base_text, "accesses_per_sec").ok_or_else(|| {
            HemuError::Io(format!(
                "no accesses_per_sec field in {}",
                base_path.display()
            ))
        })?;
        if base > 0.0 && kernel.accesses_per_sec < 0.8 * base {
            regression = Some(format!(
                "access kernel regressed: {:.0} accesses/s vs baseline {:.0} (-{:.0}%)",
                kernel.accesses_per_sec,
                base,
                100.0 * (1.0 - kernel.accesses_per_sec / base)
            ));
        }
        // Sweep run-throughput gate: a run-level regression used to sail
        // through CI because only the kernel was gated. Skipped (not an
        // error) for schema-1 baselines that predate `runs_per_sec`.
        if regression.is_none() {
            if let Some(base_rps) = json_number_field(&base_text, "runs_per_sec") {
                if base_rps > 0.0 && sweep.runs_per_sec < 0.8 * base_rps {
                    regression = Some(format!(
                        "sweep run throughput regressed: {:.3} runs/s vs baseline {:.3} (-{:.0}%)",
                        sweep.runs_per_sec,
                        base_rps,
                        100.0 * (1.0 - sweep.runs_per_sec / base_rps)
                    ));
                }
            }
        }
    }

    let summary = format!(
        "access kernel: {} line accesses in {:.2}s ({:.2} M/s, batch {}, intra-threads {})\n\
         quick sweep:   {} runs in {:.2}s at --jobs {} ({:.2} runs/s, {} submission, p50 {:.2}s, p95 {:.2}s)\n\
         results written to {}",
        kernel.line_accesses,
        kernel.seconds,
        kernel.accesses_per_sec / 1e6,
        kernel.batch_size,
        kernel.intra_threads,
        sweep.runs,
        sweep.seconds,
        jobs,
        sweep.runs_per_sec,
        sweep.submit_mode,
        sweep.run_p50_seconds,
        sweep.run_p95_seconds,
        out_path.display()
    );
    Ok(BenchOutcome {
        summary,
        regression,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_takes_right_edge() {
        let s = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&s, 0.50), 2.0);
        assert_eq!(quantile(&s, 0.95), 4.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.5], 0.95), 7.5);
    }

    #[test]
    fn json_number_field_parses_nested_output() {
        let text =
            r#"{"schema":"x","kernel":{"line_accesses":4,"accesses_per_sec":1234.5},"jobs":2}"#;
        assert_eq!(json_number_field(text, "accesses_per_sec"), Some(1234.5));
        assert_eq!(json_number_field(text, "jobs"), Some(2.0));
        assert_eq!(json_number_field(text, "absent"), None);
    }
}
