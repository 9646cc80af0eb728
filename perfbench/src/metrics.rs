//! The metric catalog: every metric the benchmark prints, with its unit,
//! which direction is better and whether it is deterministic (an exact
//! work count that only a behaviour change can move) or a host
//! measurement (noisy, compared by medians and spreads). Host times of
//! the closed loop are reference-host seconds: seconds as measured,
//! scaled by the host calibration taken around each run (see `host`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which run prints the metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The untraced closed-loop run (`--trace 0`).
    EndToEnd,
    /// The traced run (`--trace 1`).
    PerLayer,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub deterministic: bool,
    pub kind: Kind,
    pub what: &'static str,
}

const fn m(
    kind: Kind,
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    deterministic: bool,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        deterministic,
        kind,
        what,
    }
}

use Kind::{EndToEnd as E, PerLayer as L};

/// Every metric, in print order.
pub const CATALOG: &[MetricDef] = &[
    m(E, "setup_s", "s", false, false, "host seconds to build every run's inputs at the seed (instantiate, tenant specs, one Machine::new): mean of the middle 80% of set-ups timed before the first run and between runs"),
    m(E, "runs_per_s", "1/s", true, false, "verified runs per second: runs x verified share / the sum over runs of each run's mean reference-host seconds"),
    m(E, "sim_mlines_per_s", "Mline/s", true, false, "simulated line accesses of one pass of verified runs / the same sum of reference-host seconds"),
    m(E, "run_s_p50", "s", false, false, "median over the workload's runs of each run's mean reference-host seconds"),
    m(E, "run_s_max", "s", false, false, "the slowest run's mean reference-host seconds"),
    m(E, "cpu_s_per_run", "s", false, false, "mean over runs of each run's mean process user+system CPU seconds, scaled to the reference host"),
    m(E, "peak_rss_mib", "MiB", false, false, "process peak resident set (VmHWM)"),
    m(E, "verified_run_frac", "frac", true, true, "runs that completed and passed verification / runs attempted (1 - failed_run_frac)"),
    m(L, "workloads.instantiate_ms", "ms", false, false, "host ms per WorkloadSpec::instantiate"),
    m(L, "machine.new_ms", "ms", false, false, "host ms per Machine::new"),
    m(L, "workloads.step_us", "us", false, false, "host us per Workload::step that ran no collection, with its round-edge sync"),
    m(L, "workloads.step_ns_per_line", "ns/line", false, false, "host ns per line issued by steps that ran no collection"),
    m(L, "heap.gc_step_ms", "ms", false, false, "host ms per step that ran a collection, with its round-edge sync"),
    m(L, "heap.gc_share", "frac", false, false, "host time of collection steps / host time of all steps"),
    m(L, "heap.minor_gcs", "count", false, true, "minor collections in the measured iterations"),
    m(L, "heap.full_gcs", "count", false, true, "full-heap collections in the measured iterations"),
    m(L, "heap.copied_mib", "MiB", false, true, "bytes copied by minor and observer collections"),
    m(L, "heap.remset_entries", "count", false, true, "remembered-set entries recorded by the write barrier"),
    m(L, "heap.allocated_mib", "MiB", false, true, "bytes the mutators allocated"),
    m(L, "machine.lines_per_step", "line", false, true, "simulated lines resolved per workload step (both iterations)"),
    m(L, "machine.edge_flush_lines", "line", false, true, "lines resolved by the round-edge sync_submissions (both iterations)"),
    m(L, "machine.edge_sync_ns_per_line", "ns/line", false, false, "host ns of round-edge sync_submissions per line it resolved"),
    m(L, "machine.access_batch_ns_per_line", "ns/line", false, false, "probe: host ns per line through Machine::access_batch"),
    m(L, "machine.access_ns_per_line", "ns/line", false, false, "probe: host ns per line through Machine::access"),
    m(L, "cache.shard_resolve_ns_per_line", "ns/line", false, false, "probe: host ns per line in ShardedHierarchy::resolve"),
    m(L, "cache.hierarchy_ns_per_line", "ns/line", false, false, "probe: host ns per line through the monolithic Hierarchy"),
    m(L, "cache.llc_miss_ratio", "frac", false, true, "LLC misses / LLC accesses in the measured iterations"),
    m(L, "cache.llc_writebacks", "count", false, true, "dirty LLC evictions in the measured iterations"),
    m(L, "machine.tlb_hit_rate", "frac", true, true, "translation mini-TLB hits / probes"),
    m(L, "machine.tlb_flushes", "count", false, true, "translation mini-TLB flushes"),
    m(L, "machine.remote_fill_frac", "frac", false, true, "fills served over QPI / all fills"),
    m(L, "numa.pcm_write_mib", "MiB", false, true, "PCM controller writes of every run"),
    m(L, "numa.dram_write_mib", "MiB", false, true, "DRAM controller writes of every run"),
    m(L, "numa.qpi_lines", "count", false, true, "lines crossing QPI in the traced runs"),
    m(L, "os.poll_ms", "ms", false, false, "total host ms in OsPageManager::poll over the traced pass"),
    m(L, "os.poll_share", "frac", false, false, "OsPageManager::poll host time / scheduling-loop host time"),
    m(L, "os.epochs", "count", false, true, "OS migration epochs"),
    m(L, "os.migrations", "count", false, true, "OS page migrations"),
    m(L, "core.experiment_ns_per_line", "ns/line", false, false, "host ns of whole Experiment::run calls per measured-iteration line"),
    m(L, "tenant.run_ns_per_line", "ns/line", false, false, "host ns of whole ConsolidationRun::run calls per measured-iteration line"),
    m(L, "tenant.unattributed_lines", "count", false, true, "controller line writes no tenant owned"),
    m(L, "core.monitor_poll_us", "us", false, false, "host us per WriteRateMonitor::poll"),
    m(L, "obs.report_json_us", "us", false, false, "host us per RunReport JSON export"),
    m(L, "obs.write_atomic_us", "us", false, false, "host us per hemu_obs::write_atomic_str of a report"),
    m(L, "bench.trace_overhead", "ratio", false, false, "traced pass wall / untraced pass wall"),
];

/// Looks a metric up by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    CATALOG.iter().find(|d| d.name == name)
}

/// The catalog as a table, one metric per line.
pub fn table() -> String {
    let mut out = format!(
        "{:<34} {:<8} {:<7} {:<14} {:<10} {}\n",
        "metric", "unit", "better", "deterministic", "run", "what"
    );
    for d in CATALOG {
        let _ = writeln!(
            out,
            "{:<34} {:<8} {:<7} {:<14} {:<10} {}",
            d.name,
            d.unit,
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            if d.deterministic { "yes" } else { "no" },
            match d.kind {
                Kind::EndToEnd => "trace 0",
                Kind::PerLayer => "trace 1",
            },
            d.what
        );
    }
    out
}

/// Metric values of one benchmark run, by name.
#[derive(Debug, Default)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(def(name).is_some(), "metric {name} is not in the catalog");
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for every metric of `kind`.
    pub fn to_json(&self, kind: Kind) -> String {
        let mut out = String::from("{");
        for d in CATALOG.iter().filter(|d| d.kind == kind) {
            if out.len() > 1 {
                out.push_str(", ");
            }
            let v = self.0.get(d.name).copied().unwrap_or(0.0);
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            );
        }
        out.push('}');
        out
    }
}

/// A finite f64 as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The mean of `xs` without the `trim` share of lowest and of highest
/// values (0 for none).
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim) as usize;
    let kept = &v[cut..v.len() - cut];
    ratio(kept.iter().sum(), kept.len() as f64)
}

/// The median of `xs` (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
