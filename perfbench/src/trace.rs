//! The traced run, measured from outside the simulator: code that
//! repeats `Experiment::run`'s public call sequence for one instance and
//! puts a host-time span around every call into a layer, plus exact work
//! counts read at the same boundaries.
//!
//! Deferred traffic is resolved either inside `Workload::step` (when the
//! submission buffer fills, and at GC pause edges) or by the round-edge
//! `Machine::sync_submissions` right after it, so a step's host time is
//! the step plus that sync. A step is classed as a GC step when the
//! heap's collection count changed across it.

use crate::metrics::{ratio, Values};
use crate::workloads::{RunKind, INTRA_THREADS, SUBMIT_MODE};
use hemu_core::{RunReport, WriteRateMonitor};
use hemu_heap::chunks::ChunkPolicy;
use hemu_heap::{GcStats, ManagedHeap};
use hemu_machine::{CtxId, Machine, MachineProfile};
use hemu_malloc::NativeHeap;
use hemu_obs::json::ToJson;
use hemu_obs::write_atomic_str;
use hemu_os::OsPageManager;
use hemu_types::{AccessPath, HemuError, Result, SocketId, MIB};
use hemu_workloads::{Language, Memory, StepResult, Workload};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Sampling interval of the write-rate monitor, as `Experiment` uses.
const MONITOR_INTERVAL: f64 = 0.01;

/// Step budget per iteration, as `Experiment` allows.
const FUEL: u64 = 50_000_000;

/// One closed host-time span. `parent` indexes the run's span list.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// The spans of one run, kept in memory until the benchmark writes them.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Times `f` as a child of `parent`; returns its result and duration.
    fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name, Some(parent));
        let r = f();
        (r, self.close(id))
    }

    /// Appends the spans as JSON lines tagged with `run`.
    pub fn write_jsonl(&self, run: &str, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str("{\"run\":");
            hemu_obs::json::push_json_str(out, run);
            let _ = write!(out, ",\"id\":{id},\"parent\":");
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":");
            hemu_obs::json::push_json_str(out, s.name);
            let _ = writeln!(
                out,
                ",\"start_ns\":{},\"dur_ns\":{}}}",
                s.start_ns,
                s.end_ns - s.start_ns
            );
        }
    }
}

/// Host time and work counts at the layer boundaries of traced runs.
/// Host times cover the warm-up and the measured iteration; counts (the
/// second group) cover the measured iteration only, like `RunReport`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    machine_new_ns: u64,
    machine_news: u64,
    instantiate_ns: u64,
    instantiates: u64,
    /// Steps that ran no collection: host time (the step plus the round
    /// edge that resolves its buffered traffic), count, lines issued.
    plain_step_ns: u64,
    plain_steps: u64,
    plain_lines: u64,
    /// Steps across which the heap's collection count changed.
    gc_step_ns: u64,
    gc_steps: u64,
    step_lines: u64,
    /// Host time of the round-edge `sync_submissions` and the lines it
    /// resolved.
    edge_sync_ns: u64,
    edge_flush_lines: u64,
    monitor_poll_ns: u64,
    monitor_polls: u64,
    os_poll_ns: u64,
    /// Host time of both iterations' scheduling loops.
    loop_ns: u64,
    report_json_ns: u64,
    write_atomic_ns: u64,
    exports: u64,

    lines: u64,
    pcm_bytes: u64,
    dram_bytes: u64,
    local_fills: u64,
    remote_fills: u64,
    gc: GcStats,
    llc_accesses: u64,
    llc_misses: u64,
    llc_writebacks: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    tlb_flushes: u64,
    qpi_lines: u64,
    os_epochs: u64,
    os_migrations: u64,
}

impl Sample {
    /// Adds `o` into `self` field by field.
    pub fn add(&mut self, o: &Sample) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += o.$f;)* };
        }
        sum!(
            machine_new_ns,
            machine_news,
            instantiate_ns,
            instantiates,
            plain_step_ns,
            plain_steps,
            plain_lines,
            gc_step_ns,
            gc_steps,
            step_lines,
            edge_sync_ns,
            edge_flush_lines,
            monitor_poll_ns,
            monitor_polls,
            os_poll_ns,
            loop_ns,
            report_json_ns,
            write_atomic_ns,
            exports,
            lines,
            pcm_bytes,
            dram_bytes,
            local_fills,
            remote_fills,
            llc_accesses,
            llc_misses,
            llc_writebacks,
            tlb_hits,
            tlb_misses,
            tlb_flushes,
            qpi_lines,
            os_epochs,
            os_migrations
        );
        let (g, h) = (&mut self.gc, &o.gc);
        g.minor_gcs += h.minor_gcs;
        g.observer_gcs += h.observer_gcs;
        g.full_gcs += h.full_gcs;
        g.allocated_bytes += h.allocated_bytes;
        g.copied_minor_bytes += h.copied_minor_bytes;
        g.copied_observer_bytes += h.copied_observer_bytes;
        g.remset_entries += h.remset_entries;
    }

    /// Sets the per-layer metrics the traced runs measure.
    pub fn layer_values(&self, v: &mut Values) {
        let per = |num: u64, den: u64, scale: f64| ratio(num as f64, den as f64) / scale;
        let mib = |bytes: u64| bytes as f64 / MIB as f64;
        let g = &self.gc;
        v.set(
            "workloads.instantiate_ms",
            per(self.instantiate_ns, self.instantiates, 1e6),
        );
        v.set(
            "machine.new_ms",
            per(self.machine_new_ns, self.machine_news, 1e6),
        );
        v.set(
            "workloads.step_us",
            per(self.plain_step_ns, self.plain_steps, 1e3),
        );
        v.set(
            "workloads.step_ns_per_line",
            per(self.plain_step_ns, self.plain_lines, 1.0),
        );
        v.set("heap.gc_step_ms", per(self.gc_step_ns, self.gc_steps, 1e6));
        let all_steps_ns = self.gc_step_ns + self.plain_step_ns;
        v.set("heap.gc_share", per(self.gc_step_ns, all_steps_ns, 1.0));
        v.set("heap.minor_gcs", g.minor_gcs as f64);
        v.set("heap.full_gcs", g.full_gcs as f64);
        v.set(
            "heap.copied_mib",
            mib(g.copied_minor_bytes + g.copied_observer_bytes),
        );
        v.set("heap.remset_entries", g.remset_entries as f64);
        v.set("heap.allocated_mib", mib(g.allocated_bytes));
        let steps = self.plain_steps + self.gc_steps;
        v.set("machine.lines_per_step", per(self.step_lines, steps, 1.0));
        v.set("machine.edge_flush_lines", self.edge_flush_lines as f64);
        v.set(
            "machine.edge_sync_ns_per_line",
            per(self.edge_sync_ns, self.edge_flush_lines, 1.0),
        );
        v.set(
            "cache.llc_miss_ratio",
            per(self.llc_misses, self.llc_accesses, 1.0),
        );
        v.set("cache.llc_writebacks", self.llc_writebacks as f64);
        let probes = self.tlb_hits + self.tlb_misses;
        v.set("machine.tlb_hit_rate", per(self.tlb_hits, probes, 1.0));
        v.set("machine.tlb_flushes", self.tlb_flushes as f64);
        let fills = self.local_fills + self.remote_fills;
        v.set(
            "machine.remote_fill_frac",
            per(self.remote_fills, fills, 1.0),
        );
        v.set("numa.qpi_lines", self.qpi_lines as f64);
        v.set("os.poll_ms", self.os_poll_ns as f64 / 1e6);
        v.set("os.poll_share", per(self.os_poll_ns, self.loop_ns, 1.0));
        v.set("os.epochs", self.os_epochs as f64);
        v.set("os.migrations", self.os_migrations as f64);
        v.set(
            "core.monitor_poll_us",
            per(self.monitor_poll_ns, self.monitor_polls, 1e3),
        );
        v.set(
            "obs.report_json_us",
            per(self.report_json_ns, self.exports, 1e3),
        );
        v.set(
            "obs.write_atomic_us",
            per(self.write_atomic_ns, self.exports, 1e3),
        );
    }

    /// The deterministic counts a report of the same run also carries;
    /// a traced run whose counts differ from its untraced report fails.
    pub fn check_against(&self, report: &RunReport) -> std::result::Result<(), String> {
        let gc = report.gc.unwrap_or_default();
        let pairs = [
            ("line_accesses", self.lines, report.machine.line_accesses),
            ("local_fills", self.local_fills, report.machine.local_fills),
            (
                "remote_fills",
                self.remote_fills,
                report.machine.remote_fills,
            ),
            ("pcm_writes", self.pcm_bytes, report.pcm_writes.bytes()),
            ("dram_writes", self.dram_bytes, report.dram_writes.bytes()),
            ("minor_gcs", self.gc.minor_gcs, gc.minor_gcs),
            ("observer_gcs", self.gc.observer_gcs, gc.observer_gcs),
            ("full_gcs", self.gc.full_gcs, gc.full_gcs),
            (
                "os_epochs",
                self.os_epochs,
                report.os_paging.map_or(0, |o| o.epochs),
            ),
            (
                "os_migrations",
                self.os_migrations,
                report.os_paging.map_or(0, |o| o.migrations),
            ),
        ];
        match pairs
            .iter()
            .find(|(_, traced, untraced)| traced != untraced)
        {
            Some((name, traced, untraced)) => Err(format!(
                "traced {name} {traced} != untraced report's {untraced}"
            )),
            None => Ok(()),
        }
    }
}

fn gc_count(mem: &Memory) -> u64 {
    mem.gc_stats()
        .map_or(0, |g| g.minor_gcs + g.observer_gcs + g.full_gcs)
}

fn lines(machine: &Machine) -> u64 {
    machine.stats().line_accesses
}

/// One iteration of `Experiment`'s round-robin scheduler for a single
/// instance: step, then the round edge (`sync_submissions`, monitor poll,
/// OS poll), until the workload reports the iteration done.
fn iteration(
    (log, s): (&mut SpanLog, &mut Sample),
    parent: u32,
    machine: &mut Machine,
    (workload, mem): (&mut dyn Workload, &mut Memory),
    mut monitor: Option<&mut WriteRateMonitor>,
    mut os: Option<&mut OsPageManager>,
) -> Result<()> {
    let t_loop = log.now();
    let mut fuel = FUEL;
    loop {
        let gcs = gc_count(mem);
        let before = lines(machine);
        let id = log.open("workloads.step", Some(parent));
        let step = workload.step(machine, mem)?;
        let step_ns = log.close(id);
        let after_step = lines(machine);
        fuel -= 1;
        if fuel == 0 {
            return Err(HemuError::InvalidConfig(
                "workload did not terminate within the quantum budget".into(),
            ));
        }
        // The round edge resolves what the step left in the submission
        // buffer, so the step's cost includes this sync.
        let (synced, sync_ns) = log.span("machine.sync_submissions", parent, || {
            machine.sync_submissions()
        });
        synced?;
        let after_sync = lines(machine);
        let (ns, step_lines) = (step_ns + sync_ns, after_sync - before);
        s.step_lines += step_lines;
        s.edge_sync_ns += sync_ns;
        s.edge_flush_lines += after_sync - after_step;
        if gc_count(mem) != gcs {
            log.spans[id as usize].name = "heap.gc_step";
            s.gc_step_ns += ns;
            s.gc_steps += 1;
        } else {
            s.plain_step_ns += ns;
            s.plain_steps += 1;
            s.plain_lines += step_lines;
        }
        if let Some(mon) = monitor.as_deref_mut() {
            let ((), ns) = log.span("core.monitor_poll", parent, || mon.poll(machine));
            s.monitor_poll_ns += ns;
            s.monitor_polls += 1;
        }
        if let Some(os) = os.as_deref_mut() {
            let (polled, ns) = log.span("os.poll", parent, || os.poll(machine));
            polled?;
            s.os_poll_ns += ns;
        }
        if step == StepResult::IterationDone {
            break;
        }
    }
    s.loop_ns += log.now() - t_loop;
    Ok(())
}

/// Runs one single-instance run through the mirrored call sequence and
/// exports `reference` (the untraced report of the same run) the way the
/// bench harness does, to `export`.
///
/// # Errors
///
/// Propagates simulator errors; a run that is not single-instance is an
/// invalid configuration.
pub fn mirror(
    run: &RunKind,
    seed: u64,
    reference: &RunReport,
    export: &Path,
) -> Result<(Sample, SpanLog)> {
    let RunKind::Single {
        spec,
        collector,
        os,
    } = *run
    else {
        return Err(HemuError::InvalidConfig(
            "only single-instance runs are mirrored".into(),
        ));
    };
    let mut log = SpanLog::new();
    let mut s = Sample::default();
    let root = log.open("run", None);

    let (mut machine, ns) = log.span("machine.new", root, || {
        Machine::new(MachineProfile::emulation())
    });
    s.machine_new_ns += ns;
    s.machine_news += 1;
    machine.set_access_path(AccessPath::default());
    machine.set_intra_threads(INTRA_THREADS);
    machine.set_submit_mode(SUBMIT_MODE);
    let mut os_mgr = os.map(|cfg| {
        log.span("os.install", root, || {
            OsPageManager::install(&mut machine, cfg)
        })
        .0
    });
    let (mut workload, ns) = log.span("workloads.instantiate", root, || spec.instantiate(seed));
    s.instantiate_ns += ns;
    s.instantiates += 1;
    let ctx = CtxId(0);
    let (mem, _) = log.span("heap.new", root, || -> Result<Memory> {
        Ok(match spec.language {
            Language::Java => {
                let cfg = collector.config(workload.base_nursery(), workload.heap_size());
                let proc = machine.add_process(cfg.young_socket());
                if let Some(os) = &os_mgr {
                    os.attach_process(&mut machine, proc);
                }
                Memory::managed(ManagedHeap::with_chunk_policy(
                    &mut machine,
                    proc,
                    ctx,
                    cfg,
                    ChunkPolicy::TwoLists,
                )?)
            }
            Language::Cpp => {
                let proc = machine.add_process(SocketId::PCM);
                if let Some(os) = &os_mgr {
                    os.attach_process(&mut machine, proc);
                }
                Memory::native(NativeHeap::new(&mut machine, proc, ctx, SocketId::PCM))
            }
        })
    });
    let mut mem = mem?;

    let warmup = log.open("warmup_iteration", Some(root));
    iteration(
        (&mut log, &mut s),
        warmup,
        &mut machine,
        (workload.as_mut(), &mut mem),
        None,
        os_mgr.as_mut(),
    )?;
    log.close(warmup);
    log.span("machine.barrier", root, || machine.barrier());
    workload.start_iteration();
    log.span("machine.sync_submissions", root, || {
        machine.sync_submissions()
    })
    .0?;
    log.span("machine.start_measured_iteration", root, || {
        machine.start_measured_iteration()
    });
    let gc_before = mem.gc_stats().copied().unwrap_or_default();
    let mut monitor = WriteRateMonitor::new(MONITOR_INTERVAL);
    let measured = log.open("measured_iteration", Some(root));
    iteration(
        (&mut log, &mut s),
        measured,
        &mut machine,
        (workload.as_mut(), &mut mem),
        Some(&mut monitor),
        os_mgr.as_mut(),
    )?;
    log.close(measured);
    log.span("core.monitor_finish", root, || monitor.finish(&machine));
    log.span("machine.publish_metrics", root, || {
        machine.publish_metrics()
    });

    let stats = *machine.stats();
    s.lines = stats.line_accesses;
    s.local_fills = stats.local_fills;
    s.remote_fills = stats.remote_fills;
    s.pcm_bytes = machine.socket_writes(SocketId::PCM).bytes();
    s.dram_bytes = machine.socket_writes(SocketId::DRAM).bytes();
    if let Some(now) = mem.gc_stats() {
        s.gc = GcStats {
            minor_gcs: now.minor_gcs - gc_before.minor_gcs,
            observer_gcs: now.observer_gcs - gc_before.observer_gcs,
            full_gcs: now.full_gcs - gc_before.full_gcs,
            allocated_bytes: now.allocated_bytes - gc_before.allocated_bytes,
            copied_minor_bytes: now.copied_minor_bytes - gc_before.copied_minor_bytes,
            copied_observer_bytes: now.copied_observer_bytes - gc_before.copied_observer_bytes,
            remset_entries: now.remset_entries - gc_before.remset_entries,
            ..GcStats::default()
        };
    }
    let llc = machine.llc_stats();
    s.llc_accesses = llc.accesses();
    s.llc_misses = llc.misses;
    s.llc_writebacks = llc.writebacks;
    let metrics = &machine.obs().metrics;
    s.tlb_hits = metrics.counter_value("tlb.hits");
    s.tlb_misses = metrics.counter_value("tlb.misses");
    s.tlb_flushes = metrics.counter_value("tlb.flushes");
    s.qpi_lines = metrics.counter_value("qpi.lines");
    if let Some(os) = &os_mgr {
        let st = os.stats();
        s.os_epochs = st.epochs;
        s.os_migrations = st.migrations;
    }

    let (json, ns) = log.span("obs.report_json", root, || reference.to_json());
    s.report_json_ns += ns;
    let (written, ns) = log.span("obs.write_atomic", root, || write_atomic_str(export, &json));
    written.map_err(|e| HemuError::InvalidConfig(format!("export {}: {e}", export.display())))?;
    s.write_atomic_ns += ns;
    s.exports += 1;
    log.close(root);
    Ok((s, log))
}

/// Times a multi-instance or tenant run as one call to its public runner.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn whole(run: &RunKind, seed: u64) -> Result<(SpanLog, RunReport)> {
    let mut log = SpanLog::new();
    let name = match run {
        RunKind::Tenants { .. } => "tenant.consolidation_run",
        _ => "core.experiment_run",
    };
    let id = log.open(name, None);
    let report = run.execute(seed)?;
    log.close(id);
    Ok((log, report))
}
