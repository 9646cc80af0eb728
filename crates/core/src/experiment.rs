//! Experiment configuration and the one runner: a roster of workloads
//! slice-scheduled onto one shared machine.

use crate::monitor::WriteRateMonitor;
use crate::report::{ConsolidationSummary, PageWear, ProvenanceSummary, RunReport, TenantShare};
use hemu_fault::{EnduranceConfig, FaultPlan};
use hemu_heap::chunks::ChunkPolicy;
use hemu_heap::{CollectorKind, GcStats, ManagedHeap};
use hemu_machine::{CtxId, Machine, MachineProfile};
use hemu_malloc::{NativeHeap, NativeStats};
use hemu_obs::{SpanRecord, TraceRecord, Tracer};
use hemu_os::OsPageManager;
use hemu_types::{
    AccessPath, ByteSize, HemuError, OsPagingConfig, Result, SocketId, SpaceTag, SubmitMode,
    WriteCause, CACHE_LINE, PAGE_SIZE,
};
use hemu_workloads::{Language, Memory, Mix, StepResult, TenantSpec, Workload, WorkloadSpec};

/// Everything one profiled run produces beyond the report: the event
/// trace, the profiler's span records (virtual-time GC phases, OS epochs
/// and the measured iteration), the per-page PCM wear heatmap, and the
/// clock frequency needed to convert span cycles to seconds.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The measured iteration's report.
    pub report: RunReport,
    /// Captured trace events (empty unless tracing was requested).
    pub trace: Vec<TraceRecord>,
    /// Closed profiler spans, oldest first (empty unless profiling).
    pub spans: Vec<SpanRecord>,
    /// Per-PCM-frame wear rows sorted by frame number (empty unless the
    /// run tracked wear).
    pub heatmap: Vec<PageWear>,
    /// The machine's clock frequency in Hz (for cycle → time conversion).
    pub freq_hz: f64,
    /// The measured iteration's total virtual time in cycles (the run's
    /// extent on an exported timeline).
    pub elapsed: hemu_types::Cycles,
}

/// The processes an experiment co-schedules on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    /// `n` identical instances of one workload at the experiment's seed,
    /// one hardware context each — the paper's multiprogramming (Fig. 4).
    Instances(WorkloadSpec, usize),
    /// `n` tenants drawn round-robin from a [`Mix`], tenant `i` at seed
    /// `seed + i`. Tenant `i` runs on context `i % contexts`, so densities
    /// past the context count share contexts the way consolidated VMs
    /// share cores. Every controller write is attributed to its tenant and
    /// the report carries a [`ConsolidationSummary`].
    Tenants(Mix, usize),
}

impl Roster {
    /// The roster's entries, in context-assignment order.
    fn entries(&self, seed: u64) -> Result<Vec<TenantSpec>> {
        match *self {
            Roster::Instances(workload, n) => {
                Ok((0..n).map(|id| TenantSpec { id, workload, seed }).collect())
            }
            Roster::Tenants(mix, n) => mix.tenant_specs(n, seed),
        }
    }
}

/// A configured experiment: roster × collector × machine.
///
/// Built with a fluent API and executed with [`Experiment::run`], which
/// follows the paper's measurement methodology (replay compilation:
/// warm-up iteration, barrier, measured iteration; §IV).
#[derive(Debug, Clone)]
pub struct Experiment {
    roster: Roster,
    slice: u64,
    collector: CollectorKind,
    profile: MachineProfile,
    seed: u64,
    chunk_policy: ChunkPolicy,
    warmup: bool,
    monitor_interval: f64,
    nursery_override: Option<ByteSize>,
    track_wear: bool,
    profiling: bool,
    faults: Option<FaultPlan>,
    endurance: Option<EnduranceConfig>,
    os: Option<OsPagingConfig>,
    access_path: AccessPath,
    intra_threads: usize,
    submit_mode: SubmitMode,
}

impl Experiment {
    /// Creates an experiment with the paper's defaults: one instance,
    /// PCM-Only collector, the emulation machine profile.
    pub fn new(spec: WorkloadSpec) -> Self {
        Experiment::with_roster(Roster::Instances(spec, 1))
    }

    /// Creates an experiment over `roster` with the paper's defaults. The
    /// scheduler slice starts at 1 step for instances (fine-grained LLC
    /// interleaving) and 64 steps for tenants (consolidated time slices).
    pub fn with_roster(roster: Roster) -> Self {
        Experiment {
            roster,
            slice: match roster {
                Roster::Instances(..) => 1,
                Roster::Tenants(..) => 64,
            },
            collector: CollectorKind::PcmOnly,
            profile: MachineProfile::emulation(),
            seed: 42,
            chunk_policy: ChunkPolicy::TwoLists,
            warmup: true,
            monitor_interval: 0.01,
            nursery_override: None,
            track_wear: false,
            profiling: false,
            faults: None,
            endurance: None,
            os: None,
            access_path: AccessPath::default(),
            intra_threads: 1,
            submit_mode: SubmitMode::default(),
        }
    }

    /// Selects the machine's access-path implementation (scalar reference
    /// loop vs the batched set-sharded pipeline). Both produce identical
    /// reports; the default is [`AccessPath::Batched`].
    pub fn access_path(mut self, path: AccessPath) -> Self {
        self.access_path = path;
        self
    }

    /// Sets the worker-thread count for intra-run batch resolution
    /// (clamped to at least 1). Purely a wall-clock knob: artifacts are
    /// byte-identical at any value.
    pub fn intra_threads(mut self, threads: usize) -> Self {
        self.intra_threads = threads.max(1);
        self
    }

    /// Selects how runtime layers hand traffic to the machine: buffered
    /// deferred submission (the fast default) or immediate per-call
    /// resolution. Both produce byte-identical reports and artifacts; the
    /// scalar mode is the executable specification deferral is verified
    /// against.
    pub fn submit_mode(mut self, mode: SubmitMode) -> Self {
        self.submit_mode = mode;
        self
    }

    /// Enables per-line PCM wear tracking; the report then carries a
    /// measured wear-levelling efficiency instead of the paper's assumed
    /// 50 %.
    pub fn track_wear(mut self) -> Self {
        self.track_wear = true;
        self
    }

    /// Enables the phase-and-provenance profiler: GC-phase and OS-epoch
    /// spans in virtual time, per-cause / per-space write attribution
    /// ([`RunReport::provenance`]), and the per-page wear heatmap (implies
    /// wear tracking). Retrieve the extra artifacts with
    /// [`Experiment::run_full`].
    pub fn profiling(mut self) -> Self {
        self.profiling = true;
        self.track_wear = true;
        self
    }

    /// Installs a deterministic fault-injection plan. An inert plan
    /// ([`FaultPlan::is_inert`]) is not installed at all, so a run with
    /// `FaultPlan::none()` is bit-identical to one without this call.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_inert() { None } else { Some(plan) };
        self
    }

    /// Enables the PCM wear/endurance model: per-line write budgets, cell
    /// failure, page retirement and transparent remapping. Implies wear
    /// tracking.
    pub fn endurance(mut self, cfg: EnduranceConfig) -> Self {
        self.endurance = Some(cfg);
        self
    }

    /// Overrides the suite's base nursery size (nursery-sensitivity
    /// studies; the KG-B configurations still scale it 3×).
    pub fn nursery(mut self, nursery: ByteSize) -> Self {
        self.nursery_override = Some(nursery);
        self
    }

    /// Hands page placement to an OS page manager instead of the GC: the
    /// paper's kernel-side baseline, where first-touch placement and (for
    /// [`hemu_os::OsPolicy::HotCold`]) epoch-driven hot-page migration
    /// decide which socket each page lives on.
    ///
    /// OS-managed runs keep the PCM-Only collector (the heap layout the OS
    /// baseline sees is placement-neutral); combining OS paging with a
    /// write-rationing collector is rejected at [`Experiment::run`].
    pub fn os_paging(mut self, cfg: OsPagingConfig) -> Self {
        self.os = Some(cfg);
        self
    }

    /// Sets the collector configuration.
    pub fn collector(mut self, collector: CollectorKind) -> Self {
        self.collector = collector;
        self
    }

    /// Sets the roster size: the number of co-running instances
    /// (multiprogramming), or of tenants for a [`Roster::Tenants`] roster.
    pub fn instances(mut self, n: usize) -> Self {
        self.roster = match self.roster {
            Roster::Instances(spec, _) => Roster::Instances(spec, n),
            Roster::Tenants(mix, _) => Roster::Tenants(mix, n),
        };
        self
    }

    /// Sets the scheduler slice length in workload steps (clamped to at
    /// least 1). Slice boundaries are semantic flush points: deferred
    /// submissions drain before the next entry runs.
    pub fn slice(mut self, steps: u64) -> Self {
        self.slice = steps.max(1);
        self
    }

    /// Sets the machine profile (emulation vs simulation, LLC size, …).
    pub fn profile(mut self, profile: MachineProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the random seed (the base seed of a tenant roster).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the chunk free-list policy (ablation).
    pub fn chunk_policy(mut self, policy: ChunkPolicy) -> Self {
        self.chunk_policy = policy;
        self
    }

    /// Disables the warm-up iteration (quick tests only — measured results
    /// then include cold-start effects).
    pub fn without_warmup(mut self) -> Self {
        self.warmup = false;
        self
    }

    /// Sets the write-rate monitor's sampling interval in virtual seconds.
    pub fn monitor_interval(mut self, seconds: f64) -> Self {
        self.monitor_interval = seconds;
        self
    }

    /// Runs the experiment to completion.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] for inconsistent
    /// configurations (an empty roster, more instances than hardware
    /// contexts, more than 255 tenants — tenant identity must fit the
    /// packed submit metadata — a monitor interval that is not a positive
    /// number, a C++ workload with a hybrid collector — the paper
    /// evaluates the C++ implementations on the PCM-Only reference system
    /// — or OS paging with a write-rationing collector), and propagates
    /// heap or machine exhaustion.
    pub fn run(&self) -> Result<RunReport> {
        self.run_traced(Tracer::disabled()).map(|a| a.report)
    }

    /// Runs the experiment and returns the full artifact bundle: report,
    /// profiler spans and the wear heatmap ([`RunArtifacts`]). Spans and
    /// heatmap are empty unless [`Experiment::profiling`] (or
    /// [`Experiment::track_wear`], for the heatmap) was requested.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Experiment::run`].
    pub fn run_full(&self) -> Result<RunArtifacts> {
        self.run_traced(Tracer::disabled())
    }

    /// Runs the experiment with event tracing enabled for the measured
    /// iteration, returning the report together with the captured trace.
    ///
    /// The tracer is installed at the start of the measured iteration, so
    /// warm-up activity never appears in the trace; `capacity` bounds the
    /// number of retained records (the oldest are dropped beyond it).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Experiment::run`].
    pub fn run_with_trace(&self, capacity: usize) -> Result<(RunReport, Vec<TraceRecord>)> {
        self.run_traced(Tracer::bounded(capacity))
            .map(|a| (a.report, a.trace))
    }

    /// Checks the configuration and expands the roster into its entries.
    fn validate(&self) -> Result<Vec<TenantSpec>> {
        let invalid = |msg: String| Err(HemuError::InvalidConfig(msg));
        match self.roster {
            Roster::Instances(_, 0) => return invalid("need at least one instance".into()),
            Roster::Tenants(_, 0) => return invalid("need at least one tenant".into()),
            Roster::Instances(_, n) if n > self.profile.contexts => {
                return invalid(format!(
                    "{n} instances exceed the profile's {} hardware contexts",
                    self.profile.contexts
                ))
            }
            // Process and context ids ride in the packed submit metadata
            // as single bytes; 255 tenants is far past any useful density.
            Roster::Tenants(_, n) if n > 255 => {
                return invalid(format!(
                    "{n} tenants exceed the 255-tenant attribution limit"
                ))
            }
            _ => {}
        }
        if !(self.monitor_interval.is_finite() && self.monitor_interval > 0.0) {
            return invalid(format!(
                "the monitor interval must be a positive number of seconds, got {}",
                self.monitor_interval
            ));
        }
        let entries = self.roster.entries(self.seed)?;
        if self.collector != CollectorKind::PcmOnly {
            if entries.iter().any(|e| e.workload.language == Language::Cpp) {
                return invalid("C++ workloads run on the PCM-Only reference system".into());
            }
            if self.os.is_some() {
                return invalid(
                    "OS-managed placement replaces write-rationing: use the \
                     PCM-Only collector with an OS policy"
                        .into(),
                );
            }
        }
        Ok(entries)
    }

    /// Runs the experiment with an explicit tracer and returns the full
    /// artifact bundle — the general form behind [`Experiment::run`],
    /// [`Experiment::run_full`] and [`Experiment::run_with_trace`], for
    /// callers (like the bench harness) that want both the event trace and
    /// the profiler's artifacts from a single run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Experiment::run`].
    pub fn run_traced(&self, tracer: Tracer) -> Result<RunArtifacts> {
        let entries = self.validate()?;
        let mix = match self.roster {
            Roster::Tenants(mix, _) => Some(mix),
            Roster::Instances(..) => None,
        };

        let mut machine = Machine::new(self.profile);
        machine.set_access_path(self.access_path);
        machine.set_intra_threads(self.intra_threads);
        machine.set_submit_mode(self.submit_mode);
        // The OS page manager installs before anything touches memory, so
        // even heap metadata is placed (and sampled) under its policy.
        let mut os_mgr = self.os.map(|cfg| OsPageManager::install(&mut machine, cfg));
        // Tenancy goes in before any allocation so even the first heap
        // metadata fault is owned by its tenant.
        if mix.is_some() {
            machine.enable_tenancy(entries.len());
        }
        if self.track_wear || self.profiling {
            machine.enable_wear_tracking();
        }
        if self.profiling {
            machine.enable_profiling();
        }
        if let Some(cfg) = self.endurance {
            machine.enable_endurance(cfg);
        }
        if let Some(plan) = &self.faults {
            machine.install_faults(plan.clone());
        }
        let mut running: Vec<(Box<dyn Workload>, Memory)> = Vec::with_capacity(entries.len());
        let mut procs = Vec::with_capacity(entries.len());
        for entry in &entries {
            let workload = entry.workload.instantiate(entry.seed);
            let ctx = CtxId(entry.id % machine.contexts());
            let gc_config = (entry.workload.language == Language::Java).then(|| {
                let nursery = self.nursery_override.unwrap_or(workload.base_nursery());
                self.collector.config(nursery, workload.heap_size())
            });
            let proc = machine.add_process(
                gc_config
                    .as_ref()
                    .map_or(SocketId::PCM, |c| c.young_socket()),
            );
            if mix.is_some() {
                machine.set_proc_tenant(proc, entry.id as u16);
            }
            if let Some(os) = &os_mgr {
                os.attach_process(&mut machine, proc);
            }
            let mem = match gc_config {
                Some(cfg) => Memory::managed(ManagedHeap::with_chunk_policy(
                    &mut machine,
                    proc,
                    ctx,
                    cfg,
                    self.chunk_policy,
                )?),
                None => Memory::native(NativeHeap::new(&mut machine, proc, ctx, SocketId::PCM)),
            };
            procs.push(proc);
            running.push((workload, mem));
        }

        // Warm-up iteration (replay compilation's compile iteration). The
        // OS manager is polled here too, so hot pages migrate toward their
        // steady-state placement before measurement starts.
        if self.warmup {
            run_slices(
                &mut machine,
                &mut running,
                self.slice,
                None,
                os_mgr.as_mut(),
            )?;
            // All entries synchronize at a barrier and start the second
            // iteration at the same time (§IV).
            machine.barrier();
            for (w, _) in &mut running {
                w.start_iteration();
            }
        }

        // Snapshot per-entry stats, then measure the steady iteration.
        // The tracer goes in only now, so the trace covers exactly the
        // measured iteration. Controller counters, clocks, metrics and the
        // tenancy write counts reset at the same point, while frame
        // ownership survives: the entries keep their memory.
        machine.sync_submissions()?;
        machine.set_tracer(tracer);
        machine.start_measured_iteration();
        let gc_before: Vec<GcStats> = running
            .iter()
            .map(|(_, m)| m.gc_stats().copied().unwrap_or_default())
            .collect();
        let native_before: Vec<NativeStats> = running
            .iter()
            .map(|(_, m)| m.native_stats().copied().unwrap_or_default())
            .collect();
        let alloc_before: Vec<u64> = running.iter().map(|(_, m)| m.allocated_bytes()).collect();
        let faults_before: Vec<u64> = procs
            .iter()
            .map(|&p| machine.address_space(p).fault_count())
            .collect();

        let mut monitor = WriteRateMonitor::new(self.monitor_interval);
        // The measured iteration is the root profiler span; clocks were
        // just reset, so it opens at virtual zero.
        let spans = machine.spans();
        spans.begin("iteration", "run", hemu_types::Cycles::ZERO);
        run_slices(
            &mut machine,
            &mut running,
            self.slice,
            Some(&mut monitor),
            os_mgr.as_mut(),
        )?;
        spans.end(machine.elapsed());
        // No cache flush here: the measured iteration starts with warm,
        // dirty caches (steady state after warm-up) and ends the same way,
        // so eviction traffic during the interval is exactly the
        // steady-state write stream `pcm-memory` samples on the real
        // platform. Flushing would mis-attribute the entire resident dirty
        // set to this iteration.
        monitor.finish(&machine);

        // Per-entry deltas over the measured iteration.
        let gc_deltas: Vec<Option<GcStats>> = running
            .iter()
            .zip(&gc_before)
            .map(|((_, m), then)| m.gc_stats().map(|now| diff_gc(now, then)))
            .collect();
        let alloc_deltas: Vec<u64> = running
            .iter()
            .zip(&alloc_before)
            .map(|((_, m), then)| m.allocated_bytes() - then)
            .collect();
        let gc = gc_deltas
            .iter()
            .flatten()
            .fold(None, |total: Option<GcStats>, d| {
                Some(total.map_or(*d, |t| add_gc(&t, d)))
            });
        let native = aggregate_native(&running, &native_before);

        let consolidation = mix.map(|mix| {
            let shares: Vec<TenantShare> = entries
                .iter()
                .map(|entry| {
                    let i = entry.id;
                    let gc = gc_deltas[i].unwrap_or_default();
                    let (pcm, dram) = machine
                        .tenancy()
                        .map_or((0, 0), |t| (t.pcm_lines(i), t.dram_lines(i)));
                    TenantShare {
                        id: i,
                        workload: format!("{}", entry.workload),
                        pcm_write_lines: pcm,
                        dram_write_lines: dram,
                        minor_gcs: gc.minor_gcs,
                        full_gcs: gc.full_gcs,
                        pause_cycles: gc.pause_cycles,
                        allocated_bytes: alloc_deltas[i],
                        page_faults: machine.address_space(procs[i]).fault_count()
                            - faults_before[i],
                    }
                })
                .collect();
            // The per-tenant GC/OS namespaces land next to the machine's
            // writes.tenant.* gauges in the same metrics export.
            let m = &machine.obs().metrics;
            for t in &shares {
                let id = t.id;
                m.gauge(&format!("gc.tenant.{id}.minor_gcs"))
                    .set(t.minor_gcs as f64);
                m.gauge(&format!("gc.tenant.{id}.full_gcs"))
                    .set(t.full_gcs as f64);
                m.gauge(&format!("gc.tenant.{id}.pause_cycles"))
                    .set(t.pause_cycles as f64);
                m.gauge(&format!("gc.tenant.{id}.allocated_bytes"))
                    .set(t.allocated_bytes as f64);
                m.gauge(&format!("os.tenant.{id}.page_faults"))
                    .set(t.page_faults as f64);
            }
            let (unattributed_pcm, unattributed_dram) = machine
                .tenancy()
                .map_or((0, 0), |t| (t.unattributed_pcm(), t.unattributed_dram()));
            ConsolidationSummary {
                mix: mix.name().to_string(),
                tenants: entries.len(),
                contexts: machine.contexts(),
                slice: self.slice,
                unattributed_pcm_lines: unattributed_pcm,
                unattributed_dram_lines: unattributed_dram,
                per_tenant: shares,
            }
        });

        machine.publish_metrics();
        let elapsed = machine.elapsed_seconds();
        let pcm_writes = machine.socket_writes(SocketId::PCM);
        let trace = machine.obs().tracer.drain();
        let gc_pause_histogram = machine
            .obs()
            .metrics
            .histogram_snapshot("gc.pause_cycles")
            .filter(|h| h.count > 0);
        let provenance = machine.profiling_enabled().then(|| {
            let m = &machine.obs().metrics;
            let spans = &machine.obs().spans;
            ProvenanceSummary {
                pcm_by_cause: WriteCause::ALL
                    .map(|c| m.counter_value(&format!("writes.by_cause.{}", c.name()))),
                pcm_by_space: SpaceTag::ALL
                    .map(|s| m.counter_value(&format!("writes.by_space.{}", s.name()))),
                dram_by_cause: WriteCause::ALL
                    .map(|c| m.counter_value(&format!("writes.dram.by_cause.{}", c.name()))),
                dram_by_space: SpaceTag::ALL
                    .map(|s| m.counter_value(&format!("writes.dram.by_space.{}", s.name()))),
                spans_recorded: spans.len() as u64 + spans.dropped(),
                spans_dropped: spans.dropped(),
            }
        });
        let heatmap = build_heatmap(&machine);

        let report = RunReport {
            workload: match self.roster {
                Roster::Instances(spec, _) => format!("{spec}"),
                Roster::Tenants(mix, n) => format!("{mix}@{n}"),
            },
            // OS-managed runs are keyed by the placement policy: that is
            // the design point being swept, not the (neutral) collector.
            collector: if let Some(cfg) = self.os {
                cfg.policy.name().into()
            } else if entries.iter().all(|e| e.workload.language == Language::Cpp) {
                "malloc".into()
            } else {
                self.collector.name().into()
            },
            profile: self.profile.name.into(),
            instances: entries.len(),
            pcm_writes,
            pcm_reads: machine.socket_reads(SocketId::PCM),
            dram_writes: machine.socket_writes(SocketId::DRAM),
            dram_reads: machine.socket_reads(SocketId::DRAM),
            elapsed_seconds: elapsed,
            pcm_write_rate_mbs: if elapsed > 0.0 {
                pcm_writes.bytes() as f64 / 1e6 / elapsed
            } else {
                0.0
            },
            allocated: ByteSize::new(alloc_deltas.iter().sum()),
            gc,
            native,
            machine: *machine.stats(),
            samples: monitor.into_samples(),
            wear: machine.memory().wear().map(|w| crate::report::WearSummary {
                pcm_lines_touched: w.lines_touched() as u64,
                max_line_writes: w.max_line_writes(),
                levelling_efficiency: w
                    .levelling_efficiency(self.profile.numa.capacity_per_socket.bytes() / 64),
            }),
            endurance: self.endurance.map(|cfg| crate::report::EnduranceSummary {
                budget_writes: cfg.budget_writes,
                failed_lines: machine.memory().failed_lines(),
                retired_pages: machine.memory().retired_pages(SocketId::PCM),
                remapped_pages: machine.pages_remapped(),
                effective_capacity: machine.memory().effective_capacity(SocketId::PCM),
            }),
            gc_pause_histogram,
            os_paging: os_mgr.as_ref().map(OsPageManager::stats),
            provenance,
            consolidation,
        };
        Ok(RunArtifacts {
            report,
            trace,
            spans: machine.obs().spans.snapshot(),
            heatmap,
            freq_hz: self.profile.freq_hz as f64,
            elapsed: machine.elapsed(),
        })
    }
}

/// Aggregates the per-line wear tracker into per-frame heatmap rows,
/// sorted by frame number (deterministic regardless of hash-map iteration
/// order). Empty when wear tracking is off.
fn build_heatmap(machine: &Machine) -> Vec<PageWear> {
    let Some(wear) = machine.memory().wear() else {
        return Vec::new();
    };
    let lines_per_page = (PAGE_SIZE / CACHE_LINE) as u64;
    let mut pages: std::collections::BTreeMap<u64, PageWear> = std::collections::BTreeMap::new();
    for (line, count) in wear.histogram() {
        let frame = line.raw() / lines_per_page;
        let row = pages.entry(frame).or_insert(PageWear {
            frame,
            writes: 0,
            lines_touched: 0,
            max_line_writes: 0,
        });
        row.writes += count;
        row.lines_touched += 1;
        row.max_line_writes = row.max_line_writes.max(count);
    }
    pages.into_values().collect()
}

/// The slice scheduler: each live entry runs up to `slice` consecutive
/// workload steps, then yields; entries that finish are not restarted
/// (§IV). A slice boundary is a semantic flush point — deferred
/// submissions drain before the next entry's slice — so virtual time and
/// counter state at every boundary are identical under scalar and
/// deferred submission. A full round over all entries is the monitor and
/// OS poll edge. At slice 1 co-running instances interleave step by step
/// in the shared LLC.
fn run_slices(
    machine: &mut Machine,
    running: &mut [(Box<dyn Workload>, Memory)],
    slice: u64,
    mut monitor: Option<&mut WriteRateMonitor>,
    mut os: Option<&mut OsPageManager>,
) -> Result<()> {
    let mut done = vec![false; running.len()];
    let mut remaining = running.len();
    // A generous runaway bound, shared across all entries: no experiment
    // needs this many quanta.
    let mut fuel: u64 = 50_000_000;
    while remaining > 0 {
        for (i, (w, mem)) in running.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            for _ in 0..slice {
                if w.step(machine, mem)? == StepResult::IterationDone {
                    done[i] = true;
                    remaining -= 1;
                    break;
                }
                fuel -= 1;
                if fuel == 0 {
                    return Err(HemuError::InvalidConfig(
                        "workloads did not terminate within the quantum budget".into(),
                    ));
                }
            }
            machine.sync_submissions()?;
        }
        // Deferred submissions have drained, so the monitor and the OS
        // migrator observe exactly the state the scalar submission path
        // would show them.
        if let Some(mon) = monitor.as_deref_mut() {
            mon.poll(machine);
        }
        // The OS migrator ticks at scheduler-round granularity, like a
        // kernel balancing pass between time slices.
        if let Some(os) = os.as_deref_mut() {
            os.poll(machine)?;
        }
    }
    Ok(())
}

fn diff_gc(now: &GcStats, then: &GcStats) -> GcStats {
    GcStats {
        minor_gcs: now.minor_gcs - then.minor_gcs,
        observer_gcs: now.observer_gcs - then.observer_gcs,
        full_gcs: now.full_gcs - then.full_gcs,
        pause_cycles: now.pause_cycles - then.pause_cycles,
        allocated_bytes: now.allocated_bytes - then.allocated_bytes,
        allocated_objects: now.allocated_objects - then.allocated_objects,
        large_allocated_bytes: now.large_allocated_bytes - then.large_allocated_bytes,
        loo_nursery_large: now.loo_nursery_large - then.loo_nursery_large,
        copied_minor_bytes: now.copied_minor_bytes - then.copied_minor_bytes,
        copied_observer_bytes: now.copied_observer_bytes - then.copied_observer_bytes,
        promoted_dram_objects: now.promoted_dram_objects - then.promoted_dram_objects,
        promoted_pcm_objects: now.promoted_pcm_objects - then.promoted_pcm_objects,
        large_rescued: now.large_rescued - then.large_rescued,
        mark_writes: now.mark_writes - then.mark_writes,
        remset_entries: now.remset_entries - then.remset_entries,
        monitor_marks: now.monitor_marks - then.monitor_marks,
    }
}

fn add_gc(a: &GcStats, b: &GcStats) -> GcStats {
    GcStats {
        minor_gcs: a.minor_gcs + b.minor_gcs,
        observer_gcs: a.observer_gcs + b.observer_gcs,
        full_gcs: a.full_gcs + b.full_gcs,
        pause_cycles: a.pause_cycles + b.pause_cycles,
        allocated_bytes: a.allocated_bytes + b.allocated_bytes,
        allocated_objects: a.allocated_objects + b.allocated_objects,
        large_allocated_bytes: a.large_allocated_bytes + b.large_allocated_bytes,
        loo_nursery_large: a.loo_nursery_large + b.loo_nursery_large,
        copied_minor_bytes: a.copied_minor_bytes + b.copied_minor_bytes,
        copied_observer_bytes: a.copied_observer_bytes + b.copied_observer_bytes,
        promoted_dram_objects: a.promoted_dram_objects + b.promoted_dram_objects,
        promoted_pcm_objects: a.promoted_pcm_objects + b.promoted_pcm_objects,
        large_rescued: a.large_rescued + b.large_rescued,
        mark_writes: a.mark_writes + b.mark_writes,
        remset_entries: a.remset_entries + b.remset_entries,
        monitor_marks: a.monitor_marks + b.monitor_marks,
    }
}

fn aggregate_native(
    running: &[(Box<dyn Workload>, Memory)],
    before: &[NativeStats],
) -> Option<NativeStats> {
    let mut any = false;
    let mut total = NativeStats::default();
    for ((_, mem), then) in running.iter().zip(before) {
        if let Some(stats) = mem.native_stats() {
            any = true;
            total.allocated_bytes += stats.allocated_bytes - then.allocated_bytes;
            total.allocated_objects += stats.allocated_objects - then.allocated_objects;
            total.freed_bytes += stats.freed_bytes - then.freed_bytes;
            total.in_use += stats.in_use;
            total.peak += stats.peak;
        }
    }
    any.then_some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invalid(e: Experiment) -> bool {
        matches!(e.run(), Err(HemuError::InvalidConfig(_)))
    }

    fn tenants(mix: Mix, n: usize) -> Experiment {
        Experiment::with_roster(Roster::Tenants(mix, n))
    }

    #[test]
    fn zero_instances_is_invalid() {
        let e = Experiment::new(WorkloadSpec::by_name("avrora").unwrap()).instances(0);
        assert!(invalid(e));
    }

    #[test]
    fn too_many_instances_is_invalid() {
        let e = Experiment::new(WorkloadSpec::by_name("avrora").unwrap()).instances(64);
        assert!(invalid(e));
    }

    #[test]
    fn cpp_requires_pcm_only() {
        let spec = WorkloadSpec::by_name("pr")
            .unwrap()
            .with_language(Language::Cpp);
        let e = Experiment::new(spec).collector(CollectorKind::KgN);
        assert!(invalid(e));
    }

    #[test]
    fn zero_tenants_is_invalid() {
        assert!(invalid(tenants(Mix::Dacapo, 0)));
    }

    #[test]
    fn tenant_ids_must_fit_a_byte() {
        assert!(invalid(tenants(Mix::Dacapo, 256)));
    }

    #[test]
    fn os_paging_requires_pcm_only() {
        let os = OsPagingConfig::default();
        let e = tenants(Mix::Dacapo, 2)
            .collector(CollectorKind::KgN)
            .os_paging(os);
        assert!(invalid(e));
        let e = Experiment::new(WorkloadSpec::by_name("avrora").unwrap())
            .collector(CollectorKind::KgN)
            .os_paging(os);
        assert!(invalid(e));
    }

    #[test]
    fn monitor_interval_must_be_positive_and_finite() {
        for seconds in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e = Experiment::new(WorkloadSpec::by_name("avrora").unwrap())
                .without_warmup()
                .monitor_interval(seconds);
            assert!(invalid(e), "interval {seconds} accepted");
        }
    }

    #[test]
    fn oversubscription_is_allowed() {
        // 6 tenants on a 4-context profile — the whole point of tenant
        // rosters. Warm-up off keeps the test cheap.
        let profile = MachineProfile::emulation().with_contexts(4);
        let report = tenants(Mix::Dacapo, 6)
            .profile(profile)
            .without_warmup()
            .run()
            .expect("oversubscribed run completes");
        let c = report.consolidation.expect("consolidation block");
        assert_eq!(c.tenants, 6);
        assert_eq!(c.contexts, 4);
        assert_eq!(c.per_tenant.len(), 6);
    }

    #[test]
    fn slice_defaults_by_roster_and_is_clamped_to_one() {
        let spec = WorkloadSpec::by_name("pjbb").unwrap();
        assert_eq!(Experiment::new(spec).slice, 1);
        assert_eq!(tenants(Mix::Pjbb, 1).slice, 64);
        assert_eq!(tenants(Mix::Pjbb, 1).slice(0).slice, 1);
    }
}
