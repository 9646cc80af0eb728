//! The benchmark's workloads: named, seeded sets of independent
//! simulation runs, each driven through the simulator's public runners.

use hemu_core::{Experiment, RunReport};
use hemu_heap::CollectorKind;
use hemu_machine::{Machine, MachineProfile};
use hemu_tenant::{ConsolidationRun, Mix};
use hemu_types::{ByteSize, OsPagingConfig, OsPolicy, Result, SubmitMode};
use hemu_workloads::{Language, Workload, WorkloadSpec};
use std::hint::black_box;

/// The seed the checked-in report fingerprints were recorded at (the
/// simulator's own default seed).
pub const DEFAULT_SEED: u64 = 42;

/// Intra-run resolver threads every run uses: one, so a run occupies
/// one core, as the closed loop's single worker does.
pub const INTRA_THREADS: usize = 1;

/// Submission mode every run uses (the simulator's default).
pub const SUBMIT_MODE: SubmitMode = SubmitMode::Deferred;

/// Slice length of the consolidation runs, in workload steps.
pub const TENANT_SLICE: u64 = 64;

/// One independent simulation run of a workload.
#[derive(Debug, Clone, Copy)]
pub enum RunKind {
    /// One instance through [`Experiment`]; the traced run mirrors these
    /// call by call.
    Single {
        spec: WorkloadSpec,
        collector: CollectorKind,
        os: Option<OsPagingConfig>,
    },
    /// Several identical instances through [`Experiment::instances`].
    Instances {
        spec: WorkloadSpec,
        instances: usize,
    },
    /// A tenant mix through [`ConsolidationRun`].
    Tenants { mix: Mix, tenants: usize },
}

/// A run with the stable label its fingerprint is keyed by.
#[derive(Debug, Clone)]
pub struct RunDef {
    pub label: String,
    pub kind: RunKind,
}

/// A benchmark workload.
pub struct WorkloadDef {
    pub name: &'static str,
    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub why: &'static str,
    runs: fn() -> Vec<RunDef>,
}

/// Every workload `--workload` accepts. `BENCHMARK.json` gates dacapo-gc
/// and shared-machine only; graph-stream stays runnable by name. Gating
/// all three in the same total time would cut each measured window to
/// about 40 s, too few passes (a pass is about 20 s on one worker) for
/// steady per-run figures on a host whose speed drifts by about 20% over
/// minutes.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "dacapo-gc",
        why: "highest allocation and GC rates (lusearch, xalan, pmd.S, eclipse) under PCM-Only and KG-W, so heap alloc, barriers and collections dominate host time",
        runs: dacapo_gc,
    },
    WorkloadDef {
        name: "graph-stream",
        why: "pr, cc, als in Java and C++ stream graphs far larger than the LLC with few or no collections, so cache, machine and NUMA dominate and the C++ runs bypass the heap",
        runs: graph_stream,
    },
    WorkloadDef {
        name: "shared-machine",
        why: "many processes on one machine: 4-tenant consolidations, a 2-instance experiment and OS hot-cold paging stress translation, LLC contention, slice flushes and migrations",
        runs: shared_machine,
    },
];

impl WorkloadDef {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's runs, in the order the closed loop hands them out.
    pub fn runs(&self) -> Vec<RunDef> {
        (self.runs)()
    }
}

fn spec(name: &str) -> WorkloadSpec {
    WorkloadSpec::by_name(name).expect("benchmark workload names are in the registry")
}

fn single(spec: WorkloadSpec, collector: CollectorKind) -> RunDef {
    let collector_name = if spec.language == Language::Cpp {
        "malloc"
    } else {
        collector.name()
    };
    RunDef {
        label: format!("{spec}/{collector_name}"),
        kind: RunKind::Single {
            spec,
            collector,
            os: None,
        },
    }
}

fn dacapo_gc() -> Vec<RunDef> {
    let mut runs = Vec::new();
    for app in ["lusearch", "xalan", "pmd.S", "eclipse"] {
        for collector in [CollectorKind::PcmOnly, CollectorKind::KgW] {
            runs.push(single(spec(app), collector));
        }
    }
    runs
}

fn graph_stream() -> Vec<RunDef> {
    let mut runs = Vec::new();
    for language in [Language::Java, Language::Cpp] {
        for app in ["pr", "cc", "als"] {
            runs.push(single(
                spec(app).with_language(language),
                CollectorKind::PcmOnly,
            ));
        }
    }
    runs
}

fn shared_machine() -> Vec<RunDef> {
    let mut os = OsPagingConfig::new(OsPolicy::HotCold);
    // A small DRAM socket makes hot-cold placement spill and migrate; an
    // unclamped one never fills.
    os.dram_limit = Some(ByteSize::from_mib(4));
    let lusearch = spec("lusearch");
    vec![
        RunDef {
            label: "mixed@4".into(),
            kind: RunKind::Tenants {
                mix: Mix::Mixed,
                tenants: 4,
            },
        },
        RunDef {
            label: "dacapo@4".into(),
            kind: RunKind::Tenants {
                mix: Mix::Dacapo,
                tenants: 4,
            },
        },
        RunDef {
            label: "xalan x2/PCM-Only".into(),
            kind: RunKind::Instances {
                spec: spec("xalan"),
                instances: 2,
            },
        },
        RunDef {
            label: format!("{lusearch}/{}", os.policy.name()),
            kind: RunKind::Single {
                spec: lusearch,
                collector: CollectorKind::PcmOnly,
                os: Some(os),
            },
        },
    ]
}

impl RunKind {
    /// Runs to completion through the public runner, untraced.
    pub fn execute(&self, seed: u64) -> Result<RunReport> {
        let experiment = match *self {
            RunKind::Tenants { mix, tenants } => {
                return ConsolidationRun::new(mix, tenants)
                    .slice(TENANT_SLICE)
                    .seed(seed)
                    .intra_threads(INTRA_THREADS)
                    .submit_mode(SUBMIT_MODE)
                    .run()
            }
            RunKind::Single {
                spec,
                collector,
                os: Some(cfg),
            } => Experiment::new(spec).collector(collector).os_paging(cfg),
            RunKind::Single {
                spec,
                collector,
                os: None,
            } => Experiment::new(spec).collector(collector),
            RunKind::Instances { spec, instances } => Experiment::new(spec).instances(instances),
        };
        experiment
            .seed(seed)
            .intra_threads(INTRA_THREADS)
            .submit_mode(SUBMIT_MODE)
            .run()
    }

    /// Whether this is a C++ run on the native heap.
    pub fn is_native(&self) -> bool {
        matches!(self, RunKind::Single { spec, .. } if spec.language == Language::Cpp)
    }
}

/// Builds every run's inputs at `seed` — each workload instance
/// (`WorkloadSpec::instantiate`, tenants through `Mix::tenant_specs`) and
/// one emulated machine — as the set-up a pass depends on, and drops them.
/// Returns the seconds spent building.
///
/// # Errors
///
/// Propagates a tenant roster that does not resolve.
pub fn build_inputs(runs: &[RunDef], seed: u64) -> Result<f64> {
    let t0 = std::time::Instant::now();
    let mut built: Vec<Box<dyn Workload>> = Vec::new();
    for run in runs {
        match run.kind {
            RunKind::Single { spec, .. } => built.push(spec.instantiate(seed)),
            RunKind::Instances { spec, instances } => {
                built.extend((0..instances).map(|_| spec.instantiate(seed)))
            }
            RunKind::Tenants { mix, tenants } => {
                for t in mix.tenant_specs(tenants, seed)? {
                    built.push(t.workload.instantiate(t.seed));
                }
            }
        }
    }
    let machine = Machine::new(MachineProfile::emulation());
    let secs = t0.elapsed().as_secs_f64();
    black_box((&built, &machine));
    Ok(secs)
}
