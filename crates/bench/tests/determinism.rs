//! The parallel executor's determinism guarantee: every exported artifact
//! — `runs.json`, `samples.csv`, per-run JSON reports, the event trace,
//! and the rendered figure text — is byte-identical at any `--jobs` width,
//! including against the fully sequential `--jobs 1` path, and at any
//! *intra-run* batch-resolution thread count (the sharded cache pipeline
//! inside each machine). Holds with and without an active fault plan, and
//! for sweeps whose later runs are conditional on earlier results (the
//! planning-wave case).

use hemu_bench::{Harness, Profile, RunPolicy, Scale};
use hemu_fault::FaultPlan;
use hemu_heap::CollectorKind;
use hemu_obs::Reporter;
use hemu_types::{ByteSize, OsPagingConfig, OsPolicy, Result, SubmitMode};
use hemu_workloads::WorkloadSpec;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A miniature figure function with the shapes real figures have: a
/// cross-product sweep via `run_opt`, plus a multiprogrammed run that is
/// demanded only when its single-instance base succeeded (the dependent
/// branch that forces multi-wave planning).
fn sweep(h: &mut Harness) -> Result<String> {
    let mut out = String::new();
    for name in ["avrora", "fop", "luindex"] {
        let spec = WorkloadSpec::by_name(name).expect("workload registry");
        for collector in [CollectorKind::PcmOnly, CollectorKind::KgN] {
            if let Some(r) = h.run_opt(spec, collector, 1, Profile::Emulation) {
                out.push_str(&format!(
                    "{name} {} pcm={} elapsed={:.3}\n",
                    collector.name(),
                    r.pcm_writes,
                    r.elapsed_seconds
                ));
            }
        }
    }
    let fop = WorkloadSpec::by_name("fop").expect("workload registry");
    if h.run_opt(fop, CollectorKind::PcmOnly, 1, Profile::Emulation)
        .is_some()
    {
        if let Some(r) = h.run_opt(fop, CollectorKind::PcmOnly, 2, Profile::Emulation) {
            out.push_str(&format!("fop x2 pcm={}\n", r.pcm_writes));
        }
    }
    Ok(out)
}

/// Runs the sweep end to end at the given jobs width and returns the
/// rendered text plus every artifact, keyed by file name.
fn artifacts(
    dir: &Path,
    jobs: usize,
    faults: Option<FaultPlan>,
) -> (String, BTreeMap<String, String>) {
    artifacts_intra(dir, jobs, 1, faults)
}

/// [`artifacts`] with an explicit intra-run batch-resolution thread count.
fn artifacts_intra(
    dir: &Path,
    jobs: usize,
    intra: usize,
    faults: Option<FaultPlan>,
) -> (String, BTreeMap<String, String>) {
    artifacts_submit(dir, jobs, intra, faults, SubmitMode::default())
}

/// [`artifacts_intra`] with an explicit submission mode (deferred vs
/// per-call scalar).
fn artifacts_submit(
    dir: &Path,
    jobs: usize,
    intra: usize,
    faults: Option<FaultPlan>,
    submit: SubmitMode,
) -> (String, BTreeMap<String, String>) {
    let mut h = Harness::new(Scale::Quick);
    h.set_jobs(jobs);
    h.set_intra_threads(intra);
    h.set_submit_mode(submit);
    h.set_reporter(Reporter::to_writer(Box::new(std::io::sink())));
    h.set_json_dir(dir).expect("create json dir");
    h.set_trace_out(dir.join("trace.jsonl")).expect("trace out");
    h.set_run_policy(RunPolicy {
        backoff: Duration::from_millis(1),
        ..RunPolicy::default()
    });
    if let Some(plan) = faults {
        h.set_fault_plan(plan);
    }
    let text = h.run_planned(sweep).expect("sweep renders");
    h.finalize_exports().expect("finalize");

    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let content = fs::read_to_string(entry.path()).expect("read artifact");
        files.insert(name, content);
    }
    (text, files)
}

fn assert_identical(
    a: &(String, BTreeMap<String, String>),
    b: &(String, BTreeMap<String, String>),
) {
    assert_eq!(a.0, b.0, "rendered text diverged");
    assert_eq!(
        a.1.keys().collect::<Vec<_>>(),
        b.1.keys().collect::<Vec<_>>(),
        "artifact file sets diverged"
    );
    for (name, content) in &a.1 {
        assert_eq!(content, &b.1[name], "artifact {name} diverged");
    }
}

/// `--jobs 4` must produce byte-identical artifacts to `--jobs 1`.
#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let seq = artifacts(&tmp_dir("det-seq"), 1, None);
    let par = artifacts(&tmp_dir("det-par"), 4, None);
    assert_identical(&seq, &par);
    assert!(
        seq.1["runs.json"].matches("\"key\":").count() >= 7,
        "the sweep includes the dependent multiprogrammed run"
    );
}

/// Same guarantee with a fault plan injecting deterministic failures and
/// retries: failed runs, attempt counts, and partial tables must also be
/// byte-identical across jobs widths.
#[test]
fn faulted_parallel_sweep_is_byte_identical_to_sequential() {
    let plan = FaultPlan {
        seed: 3,
        frame_alloc_p: 0.5,
        only: Some("avrora".into()),
        ..FaultPlan::none()
    };
    let seq = artifacts(&tmp_dir("det-fault-seq"), 1, Some(plan.clone()));
    let par = artifacts(&tmp_dir("det-fault-par"), 4, Some(plan));
    assert_identical(&seq, &par);
}

/// A GC-vs-OS sweep: collectors and OS paging policies side by side, with
/// the hot/cold migrator actively moving pages (small DRAM clamp, short
/// epochs).
fn os_sweep(h: &mut Harness) -> Result<String> {
    let mut out = String::new();
    let spec = WorkloadSpec::by_name("avrora").expect("workload registry");
    for collector in [CollectorKind::PcmOnly, CollectorKind::KgN] {
        if let Some(r) = h.run_opt(spec, collector, 1, Profile::Emulation) {
            out.push_str(&format!("{} pcm={}\n", collector.name(), r.pcm_writes));
        }
    }
    for policy in OsPolicy::ALL {
        if let Some(r) = h.run_opt(spec, policy, 1, Profile::Emulation) {
            let os = r.os_paging.expect("OS-managed run carries stats");
            out.push_str(&format!(
                "{} pcm={} epochs={} promoted={} demoted={}\n",
                policy.name(),
                r.pcm_writes,
                os.epochs,
                os.promotions,
                os.demotions
            ));
        }
    }
    Ok(out)
}

/// Runs the OS-policy sweep at the given jobs width (shares the artifact
/// collection of [`artifacts`], but with migrator tuning installed).
fn os_artifacts(dir: &Path, jobs: usize) -> (String, BTreeMap<String, String>) {
    os_artifacts_submit(dir, jobs, SubmitMode::default())
}

/// [`os_artifacts`] with an explicit submission mode.
fn os_artifacts_submit(
    dir: &Path,
    jobs: usize,
    submit: SubmitMode,
) -> (String, BTreeMap<String, String>) {
    let mut h = Harness::new(Scale::Quick);
    h.set_jobs(jobs);
    h.set_submit_mode(submit);
    h.set_reporter(Reporter::to_writer(Box::new(std::io::sink())));
    h.set_json_dir(dir).expect("create json dir");
    h.set_trace_out(dir.join("trace.jsonl")).expect("trace out");
    let mut tuning = OsPagingConfig::default();
    tuning.dram_limit = Some(ByteSize::from_mib(4));
    tuning.epoch_lines = 20_000;
    h.set_os_tuning(tuning);
    let text = h.run_planned(os_sweep).expect("sweep renders");
    h.finalize_exports().expect("finalize");

    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let content = fs::read_to_string(entry.path()).expect("read artifact");
        files.insert(name, content);
    }
    (text, files)
}

/// An OS-policy sweep with an active hot/cold migrator exports
/// byte-identical artifacts at `--jobs 1` and `--jobs 4`.
#[test]
fn os_policy_sweep_is_byte_identical_to_sequential() {
    let seq = os_artifacts(&tmp_dir("det-os-seq"), 1);
    let par = os_artifacts(&tmp_dir("det-os-par"), 4);
    assert_identical(&seq, &par);
    assert!(
        seq.0.contains("OS-hot-cold") && seq.0.contains("epochs="),
        "hot/cold migrator ran in the sweep: {}",
        seq.0
    );
    assert!(
        seq.1["runs.json"].contains("\"os_paging\":{\"policy\":\"OS-hot-cold\""),
        "runs.json carries the migration block"
    );
}

/// Runs the sweep with the profiler and its timeline/heatmap exports
/// enabled. The export files land in `dir`, so the generic artifact
/// comparison covers them too.
fn profiled_artifacts(dir: &Path, jobs: usize) -> (String, BTreeMap<String, String>) {
    let mut h = Harness::new(Scale::Quick);
    h.set_jobs(jobs);
    h.set_reporter(Reporter::to_writer(Box::new(std::io::sink())));
    h.set_json_dir(dir).expect("create json dir");
    h.set_timeline_out(dir.join("timeline.json"))
        .expect("timeline out");
    h.set_heatmap_out(dir.join("heatmap.csv"))
        .expect("heatmap out");
    let text = h.run_planned(sweep).expect("sweep renders");
    h.finalize_exports().expect("finalize");

    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let content = fs::read_to_string(entry.path()).expect("read artifact");
        files.insert(name, content);
    }
    (text, files)
}

/// The profiler's exports — the span timeline and the per-page wear
/// heatmap — are byte-identical at `--jobs 1` and `--jobs 4`, like every
/// other artifact: spans carry only virtual time, and commit order (demand
/// order) decides track and row layout.
#[test]
fn profiled_sweep_artifacts_are_byte_identical() {
    let seq = profiled_artifacts(&tmp_dir("det-prof-seq"), 1);
    let par = profiled_artifacts(&tmp_dir("det-prof-par"), 4);
    assert_identical(&seq, &par);

    let timeline = &seq.1["timeline.json"];
    assert!(
        timeline.contains("\"traceEvents\":[") && timeline.contains("\"name\":\"iteration\""),
        "timeline carries the measured-iteration spans"
    );
    assert!(
        timeline.contains("avrora|PCM-Only|1|Emulation"),
        "runs are labelled by their keys"
    );
    let heatmap = &seq.1["heatmap.csv"];
    assert!(
        heatmap.starts_with("key,frame,writes,lines_touched,max_line_writes\n"),
        "heatmap header is stable"
    );
    assert!(
        heatmap.lines().count() > 1,
        "profiled runs produce wear rows"
    );
    // Profiled reports carry the attribution block.
    assert!(seq.1["runs.json"].contains("\"provenance\":{\"pcm\":{\"by_cause\":{\"mutator\":"));
}

/// The intra-run matrix: artifacts are byte-identical across batch-
/// resolution thread counts {1, 2, 4} crossed with `--jobs` {1, 4}. This
/// is the determinism invariant one level below the executor — shard
/// partitioning fixes every outcome regardless of how many workers resolve
/// the shards, and the merge replays bookkeeping in submission order.
#[test]
fn intra_thread_matrix_is_byte_identical() {
    let base = artifacts_intra(&tmp_dir("det-intra-base"), 1, 1, None);
    for jobs in [1, 4] {
        for intra in [1, 2, 4] {
            if (jobs, intra) == (1, 1) {
                continue;
            }
            let name = format!("det-intra-j{jobs}-t{intra}");
            let got = artifacts_intra(&tmp_dir(&name), jobs, intra, None);
            assert_identical(&base, &got);
        }
    }
}

/// The same matrix with a fault plan injecting deterministic allocation
/// failures and retries: attempt counts, failed runs, and partial tables
/// must not depend on either parallelism axis.
#[test]
fn faulted_intra_thread_matrix_is_byte_identical() {
    let plan = FaultPlan {
        seed: 3,
        frame_alloc_p: 0.5,
        only: Some("avrora".into()),
        ..FaultPlan::none()
    };
    let base = artifacts_intra(&tmp_dir("det-fintra-base"), 1, 1, Some(plan.clone()));
    for jobs in [1, 4] {
        for intra in [2, 4] {
            let name = format!("det-fintra-j{jobs}-t{intra}");
            let got = artifacts_intra(&tmp_dir(&name), jobs, intra, Some(plan.clone()));
            assert_identical(&base, &got);
        }
    }
}

/// The submission-mode axis: deferred submission (mutator/GC traffic
/// buffered and flushed through the batch pipeline at semantic
/// boundaries) produces byte-identical artifacts to per-call scalar
/// submission, across `--jobs` {1, 4} × `--intra-threads` {1, 4}. This is
/// the deferral tentpole's end-to-end invariant — the machine-level
/// equivalence test lives in `hemu-machine`, this one locks every
/// exported artifact.
#[test]
fn deferred_submission_matrix_is_byte_identical_to_scalar() {
    let base = artifacts_submit(&tmp_dir("det-sub-base"), 1, 1, None, SubmitMode::Scalar);
    for jobs in [1, 4] {
        for intra in [1, 4] {
            let name = format!("det-sub-j{jobs}-t{intra}");
            let got = artifacts_submit(&tmp_dir(&name), jobs, intra, None, SubmitMode::Deferred);
            assert_identical(&base, &got);
        }
    }
}

/// The same deferred-vs-scalar guarantee under an active fault plan: the
/// machine gates deferral off when a fault injector observes per-line
/// order, so failed runs, attempt counts, and partial tables must match
/// the scalar reference exactly.
#[test]
fn faulted_deferred_submission_is_byte_identical_to_scalar() {
    let plan = FaultPlan {
        seed: 3,
        frame_alloc_p: 0.5,
        only: Some("avrora".into()),
        ..FaultPlan::none()
    };
    let base = artifacts_submit(
        &tmp_dir("det-fsub-base"),
        1,
        1,
        Some(plan.clone()),
        SubmitMode::Scalar,
    );
    for jobs in [1, 4] {
        for intra in [1, 4] {
            let name = format!("det-fsub-j{jobs}-t{intra}");
            let got = artifacts_submit(
                &tmp_dir(&name),
                jobs,
                intra,
                Some(plan.clone()),
                SubmitMode::Deferred,
            );
            assert_identical(&base, &got);
        }
    }
}

/// Deferred vs scalar across OS paging policies: the hot/cold migrator's
/// heat sampling, migrations, and TLB flushes see identical traffic in
/// either mode.
#[test]
fn os_policy_sweep_deferred_matches_scalar() {
    let scalar = os_artifacts_submit(&tmp_dir("det-os-sub-s"), 1, SubmitMode::Scalar);
    let deferred = os_artifacts_submit(&tmp_dir("det-os-sub-d"), 4, SubmitMode::Deferred);
    assert_identical(&scalar, &deferred);
}

/// A consolidation sweep: two tenant densities of the DaCapo mix
/// co-scheduled on shared hardware, rendering per-density PCM totals and
/// the per-tenant attribution the consolidation block carries.
fn tenant_sweep(h: &mut Harness) -> Result<String> {
    let mut out = String::new();
    for tenants in [2usize, 3] {
        if let Some(r) = h.run_consolidated_opt(
            hemu_workloads::Mix::Dacapo,
            tenants,
            32,
            CollectorKind::PcmOnly,
            Profile::Emulation,
        ) {
            let c = r.consolidation.expect("consolidated run carries the block");
            let shares: Vec<String> = c
                .per_tenant
                .iter()
                .map(|t| format!("{}:{}", t.workload, t.pcm_write_lines))
                .collect();
            out.push_str(&format!(
                "dacapo@{tenants} pcm={} unattributed={} [{}]\n",
                r.pcm_writes,
                c.unattributed_pcm_lines,
                shares.join(" ")
            ));
        }
    }
    Ok(out)
}

/// Runs the tenant sweep end to end and collects every exported artifact.
fn tenant_artifacts(
    dir: &Path,
    jobs: usize,
    intra: usize,
    faults: Option<FaultPlan>,
    submit: SubmitMode,
) -> (String, BTreeMap<String, String>) {
    let mut h = Harness::new(Scale::Quick);
    h.set_jobs(jobs);
    h.set_intra_threads(intra);
    h.set_submit_mode(submit);
    h.set_reporter(Reporter::to_writer(Box::new(std::io::sink())));
    h.set_json_dir(dir).expect("create json dir");
    h.set_trace_out(dir.join("trace.jsonl")).expect("trace out");
    if let Some(plan) = faults {
        h.set_fault_plan(plan);
    }
    let text = h.run_planned(tenant_sweep).expect("sweep renders");
    h.finalize_exports().expect("finalize");

    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let content = fs::read_to_string(entry.path()).expect("read artifact");
        files.insert(name, content);
    }
    (text, files)
}

/// Consolidated sweeps are byte-identical across `--jobs` {1, 4} ×
/// `--intra-threads` {1, 4}: the slice scheduler runs in virtual time, so
/// neither executor width nor shard-resolution width can reorder tenant
/// turns or write attribution.
#[test]
fn tenant_sweep_is_byte_identical_across_jobs_and_intra() {
    let base = tenant_artifacts(&tmp_dir("det-ten-base"), 1, 1, None, SubmitMode::default());
    for (jobs, intra) in [(1, 4), (4, 1), (4, 4)] {
        let name = format!("det-ten-j{jobs}-t{intra}");
        let got = tenant_artifacts(&tmp_dir(&name), jobs, intra, None, SubmitMode::default());
        assert_identical(&base, &got);
    }
    assert!(
        base.0.contains("dacapo@2") && base.0.contains("dacapo@3"),
        "both densities rendered: {}",
        base.0
    );
    assert!(
        base.1["runs.json"].contains("\"consolidation\":{\"mix\":\"dacapo\""),
        "runs.json carries the consolidation block"
    );
    assert!(
        base.1["runs.json"].contains("\"unattributed_pcm_lines\":0"),
        "per-tenant attribution is complete"
    );
}

/// The same guarantee with a fault plan scoped to the density-2 run:
/// deterministic injected failures, retries, and the surviving density-3
/// run must not depend on either parallelism axis.
#[test]
fn faulted_tenant_sweep_is_byte_identical() {
    let plan = FaultPlan {
        seed: 3,
        frame_alloc_p: 0.5,
        only: Some("dacapo@2".into()),
        ..FaultPlan::none()
    };
    let base = tenant_artifacts(
        &tmp_dir("det-ften-base"),
        1,
        1,
        Some(plan.clone()),
        SubmitMode::default(),
    );
    let par = tenant_artifacts(
        &tmp_dir("det-ften-par"),
        4,
        4,
        Some(plan),
        SubmitMode::default(),
    );
    assert_identical(&base, &par);
}

/// Deferred vs scalar submission for consolidated runs: slice boundaries
/// are semantic flush points, so buffering tenant traffic through the
/// batch pipeline must reproduce the per-call scalar reference exactly.
#[test]
fn tenant_sweep_deferred_matches_scalar() {
    let scalar = tenant_artifacts(&tmp_dir("det-ten-sub-s"), 1, 1, None, SubmitMode::Scalar);
    for (jobs, intra) in [(1, 4), (4, 1)] {
        let name = format!("det-ten-sub-d-j{jobs}-t{intra}");
        let got = tenant_artifacts(&tmp_dir(&name), jobs, intra, None, SubmitMode::Deferred);
        assert_identical(&scalar, &got);
    }
}

/// Widths beyond the job count (and odd widths) change nothing either.
#[test]
fn oversized_pool_is_byte_identical() {
    let seq = artifacts(&tmp_dir("det-seq2"), 1, None);
    let wide = artifacts(&tmp_dir("det-wide"), 32, None);
    assert_identical(&seq, &wide);
}

/// The capped linear backoff: grows linearly, then saturates at
/// `max_backoff` instead of stalling a worker for the full product.
#[test]
fn backoff_is_linear_then_capped() {
    let policy = RunPolicy {
        backoff: Duration::from_millis(40),
        max_backoff: Duration::from_millis(100),
        ..RunPolicy::default()
    };
    assert_eq!(policy.backoff_for(1), Duration::from_millis(40));
    assert_eq!(policy.backoff_for(2), Duration::from_millis(80));
    assert_eq!(policy.backoff_for(3), Duration::from_millis(100), "capped");
    assert_eq!(policy.backoff_for(1000), Duration::from_millis(100));
    // The default policy's cap bounds every sleep at one second.
    let d = RunPolicy::default();
    assert!(d.backoff_for(u32::MAX) <= Duration::from_secs(1));
}
