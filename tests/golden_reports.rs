//! Cross-commit pins on the science: the FNV-1a hash of the `RunReport`
//! JSON of four cheap runs, one per scheduler shape (one instance, two
//! instances sharing the LLC, a two-tenant mix at slice 64, and one
//! instance under OS hot-cold paging).
//!
//! Every other determinism check compares two modes within one commit; a
//! refactor that shifts both sides the same way passes them. These hashes
//! were recorded once and only move when the simulated results move.
//!
//! Each report is pinned under every engine configuration in [`ENGINES`]:
//! the access path, submission mode and resolver thread count change only
//! host time, never a simulated byte, so all of them must reproduce the
//! one recorded hash.

use hemu_core::{Experiment, Roster};
use hemu_fault::FaultPlan;
use hemu_obs::{fnv1a64, hash_hex, ToJson};
use hemu_types::{AccessPath, ByteSize, OsPagingConfig, OsPolicy, SubmitMode, MIB};
use hemu_workloads::{Mix, WorkloadSpec};

/// The engine configurations every report must agree across: access path,
/// submission mode, and resolver threads per run. The first is the
/// `Experiment` default, which every sweep and perfbench use; the scalar
/// ones are the reference implementations the fast paths are checked
/// against; four threads reach the sharded resolver's worker pool.
const ENGINES: [(AccessPath, SubmitMode, usize); 4] = [
    (AccessPath::Batched, SubmitMode::Deferred, 1),
    (AccessPath::Scalar, SubmitMode::Scalar, 1),
    (AccessPath::Batched, SubmitMode::Scalar, 1),
    (AccessPath::Batched, SubmitMode::Deferred, 4),
];

fn spec(name: &str) -> WorkloadSpec {
    WorkloadSpec::by_name(name).expect("registered workload")
}

/// `e` configured with one entry of [`ENGINES`].
fn on_engine(e: &Experiment, (path, mode, threads): (AccessPath, SubmitMode, usize)) -> Experiment {
    e.clone()
        .access_path(path)
        .submit_mode(mode)
        .intra_threads(threads)
}

fn pin(label: &str, e: Experiment, want: &str) {
    for engine in ENGINES {
        let report = on_engine(&e, engine).run().expect(label);
        let got = hash_hex(fnv1a64(report.to_json().as_bytes()));
        assert_eq!(
            got, want,
            "{label} on {engine:?}: the RunReport changed. If the change is \
             intended, record the new hash here and add a CHANGES.md line that \
             explains the science delta (which counters moved, and why)."
        );
    }
}

#[test]
fn one_instance_report_is_pinned() {
    let e = Experiment::new(spec("luindex")).without_warmup();
    pin("luindex x1", e, "9dccdc46ff5746ff");
}

#[test]
fn two_instance_report_is_pinned() {
    let e = Experiment::new(spec("avrora"))
        .instances(2)
        .without_warmup();
    pin("avrora x2", e, "5ca558e024a13540");
}

#[test]
fn two_tenant_mix_report_is_pinned() {
    let e = Experiment::with_roster(Roster::Tenants(Mix::Dacapo, 2))
        .slice(64)
        .without_warmup();
    pin("dacapo@2 slice 64", e, "27d6c7896031cb45");
}

#[test]
fn os_hot_cold_report_is_pinned() {
    let mut os = OsPagingConfig::new(OsPolicy::HotCold);
    os.dram_limit = Some(ByteSize::new(4 * MIB as u64));
    let e = Experiment::new(spec("luindex"))
        .os_paging(os)
        .without_warmup();
    pin("luindex OS-hot-cold", e, "d8a8c5c25cf21749");
}

/// Under a fault plan the machine leaves its deferred and aggregate fast
/// paths, so this compares engines within one commit rather than against
/// a recorded hash: every configuration must give the same report and
/// event trace, or fail with the same error. Two plans: the determinism
/// suite's frame-allocation plan, which fails the run, and the CI smoke
/// plan, whose QPI stalls and rare allocation faults let it complete.
#[test]
fn faulted_run_is_identical_on_every_engine() {
    let failing = FaultPlan {
        seed: 3,
        frame_alloc_p: 0.5,
        ..FaultPlan::none()
    };
    for (plan, completes) in [(failing, false), (FaultPlan::smoke(), true)] {
        let e = Experiment::new(spec("avrora"))
            .without_warmup()
            .faults(plan);
        let outcome = |engine| {
            on_engine(&e, engine)
                .run_with_trace(1 << 16)
                .map(|(report, trace)| (report.to_json(), trace))
                .map_err(|err| err.to_string())
        };
        let reference = outcome(ENGINES[0]);
        assert_eq!(reference.is_ok(), completes, "{reference:?}");
        for engine in &ENGINES[1..] {
            assert!(
                outcome(*engine) == reference,
                "faulted avrora diverged on {engine:?}"
            );
        }
    }
}
