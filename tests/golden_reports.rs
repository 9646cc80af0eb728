//! Cross-commit pins on the science: the FNV-1a hash of the `RunReport`
//! JSON of four cheap runs, one per scheduler shape (one instance, two
//! instances sharing the LLC, a two-tenant mix at slice 64, and one
//! instance under OS hot-cold paging).
//!
//! Every other determinism check compares two modes within one commit; a
//! refactor that shifts both sides the same way passes them. These hashes
//! were recorded once and only move when the simulated results move.

use hemu_core::{Experiment, Roster, RunReport};
use hemu_obs::{fnv1a64, hash_hex, ToJson};
use hemu_types::{ByteSize, OsPagingConfig, OsPolicy, MIB};
use hemu_workloads::{Mix, WorkloadSpec};

fn spec(name: &str) -> WorkloadSpec {
    WorkloadSpec::by_name(name).expect("registered workload")
}

fn pin(label: &str, report: RunReport, want: &str) {
    let got = hash_hex(fnv1a64(report.to_json().as_bytes()));
    assert_eq!(
        got, want,
        "{label}: the RunReport changed. If the change is intended, record the \
         new hash here and add a CHANGES.md line that explains the science \
         delta (which counters moved, and why)."
    );
}

#[test]
fn one_instance_report_is_pinned() {
    let report = Experiment::new(spec("luindex"))
        .without_warmup()
        .run()
        .expect("one instance");
    pin("luindex x1", report, "9dccdc46ff5746ff");
}

#[test]
fn two_instance_report_is_pinned() {
    let report = Experiment::new(spec("avrora"))
        .instances(2)
        .without_warmup()
        .run()
        .expect("two instances");
    pin("avrora x2", report, "5ca558e024a13540");
}

#[test]
fn two_tenant_mix_report_is_pinned() {
    let report = Experiment::with_roster(Roster::Tenants(Mix::Dacapo, 2))
        .slice(64)
        .without_warmup()
        .run()
        .expect("two tenants");
    pin("dacapo@2 slice 64", report, "27d6c7896031cb45");
}

#[test]
fn os_hot_cold_report_is_pinned() {
    let mut os = OsPagingConfig::new(OsPolicy::HotCold);
    os.dram_limit = Some(ByteSize::new(4 * MIB as u64));
    let report = Experiment::new(spec("luindex"))
        .os_paging(os)
        .without_warmup()
        .run()
        .expect("OS hot-cold");
    pin("luindex OS-hot-cold", report, "d8a8c5c25cf21749");
}
