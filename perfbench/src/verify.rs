//! Output verification. Speed changes must leave the science untouched,
//! so every run's report is checked against invariants that hold at any
//! seed and, at the default seed, against the FNV-1a fingerprint of its
//! report JSON recorded in `fingerprints.json`. A run that misses any
//! check counts as failed.

use crate::workloads::{RunDef, RunKind, DEFAULT_SEED};
use hemu_core::RunReport;
use hemu_heap::CollectorKind;
use hemu_obs::json::ToJson;
use hemu_obs::{fnv1a64, hash_hex, JsonValue};
use hemu_types::{Result, CACHE_LINE};

/// Report fingerprints at [`DEFAULT_SEED`], keyed by workload then run
/// label. Regenerate with `perfbench fingerprints` when a change is meant
/// to move the science, and say why in the change log.
const FINGERPRINTS: &str = include_str!("../fingerprints.json");

/// The hex FNV-1a hash of a report's JSON export.
pub fn fingerprint(report: &RunReport) -> String {
    hash_hex(fnv1a64(report.to_json().as_bytes()))
}

fn recorded(table: Option<&JsonValue>, workload: &str, label: &str) -> Option<String> {
    let table = table?;
    if table.get("seed")?.as_u64()? != DEFAULT_SEED {
        return None;
    }
    table
        .get("runs")?
        .get(workload)?
        .get(label)?
        .as_str()
        .map(str::to_string)
}

/// Checks one pass of a workload. Returns, per run, why it failed, or
/// `None` for a verified run.
pub fn check(
    workload: &str,
    runs: &[RunDef],
    results: &[&Result<RunReport>],
    seed: u64,
) -> Vec<Option<String>> {
    let table = JsonValue::parse(FINGERPRINTS).ok();
    let mut failures: Vec<Option<String>> = results
        .iter()
        .zip(runs)
        .map(|(result, run)| match result {
            Err(e) => Some(format!("run failed: {e}")),
            Ok(report) => check_one(table.as_ref(), workload, run, report, seed).err(),
        })
        .collect();
    // KG-W exists to ration PCM writes: per application it never writes
    // more to PCM than the PCM-Only baseline.
    for (i, run) in runs.iter().enumerate() {
        let RunKind::Single {
            spec,
            collector: CollectorKind::KgW,
            os: None,
        } = run.kind
        else {
            continue;
        };
        let baseline = runs.iter().position(|r| {
            matches!(r.kind, RunKind::Single { spec: s, collector: CollectorKind::PcmOnly, os: None } if s == spec)
        });
        if let (Some(b), Ok(kgw)) = (baseline, results[i]) {
            if let Ok(base) = results[b] {
                if kgw.pcm_writes > base.pcm_writes && failures[i].is_none() {
                    failures[i] = Some(format!(
                        "KG-W wrote {} to PCM, more than PCM-Only's {}",
                        kgw.pcm_writes, base.pcm_writes
                    ));
                }
            }
        }
    }
    failures
}

fn check_one(
    table: Option<&JsonValue>,
    workload: &str,
    run: &RunDef,
    report: &RunReport,
    seed: u64,
) -> std::result::Result<(), String> {
    if run.kind.is_native() && (report.gc.is_some() || report.native.is_none()) {
        return Err("a C++ run reported managed-heap GC statistics".into());
    }
    if let RunKind::Tenants { .. } = run.kind {
        let c = report
            .consolidation
            .as_ref()
            .ok_or("a tenant run reported no consolidation summary")?;
        let line = CACHE_LINE as u64;
        if c.unattributed_pcm_lines != 0 || c.unattributed_dram_lines != 0 {
            return Err(format!(
                "{} PCM and {} DRAM line writes are unattributed",
                c.unattributed_pcm_lines, c.unattributed_dram_lines
            ));
        }
        if c.attributed_pcm_lines() * line != report.pcm_writes.bytes()
            || c.attributed_dram_lines() * line != report.dram_writes.bytes()
        {
            return Err("tenant line writes do not sum to the controller counters".into());
        }
    }
    if seed == DEFAULT_SEED {
        let got = fingerprint(report);
        match recorded(table, workload, &run.label) {
            Some(want) if want == got => {}
            Some(want) => {
                return Err(format!(
                    "report fingerprint {got} differs from the recorded {want}"
                ))
            }
            None => return Err("no fingerprint recorded for this run".into()),
        }
    }
    Ok(())
}
