//! `perfbench`: the hemu benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench metrics                 # every metric, unit, determinism
//! perfbench compare A.json B.json   # refuses results of differing config
//! perfbench fingerprints            # re-record fingerprints.json
//! ```
//!
//! `--trace 0` runs the workload's simulation runs as a closed loop on
//! one worker, pass after pass, for `S` seconds, calibrating the host
//! between runs, verifies every run's output, and prints the end-to-end
//! metrics. `--trace 1` runs the outside-in traced run instead and prints
//! the per-layer metrics. The last line of standard output is always the
//! JSON result.

mod host;
mod load;
mod metrics;
mod probe;
mod sys;
mod trace;
mod verify;
mod workloads;

use hemu_core::RunReport;
use hemu_obs::json::push_json_str;
use hemu_obs::{write_atomic_str, JsonValue};
use hemu_types::{HemuError, Result, MIB};
use metrics::{median, ratio, trimmed_mean, Kind, Values};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Sample, SpanLog};
use workloads::{RunDef, RunKind, WorkloadDef, DEFAULT_SEED, INTRA_THREADS, SUBMIT_MODE};

/// Set-ups timed before the first run: at least the minimum, then more
/// while the budget lasts, up to the maximum.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 1000;
const SETUP_BUDGET_S: f64 = 1.0;
/// Set-ups timed between two runs: at least one, then more while this
/// budget lasts. Set-up time is memory-bound and flips between host
/// states within seconds, so sampling it across the whole window, not
/// in one burst, keeps `setup_s` steady.
const SETUP_SLICE_S: f64 = 0.05;
/// Share of the fastest and of the slowest set-ups left out of the mean
/// that `setup_s` reports.
const SETUP_TRIM: f64 = 0.1;
/// Repetitions of each kernel probe per traced run; the median is kept.
const PROBE_REPEATS: usize = 3;
/// Upper limit of `--seconds`.
const MAX_SECONDS: u64 = 600;
/// Config keys two results must share before they may be compared.
const COMPARED_CONFIG: [&str; 7] = [
    "workload",
    "seconds",
    "trace",
    "workers",
    "intra_threads",
    "submit_mode",
    "nproc",
];

/// Errors that end a benchmark invocation without a result.
type BoxError = Box<dyn std::error::Error>;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
       perfbench metrics | compare A.json B.json | fingerprints";

struct Args {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(WorkloadDef::by_name(value).ok_or(format!(
                    "unknown workload {value} (expected one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=MAX_SECONDS).contains(s))
                        .ok_or(format!("--seconds takes 1 to {MAX_SECONDS}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("metrics") => {
            print!("{}", metrics::table());
            Ok(())
        }
        Some("compare") => compare(&args[1..]),
        Some("fingerprints") => fingerprints(),
        _ => match parse_args(&args) {
            Ok(a) => bench(&a),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match code {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The configuration a result was measured under, recorded beside it.
fn config_json(a: &Args) -> String {
    let mut out = String::from("{\"workload\": ");
    push_json_str(&mut out, a.workload.name);
    out.push_str(&format!(
        ", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workers\": {}, \
         \"intra_threads\": {INTRA_THREADS}, \"submit_mode\": \"{}\", \"nproc\": {}, \
         \"revision\": ",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        load::WORKERS,
        SUBMIT_MODE.name(),
        sys::nproc(),
    ));
    push_json_str(&mut out, &sys::revision());
    out.push('}');
    out
}

/// What one benchmark invocation measured.
struct Outcome {
    attempted: usize,
    failed: usize,
    values: Values,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

fn bench(a: &Args) -> std::result::Result<(), String> {
    println!("workload {}: {}", a.workload.name, a.workload.why);
    let runs = a.workload.runs();
    let outcome = if a.trace {
        traced(a, &runs)
    } else {
        untraced(a, &runs)
    }
    .map_err(|e| e.to_string())?;
    // Recorded only after measuring: outside a git checkout the revision
    // hash reads every source file, and the allocator state that leaves
    // behind would slow the set-ups timed first.
    let config = config_json(a);
    println!("config {config}");
    let kind = if a.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    for d in metrics::CATALOG.iter().filter(|d| d.kind == kind) {
        let v = outcome.values.0.get(d.name).copied().unwrap_or(0.0);
        println!("{:<34} {:>14.6} {}", d.name, v, d.unit);
    }
    for n in &outcome.notes {
        println!("{n}");
    }
    let metrics = outcome.values.to_json(kind);
    let dir = sys::out_dir();
    let path = dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        a.workload.name,
        a.seed,
        u8::from(a.trace)
    ));
    let file = format!(
        "{{\"config\": {config}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}\n",
        outcome.attempted, outcome.failed
    );
    match std::fs::create_dir_all(&dir).and_then(|()| write_atomic_str(&path, &file)) {
        Ok(()) => println!("result written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    Ok(())
}

/// Verifies a pass, reports each failure on stderr and returns, per run,
/// whether it failed.
fn verify_pass(a: &Args, runs: &[RunDef], results: &[&Result<RunReport>]) -> Vec<bool> {
    verify::check(a.workload.name, runs, results, a.seed)
        .into_iter()
        .zip(runs)
        .map(|(f, run)| {
            if let Some(why) = &f {
                eprintln!("FAILED {}: {why}", run.label);
            }
            f.is_some()
        })
        .collect()
}

/// One timed run of the closed loop.
struct RunSample {
    /// Host seconds of the run.
    secs: f64,
    /// Process CPU seconds the run used.
    cpu: f64,
    /// Factor to reference-host seconds (see [`host`]).
    scale: f64,
}

/// Runs the closed loop for `--seconds`, run after run in pass order,
/// timing each; between runs it calibrates the host and times a slice of
/// set-ups. Stops before a run that would end past the window, once every
/// run has run at least once.
fn untraced(a: &Args, runs: &[RunDef]) -> std::result::Result<Outcome, BoxError> {
    let mut setups = Vec::new();
    time_setups(runs, a.seed, SETUP_MIN_REPEATS, SETUP_BUDGET_S, &mut setups)?;
    let initial_setups = setups.len();
    let n = runs.len();
    let mut cal = host::Calibrator::new();
    let mut before = cal.measure();
    let mut samples: Vec<Vec<RunSample>> = (0..n).map(|_| Vec::new()).collect();
    let mut pending: Vec<Result<RunReport>> = Vec::with_capacity(n);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        lines: vec![0; n],
    };
    let start = Instant::now();
    loop {
        let k = pending.len();
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        pending.push(runs[k].kind.execute(a.seed));
        let secs = t0.elapsed().as_secs_f64();
        let cpu = sys::cpu_seconds() - cpu0;
        let after = cal.measure();
        samples[k].push(RunSample {
            secs,
            cpu,
            scale: host::scale(before, after),
        });
        before = after;
        if pending.len() == n {
            tally.settle(a, runs, &mut pending);
        }
        let next = samples[(k + 1) % n].last().map_or(secs, |s| s.secs);
        if samples.iter().all(|s| !s.is_empty())
            && start.elapsed().as_secs_f64() + next > a.seconds as f64
        {
            break;
        }
        time_setups(runs, a.seed, 1, SETUP_SLICE_S, &mut setups)?;
    }
    tally.settle(a, runs, &mut pending);
    let Tally {
        attempted,
        failed,
        lines,
    } = tally;

    // Per run: mean seconds over its samples, scaled and as measured.
    let mean = |f: &dyn Fn(&RunSample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .map(|s| s.iter().map(f).sum::<f64>() / s.len() as f64)
            .collect()
    };
    let secs = mean(&|s| s.secs * s.scale);
    let cpus = mean(&|s| s.cpu * s.scale);
    let raw = mean(&|s| s.secs);
    let pass_s: f64 = secs.iter().sum();
    let ok = (attempted - failed) as f64 / attempted as f64;
    let mut values = Values::default();
    values.set("setup_s", trimmed_mean(&setups, SETUP_TRIM));
    values.set("runs_per_s", ok * n as f64 / pass_s);
    values.set(
        "sim_mlines_per_s",
        lines.iter().sum::<u64>() as f64 / 1e6 / pass_s,
    );
    values.set("run_s_p50", median(&secs));
    values.set("run_s_max", secs.iter().copied().fold(0.0, f64::max));
    values.set("cpu_s_per_run", cpus.iter().sum::<f64>() / n as f64);
    values.set("peak_rss_mib", sys::peak_rss_mib());
    values.set("verified_run_frac", ok);
    let scales: Vec<f64> = samples.iter().flatten().map(|s| s.scale).collect();
    let counts: Vec<String> = samples.iter().map(|s| s.len().to_string()).collect();
    let mut notes = vec![
        format!(
            "samples: setup_s {} set-ups ({initial_setups} before the first run, median {:.6} s; \
             {} between runs, median {:.6} s); {attempted} runs on {} worker, per run {} \
             (pass order); run figures are each run's mean over its samples",
            setups.len(),
            median(&setups[..initial_setups]),
            setups.len() - initial_setups,
            median(&setups[initial_setups..]),
            load::WORKERS,
            counts.join("/"),
        ),
        format!(
            "host scale to reference seconds: median {:.3} over {} runs (min {:.3}, max {:.3}); \
             unscaled: runs_per_s {:.4}, run_s_p50 {:.4} s, run_s_max {:.4} s",
            median(&scales),
            scales.len(),
            scales.iter().copied().fold(f64::INFINITY, f64::min),
            scales.iter().copied().fold(0.0, f64::max),
            ok * n as f64 / raw.iter().sum::<f64>(),
            median(&raw),
            raw.iter().copied().fold(0.0, f64::max),
        ),
        format!(
            "failed_run_frac {} ({failed} of {attempted} runs)",
            failed as f64 / attempted as f64
        ),
    ];
    notes.extend(runs.iter().enumerate().map(|(k, run)| {
        format!(
            "run {:<24} samples {} mean {:.4} s scaled, {:.4} s measured",
            run.label,
            samples[k].len(),
            secs[k],
            raw[k]
        )
    }));
    Ok(Outcome {
        attempted,
        failed,
        values,
        notes,
    })
}

/// Times set-ups of every run's inputs into `out`: at least `min`, then
/// more until `budget_s` has passed, at most [`SETUP_MAX_REPEATS`].
fn time_setups(
    runs: &[RunDef],
    seed: u64,
    min: usize,
    budget_s: f64,
    out: &mut Vec<f64>,
) -> Result<()> {
    let t0 = Instant::now();
    let mut k = 0;
    while k < min || (k < SETUP_MAX_REPEATS && t0.elapsed().as_secs_f64() < budget_s) {
        out.push(workloads::build_inputs(runs, seed)?);
        k += 1;
    }
    Ok(())
}

/// The closed loop's verified-run bookkeeping.
struct Tally {
    attempted: usize,
    failed: usize,
    /// Simulated line accesses of each run, once verified.
    lines: Vec<u64>,
}

impl Tally {
    /// Verifies the runs completed so far in the current pass (a prefix
    /// of `runs`), counts them, records each verified run's simulated
    /// lines and clears `pending`.
    fn settle(&mut self, a: &Args, runs: &[RunDef], pending: &mut Vec<Result<RunReport>>) {
        let results: Vec<_> = pending.iter().collect();
        let failures = verify_pass(a, &runs[..pending.len()], &results);
        for (k, (result, bad)) in pending.iter().zip(failures).enumerate() {
            self.attempted += 1;
            match (bad, result) {
                (false, Ok(r)) => self.lines[k] = r.machine.line_accesses,
                _ => self.failed += 1,
            }
        }
        pending.clear();
    }
}

/// One run of a traced pass: its spans, the layer sample of a mirrored
/// run, and its self-check against the untraced report of the same run.
struct Traced {
    log: SpanLog,
    sample: Option<Sample>,
    check: std::result::Result<(), String>,
}

fn export_path(dir: &Path, label: &str) -> PathBuf {
    let file: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{file}.json"))
}

fn traced(a: &Args, runs: &[RunDef]) -> std::result::Result<Outcome, BoxError> {
    let start = Instant::now();
    let probes = (0..PROBE_REPEATS)
        .map(|_| probe::run())
        .collect::<Result<Vec<_>>>()?;
    let reports_dir = sys::out_dir().join("reports").join(a.workload.name);
    std::fs::create_dir_all(&reports_dir)?;
    let mut pairs: Vec<Values> = Vec::new();
    let mut pair_secs: Vec<f64> = Vec::new();
    let mut walls: Vec<(f64, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut spans_out = String::new();
    loop {
        let t_pair = Instant::now();
        let reference = load::run_pass(runs.len(), |i| runs[i].kind.execute(a.seed));
        let results: Vec<_> = reference.jobs.iter().map(|t| &t.value).collect();
        let mut failures = verify_pass(a, runs, &results);
        let traced = load::run_pass(runs.len(), |i| -> Result<Traced> {
            let kind = &runs[i].kind;
            let Ok(untraced) = &reference.jobs[i].value else {
                return Err(HemuError::InvalidConfig("untraced run failed".into()));
            };
            Ok(match kind {
                RunKind::Single { .. } => {
                    let path = export_path(&reports_dir, &runs[i].label);
                    let (sample, log) = trace::mirror(kind, a.seed, untraced, &path)?;
                    Traced {
                        check: sample.check_against(untraced),
                        sample: Some(sample),
                        log,
                    }
                }
                _ => {
                    let (log, report) = trace::whole(kind, a.seed)?;
                    let same = verify::fingerprint(&report) == verify::fingerprint(untraced);
                    Traced {
                        log,
                        sample: None,
                        check: if same {
                            Ok(())
                        } else {
                            Err("traced report differs from the untraced one".into())
                        },
                    }
                }
            })
        });

        let mut s = Sample::default();
        spans_out.clear();
        for (i, t) in traced.jobs.iter().enumerate() {
            let check = match &t.value {
                Ok(traced) => {
                    traced.log.write_jsonl(&runs[i].label, &mut spans_out);
                    if let Some(sample) = &traced.sample {
                        s.add(sample);
                    }
                    traced.check.clone()
                }
                Err(e) => Err(format!("traced run failed: {e}")),
            };
            if let Err(why) = check {
                eprintln!("FAILED {} (traced): {why}", runs[i].label);
                failures[i] = true;
            }
        }
        attempted += runs.len();
        failed += failures.iter().filter(|&&f| f).count();

        let mut v = Values::default();
        s.layer_values(&mut v);
        probe::layer_values(&probes, &mut v);
        reference_values(&reference, &mut v);
        v.set("bench.trace_overhead", traced.wall / reference.wall);
        pairs.push(v);
        walls.push((reference.wall, traced.wall));

        pair_secs.push(t_pair.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + median(&pair_secs) > a.seconds as f64 {
            break;
        }
    }

    let mut values = Values::default();
    for d in metrics::CATALOG.iter().filter(|d| d.kind == Kind::PerLayer) {
        let xs: Vec<f64> = pairs
            .iter()
            .filter_map(|p| p.0.get(d.name).copied())
            .collect();
        values.set(d.name, median(&xs));
    }
    let spans_path = sys::out_dir().join(format!("spans-{}-seed{}.jsonl", a.workload.name, a.seed));
    write_atomic_str(&spans_path, &spans_out)?;
    let notes = vec![
        format!(
            "samples: {} untraced/traced pass pairs of {} runs on {} worker; {PROBE_REPEATS} repeats per probe; per-layer values are medians over pairs",
            pairs.len(),
            runs.len(),
            load::WORKERS
        ),
        format!(
            "tracing overhead {:.3}x (traced pass wall / untraced pass wall; pairs {})",
            values.0.get("bench.trace_overhead").copied().unwrap_or(0.0),
            walls
                .iter()
                .map(|(u, t)| format!("{t:.2}s/{u:.2}s"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!("spans written to {}", spans_path.display()),
    ];
    Ok(Outcome {
        attempted,
        failed,
        values,
        notes,
    })
}

/// Whole-run figures of the untraced reference pass: controller writes,
/// host ns per measured line of each public runner, and unattributed
/// tenant lines.
fn reference_values(reference: &load::Pass<Result<RunReport>>, v: &mut Values) {
    let (mut pcm, mut dram, mut unattributed) = (0u64, 0u64, 0u64);
    let (mut exp_ns, mut exp_lines, mut ten_ns, mut ten_lines) = (0.0, 0u64, 0.0, 0u64);
    for t in &reference.jobs {
        let Ok(r) = &t.value else { continue };
        pcm += r.pcm_writes.bytes();
        dram += r.dram_writes.bytes();
        match &r.consolidation {
            Some(c) => {
                ten_ns += t.secs() * 1e9;
                ten_lines += r.machine.line_accesses;
                unattributed += c.unattributed_pcm_lines + c.unattributed_dram_lines;
            }
            None => {
                exp_ns += t.secs() * 1e9;
                exp_lines += r.machine.line_accesses;
            }
        }
    }
    v.set("numa.pcm_write_mib", pcm as f64 / MIB as f64);
    v.set("numa.dram_write_mib", dram as f64 / MIB as f64);
    v.set(
        "core.experiment_ns_per_line",
        ratio(exp_ns, exp_lines as f64),
    );
    v.set("tenant.run_ns_per_line", ratio(ten_ns, ten_lines as f64));
    v.set("tenant.unattributed_lines", unattributed as f64);
}

fn compare(paths: &[String]) -> std::result::Result<(), String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    let load = |p: &String| -> std::result::Result<JsonValue, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        JsonValue::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let cfg = |j: &JsonValue, k: &str| {
        j.get("config")
            .and_then(|c| c.get(k))
            .and_then(|v| {
                v.as_str()
                    .map(str::to_string)
                    .or_else(|| v.as_f64().map(|x| x.to_string()))
            })
            .unwrap_or_default()
    };
    let differ: Vec<String> = COMPARED_CONFIG
        .iter()
        .filter(|k| cfg(&ja, k) != cfg(&jb, k))
        .map(|k| format!("{k}: {} vs {}", cfg(&ja, k), cfg(&jb, k)))
        .collect();
    if !differ.is_empty() {
        return Err(format!(
            "refusing to compare results measured under different configs ({})",
            differ.join("; ")
        ));
    }
    println!(
        "revision {} -> {}",
        cfg(&ja, "revision"),
        cfg(&jb, "revision")
    );
    let value = |j: &JsonValue, name: &str| {
        j.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
    };
    for d in metrics::CATALOG {
        let (Some(x), Some(y)) = (value(&ja, d.name), value(&jb, d.name)) else {
            continue;
        };
        let change = ratio(y - x, x);
        let better = if d.higher_is_better {
            change > 0.0
        } else {
            change < 0.0
        };
        println!(
            "{:<34} {:>14.6} {:>14.6} {:>+8.2}% {} {}",
            d.name,
            x,
            y,
            change * 100.0,
            d.unit,
            if change == 0.0 {
                "same"
            } else if better {
                "better"
            } else {
                "worse"
            }
        );
    }
    Ok(())
}

fn fingerprints() -> std::result::Result<(), String> {
    let mut out = format!("{{\n  \"seed\": {DEFAULT_SEED},\n  \"runs\": {{\n");
    for (wi, w) in workloads::WORKLOADS.iter().enumerate() {
        let runs = w.runs();
        let pass = load::run_pass(runs.len(), |i| runs[i].kind.execute(DEFAULT_SEED));
        out.push_str(&format!("    \"{}\": {{\n", w.name));
        for (i, (run, t)) in runs.iter().zip(&pass.jobs).enumerate() {
            let report = t
                .value
                .as_ref()
                .map_err(|e| format!("{} {}: {e}", w.name, run.label))?;
            out.push_str("      ");
            push_json_str(&mut out, &run.label);
            out.push_str(&format!(": \"{}\"", verify::fingerprint(report)));
            out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
        }
        out.push_str(if wi + 1 < workloads::WORKLOADS.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  }\n}\n");
    print!("{out}");
    Ok(())
}
