//! Process and host facts read from `/proc` and the checkout: CPU time,
//! peak resident set, core count and the source revision a result
//! belongs to.

use hemu_obs::{fnv1a64, hash_hex};
use std::fs;
use std::path::{Path, PathBuf};

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`; 100 on
/// every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, summed over
/// all its threads, live and exited.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields after it are
    // counted from the closing parenthesis. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after the state field.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// The process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The revision the measured code came from: `git:<HEAD>` when the
/// checkout is a git repository, otherwise `src:<hash>`, an FNV-1a hash
/// over every simulator source file and manifest, so two results from
/// the same sources still record the same revision.
pub fn revision() -> String {
    if let Some(head) = git_head(Path::new(".git")) {
        return format!("git:{head}");
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        if let Ok(bytes) = fs::read(f) {
            all.extend_from_slice(f.to_string_lossy().as_bytes());
            all.push(0);
            all.extend_from_slice(&bytes);
        }
    }
    format!("src:{}", hash_hex(fnv1a64(&all)))
}

fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(git.join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| packed_ref(git, r)),
        None => Some(head.to_string()),
    }
}

fn packed_ref(git: &Path, name: &str) -> Option<String> {
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, r) = l.split_once(' ')?;
        (r == name).then(|| hash.to_string())
    })
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Where results, spans and exported reports go: `perfbench-out` under
/// the cargo target directory (`CARGO_TARGET_DIR`, else the package's own
/// `target`), so every file the benchmark writes stays in the checkout's
/// build output.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-out")
}
