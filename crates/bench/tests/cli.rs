//! The `repro` command line rejects flags it does not know. A dropped flag
//! would silently change what runs: `repro --bench` would start a
//! full-scale `repro all`, and a typo like `--jbos 4` would run at the
//! default width. Every case must exit 2, name the flag, and start no run.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

#[test]
fn unknown_flags_exit_2_before_any_run() {
    let cases: [&[&str]; 6] = [
        &["--bench"],
        &["fig3", "--intra-threads", "2"],
        &["fig3", "--jbos", "4"],
        &["fig3", "--access-path", "scalar"],
        &["fig3", "--submit", "scalar"],
        &["smoke", "--quick", "--bench-out", "bench.json"],
    ];
    for (i, args) in cases.iter().enumerate() {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-unknown-{i}"));
        let _ = fs::remove_dir_all(&dir);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*args)
            .arg("--json-out")
            .arg(&dir)
            .output()
            .expect("spawn repro");
        let flag = args
            .iter()
            .find(|a| a.starts_with("--") && **a != "--quick");
        let flag = flag.expect("every case has an unknown flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: stderr names the flag: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: no target rendered");
        assert!(!dir.exists(), "{args:?}: no output directory created");
    }
}
