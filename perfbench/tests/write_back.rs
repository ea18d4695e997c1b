//! The `write-back` workload runs end to end with one caller, in both
//! modes: every read passes the version check, every phase reconciles,
//! and after the final flush every acknowledged write is byte-equal in the
//! store. With two callers its read check fails on the current runtime
//! (README.md, "Known failure"), so it is not in `BENCHMARK.json`; this
//! keeps its gates running meanwhile.

use std::process::Command;

/// Run the benchmark binary on `write-back` with one caller and return
/// its standard output, failing on a nonzero exit.
fn run(trace: u8) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("write-back-{trace}"));
    std::fs::create_dir_all(&dir).expect("create working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "write-back", "--seed", "1", "--seconds", "3"])
        .args(["--trace", &trace.to_string(), "--clients", "1"])
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "write-back --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": true"), "no result: {last}");
    stdout
}

/// Acknowledged writes the durability gate checked.
fn persisted(stdout: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.contains("durability:"))
        .expect("a durability line");
    line.split_whitespace()
        .find_map(|w| w.parse().ok())
        .expect("a write count")
}

#[test]
fn untraced_write_back_persists_every_acknowledged_write() {
    let out = run(0);
    assert!(persisted(&out) > 0, "no writes were acknowledged:\n{out}");
    for name in ["write_p50_ms", "write_p99_ms", "miss_ms_per_req"] {
        assert!(out.contains(name), "{name} missing:\n{out}");
    }
}

#[test]
fn traced_write_back_reports_the_write_path() {
    let out = run(1);
    assert!(persisted(&out) > 0, "no writes were acknowledged:\n{out}");
    for name in ["rt.write_us.p50", "rt.flushes", "disk.writes"] {
        assert!(out.contains(name), "{name} missing:\n{out}");
    }
}
