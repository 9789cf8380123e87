//! Supervisor failure-policy regression: stalled workers are killed
//! past the heartbeat timeout and their cells are recovered; a retired
//! shard's cells are reassigned to survivors; a permanently-crashing
//! cell fails the campaign with a structured error naming the poisoned
//! range; and output error paths exit cleanly instead of panicking.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_base(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("h2priv_super_{}_{tag}_{n}", std::process::id()))
}

fn read(path: &PathBuf) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

struct CampaignRun {
    status: std::process::ExitStatus,
    stderr: String,
}

fn campaign(journal: &PathBuf, out: Option<&PathBuf>, extra: &[&str]) -> CampaignRun {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(["robustness_sweep", "1", "--journal"])
        .arg(journal);
    if let Some(out) = out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd
        .arg("--quiet")
        .args(extra)
        .output()
        .expect("campaign binary runs");
    CampaignRun {
        status: output.status,
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

fn baseline() -> (Vec<u8>, Vec<u8>) {
    let journal = temp_base("base").with_extension("jsonl");
    let out = temp_base("base").with_extension("json");
    let run = campaign(&journal, Some(&out), &["--shards", "1"]);
    assert!(run.status.success(), "{}", run.stderr);
    let bytes = (read(&journal), read(&out));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&out);
    bytes
}

#[test]
fn stalled_worker_is_killed_after_heartbeat_and_campaign_completes_identically() {
    let (ref_journal, ref_report) = baseline();
    let journal = temp_base("stall").with_extension("jsonl");
    let out = temp_base("stall").with_extension("json");
    // Two slots deal the 6 cells as 0, 2, 4 and 1, 3, 5: the worker on
    // shard 0 hangs before cell 4; a 300 ms heartbeat reaps it and the
    // respawn finishes its cells.
    let run = campaign(
        &journal,
        Some(&out),
        &[
            "--shards",
            "2",
            "--heartbeat-ms",
            "300",
            "--inject-stall",
            "trial=4",
        ],
    );
    assert!(run.status.success(), "{}", run.stderr);
    assert!(
        run.stderr.contains("stall kill"),
        "stall recovery should be reported: {}",
        run.stderr
    );
    assert_eq!(
        read(&journal),
        ref_journal,
        "stall kill changed the journal"
    );
    assert_eq!(read(&out), ref_report, "stall kill changed the report");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn retired_shards_range_is_reassigned_to_survivors() {
    let (ref_journal, ref_report) = baseline();
    let journal = temp_base("retire").with_extension("jsonl");
    let out = temp_base("retire").with_extension("json");
    // With a zero respawn budget, the injected crash retires shard 1
    // (cells 1, 3, 5) at cell 3; the surviving shard must pick up its
    // unfinished cells.
    let run = campaign(
        &journal,
        Some(&out),
        &[
            "--shards",
            "2",
            "--max-respawns",
            "0",
            "--inject-kill",
            "shard=1,trial=3",
        ],
    );
    assert!(run.status.success(), "{}", run.stderr);
    assert!(
        run.stderr.contains("range reassignment"),
        "reassignment should be reported: {}",
        run.stderr
    );
    assert_eq!(
        read(&journal),
        ref_journal,
        "reassignment changed the journal"
    );
    assert_eq!(read(&out), ref_report, "reassignment changed the report");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn permanently_crashing_cell_fails_with_a_poisoned_range_error() {
    let journal = temp_base("poison").with_extension("jsonl");
    let run = campaign(
        &journal,
        None,
        &["--shards", "1", "--inject-kill", "trial=3,repeat"],
    );
    assert!(!run.status.success(), "poisoned campaign must fail");
    assert!(
        run.stderr.contains("poisoned trial range")
            && run.stderr.contains("cells 3..6")
            && run.stderr.contains("crashed its worker 3 times"),
        "error must name the poisoned range: {}",
        run.stderr
    );
    // The journal keeps the good prefix (header + cells before the
    // poisoned one) so a fixed binary can still resume.
    let text = String::from_utf8(read(&journal)).unwrap();
    assert_eq!(text.lines().count(), 4, "header + cells 0..3:\n{text}");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn broken_stdout_pipe_is_a_clean_nonzero_exit_not_a_panic() {
    let journal = temp_base("pipe").with_extension("jsonl");
    // No --out: the report goes to stdout, whose read end we close
    // immediately. The write must surface as a clean exit.
    let mut child = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["robustness_sweep", "1", "--journal"])
        .arg(&journal)
        .args(["--shards", "1", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("campaign binary runs");
    drop(child.stdout.take());
    let status = child.wait().expect("campaign exits");
    let mut stderr = String::new();
    std::io::Read::read_to_string(child.stderr.as_mut().unwrap(), &mut stderr).unwrap();
    assert!(!status.success(), "broken pipe must be a nonzero exit");
    assert!(
        !stderr.contains("panicked"),
        "broken pipe must not panic: {stderr}"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn unwritable_report_path_is_a_clean_error() {
    let journal = temp_base("unwritable").with_extension("jsonl");
    let out = PathBuf::from("/nonexistent-dir/report.json");
    let run = campaign(&journal, Some(&out), &["--shards", "1"]);
    assert!(!run.status.success());
    assert!(
        run.stderr.contains("error: writing") && !run.stderr.contains("panicked"),
        "unexpected stderr: {}",
        run.stderr
    );
    let _ = std::fs::remove_file(&journal);
}
