//! Resume-identity regression for the sharded campaign runner: whatever
//! happens to a campaign — run at any shard count, killed at any batch
//! boundary or mid-batch and resumed — the journal and the folded report
//! must come out **byte-identical** to an uninterrupted run. This is
//! the process-level extension of `parallel_identity.rs`: scheduling
//! (and now crashing) is invisible in the results.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

const TRIALS: &str = "2";
/// The kill test's experiment: at 2 trials, 7 batches of 2 cells that
/// run in milliseconds, so every cell can be a kill point.
const KILLED: &str = "fig2";
/// The first cell of each of `KILLED`'s batches (the batch boundaries).
const BATCH_BOUNDARIES: [u64; 7] = [0, 2, 4, 6, 8, 10, 12];

fn temp_base(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("h2priv_resume_{}_{tag}_{n}", std::process::id()))
}

struct CampaignRun {
    status: std::process::ExitStatus,
    stderr: String,
}

fn campaign(journal: &PathBuf, out: &PathBuf, extra: &[&str]) -> CampaignRun {
    campaign_of("robustness_sweep", journal, out, extra)
}

fn campaign_of(experiment: &str, journal: &PathBuf, out: &PathBuf, extra: &[&str]) -> CampaignRun {
    let output = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg(experiment)
        .arg(TRIALS)
        .arg("--journal")
        .arg(journal)
        .arg("--out")
        .arg(out)
        .arg("--quiet")
        .args(extra)
        .output()
        .expect("campaign binary runs");
    CampaignRun {
        status: output.status,
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

fn read(path: &PathBuf) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn cleanup(paths: &[&PathBuf]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

/// The uninterrupted single-shard journal and report bytes.
fn baseline() -> (Vec<u8>, Vec<u8>) {
    baseline_of("robustness_sweep")
}

fn baseline_of(experiment: &str) -> (Vec<u8>, Vec<u8>) {
    let journal = temp_base("baseline").with_extension("jsonl");
    let out = temp_base("baseline").with_extension("json");
    let run = campaign_of(experiment, &journal, &out, &["--shards", "1"]);
    assert!(run.status.success(), "baseline failed: {}", run.stderr);
    let bytes = (read(&journal), read(&out));
    cleanup(&[&journal, &out]);
    bytes
}

#[test]
fn journal_and_report_are_byte_identical_across_shard_counts() {
    let (ref_journal, ref_report) = baseline();
    for shards in ["1", "2", "4"] {
        let journal = temp_base("shards").with_extension("jsonl");
        let out = temp_base("shards").with_extension("json");
        let run = campaign(&journal, &out, &["--shards", shards]);
        assert!(run.status.success(), "shards={shards}: {}", run.stderr);
        assert_eq!(
            read(&journal),
            ref_journal,
            "journal differs at {shards} shard(s)"
        );
        assert_eq!(
            read(&out),
            ref_report,
            "report differs at {shards} shard(s)"
        );
        cleanup(&[&journal, &out]);
    }
}

/// Kills a campaign at every batch boundary and at the cell after each,
/// on two and on three slots, so each slot runs some killed cell (on two,
/// slot 0 never runs the cell after a boundary). The killed journal must
/// be exactly the header plus cells `0..k`; the resume on the same slots
/// must then match the uninterrupted run byte for byte.
#[test]
fn kill_at_every_batch_boundary_then_resume_is_byte_identical() {
    let (ref_journal, ref_report) = baseline_of(KILLED);
    let ref_text = String::from_utf8(ref_journal.clone()).expect("journal is UTF-8");
    for shards in ["2", "3"] {
        for k in BATCH_BOUNDARIES.iter().flat_map(|&b| [b, b + 1]) {
            let journal = temp_base("kill").with_extension("jsonl");
            let out = temp_base("kill").with_extension("json");
            let kill = format!("trial={k}");
            let interrupted = campaign_of(
                KILLED,
                &journal,
                &out,
                &[
                    "--shards",
                    shards,
                    "--fail-on-crash",
                    "--inject-kill",
                    &kill,
                ],
            );
            assert!(
                !interrupted.status.success(),
                "shards={shards}: kill at cell {k} should abort the campaign"
            );
            assert!(
                interrupted
                    .stderr
                    .contains(&format!("crashed before cell {k} (fail-on-crash set)")),
                "shards={shards}, cell {k}: {}",
                interrupted.stderr
            );
            // Whichever slot runs cell k, the others finish every cell below
            // it first.
            let header_and_k: String = ref_text
                .split_inclusive('\n')
                .take(k as usize + 1)
                .collect();
            assert_eq!(
                String::from_utf8_lossy(&read(&journal)),
                header_and_k,
                "shards={shards}: kill at cell {k} did not journal exactly {k} records"
            );

            let resumed = campaign_of(KILLED, &journal, &out, &["--shards", shards, "--resume"]);
            assert!(
                resumed.status.success(),
                "shards={shards}: resume after kill at {k}: {}",
                resumed.stderr
            );
            assert_eq!(
                read(&journal),
                ref_journal,
                "shards={shards}: journal differs after kill at cell {k} + resume"
            );
            assert_eq!(
                read(&out),
                ref_report,
                "shards={shards}: report differs after kill at cell {k} + resume"
            );
            cleanup(&[&journal, &out]);
        }
    }
}

/// Every registered experiment shards. Table II's one batch of 2 trials
/// is killed after its first record, so the resume lands mid-batch; the
/// resumed report must equal the in-process `run`'s.
#[test]
fn table2_killed_mid_batch_resumes_to_the_run_report() {
    let journal = temp_base("table2").with_extension("jsonl");
    let out = temp_base("table2").with_extension("json");
    let run_out = temp_base("table2_run").with_extension("json");
    let killed = campaign_of(
        "table2",
        &journal,
        &out,
        &[
            "--shards",
            "1",
            "--fail-on-crash",
            "--inject-kill",
            "trial=1",
        ],
    );
    assert!(
        !killed.status.success(),
        "the injected kill must abort the campaign"
    );
    let resumed = campaign_of("table2", &journal, &out, &["--shards", "2", "--resume"]);
    assert!(resumed.status.success(), "{}", resumed.stderr);
    let run = Command::new(env!("CARGO_BIN_EXE_run"))
        .args(["table2", TRIALS, "--quiet", "--out"])
        .arg(&run_out)
        .output()
        .expect("run binary runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(
        read(&out),
        read(&run_out),
        "resumed table2 report differs from run's"
    );
    cleanup(&[&journal, &out, &run_out]);
}

#[test]
fn resume_recovers_a_torn_final_journal_line() {
    let (ref_journal, ref_report) = baseline();
    let journal = temp_base("torn").with_extension("jsonl");
    let out = temp_base("torn").with_extension("json");
    let run = campaign(
        &journal,
        &out,
        &[
            "--shards",
            "1",
            "--fail-on-crash",
            "--inject-kill",
            "trial=9",
        ],
    );
    assert!(!run.status.success());
    // Simulate the crash happening mid-append: tear the last line.
    let mut bytes = read(&journal);
    bytes.truncate(bytes.len() - 37);
    assert!(
        bytes.last() != Some(&b'\n'),
        "tear must land mid-line for this test"
    );
    std::fs::write(&journal, &bytes).unwrap();

    let resumed = campaign(&journal, &out, &["--shards", "2", "--resume"]);
    assert!(resumed.status.success(), "{}", resumed.stderr);
    assert!(
        resumed.stderr.contains("partial final line"),
        "tail drop should be reported: {}",
        resumed.stderr
    );
    assert_eq!(read(&journal), ref_journal);
    assert_eq!(read(&out), ref_report);
    cleanup(&[&journal, &out]);
}

#[test]
fn resume_refuses_a_journal_from_a_different_campaign() {
    let journal = temp_base("mismatch").with_extension("jsonl");
    let out = temp_base("mismatch").with_extension("json");
    let run = campaign(&journal, &out, &["--shards", "1"]);
    assert!(run.status.success(), "{}", run.stderr);

    // Same journal, different trial budget -> different campaign.
    let output = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["robustness_sweep", "3", "--journal"])
        .arg(&journal)
        .args(["--resume", "--quiet"])
        .output()
        .expect("campaign binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("different campaign"),
        "unexpected error: {stderr}"
    );
    cleanup(&[&journal, &out]);
}
