//! `run` checks its command line before any trial runs: a flag missing
//! its value, or an unknown experiment, exits with status 2 and prints
//! nothing on stdout.

use std::process::Command;

#[test]
fn a_bad_command_line_exits_2_before_any_trial() {
    let cases: [&[&str]; 5] = [
        &["fig1", "--trace="],
        &["fig1", "--out="],
        &["fig1", "--out"],
        &["fig1", "--jobs", "--quiet"],
        &["no_such_experiment"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_run"))
            .args(args)
            .output()
            .expect("run binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
