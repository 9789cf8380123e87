//! Failure-aware output primitives for the experiment binaries.
//!
//! The bins write three kinds of output — operator lines on
//! stdout/stderr, machine-readable dumps, and result files — and all
//! three can fail: a downstream `head` closes the pipe, a disk fills
//! mid-write. The std `println!` family *panics* on a broken pipe, which
//! turns a routine `bin | head` into a backtrace; a bare
//! `fs::write(...).expect(...)` does the same for result files. Every
//! output in the bench crate routes through these helpers instead, which
//! convert I/O failure into a clean nonzero exit: broken-pipe on a
//! console stream exits quietly (the reader hung up; there is nobody
//! left to tell), and anything else prints one diagnostic line to
//! whichever stream still works before exiting.

use std::io::{self, Write};

/// Exit status for output failures (distinct from usage errors' `2`).
const OUTPUT_ERROR_EXIT: i32 = 1;

fn die(stream: &str, err: &io::Error) -> ! {
    // Broken pipe: the consumer is gone, so there is no point (and no
    // way) in reporting — just stop cleanly instead of panicking.
    if err.kind() != io::ErrorKind::BrokenPipe {
        let _ = writeln!(io::stderr(), "error: writing to {stream}: {err}");
    }
    std::process::exit(OUTPUT_ERROR_EXIT);
}

/// Writes `text` (no newline appended) to stdout; exits nonzero on
/// failure instead of panicking.
pub fn stdout_str(text: &str) {
    let mut out = io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        die("stdout", &e);
    }
}

/// Writes `line` plus a newline to stdout; exits nonzero on failure.
pub fn stdout_line(line: &str) {
    let mut out = io::stdout().lock();
    let write = out
        .write_all(line.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .and_then(|()| out.flush());
    if let Err(e) = write {
        die("stdout", &e);
    }
}

/// Writes `text` (no newline appended) to stderr; exits nonzero on
/// failure.
pub fn stderr_str(text: &str) {
    let mut out = io::stderr().lock();
    if out
        .write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .is_err()
    {
        std::process::exit(OUTPUT_ERROR_EXIT);
    }
}

/// Writes `line` plus a newline to stderr; exits nonzero on failure.
pub fn stderr_line(line: &str) {
    let mut out = io::stderr().lock();
    let write = out
        .write_all(line.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .and_then(|()| out.flush());
    if write.is_err() {
        std::process::exit(OUTPUT_ERROR_EXIT);
    }
}

/// Writes a result file in one shot; exits nonzero with a diagnostic on
/// failure (short write, permission, full disk) instead of panicking.
pub fn write_result_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        let _ = writeln!(io::stderr(), "error: writing {path}: {e}");
        std::process::exit(OUTPUT_ERROR_EXIT);
    }
}
