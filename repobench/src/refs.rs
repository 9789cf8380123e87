//! Where the benchmark keeps its pinned references and its run output.

use std::fs;
use std::path::{Path, PathBuf};

/// The pinned references, next to the benchmark's sources.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("refs")
}

/// Reads the pinned reference file `name`.
pub fn read(name: &str) -> Result<String, String> {
    let path = dir().join(name);
    fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read pinned reference {}: {e} (regenerate with --regen)",
            path.display()
        )
    })
}

/// Writes the pinned reference file `name`.
pub fn write(name: &str, text: &str) -> Result<(), String> {
    let path = dir().join(name);
    fs::create_dir_all(dir())
        .and_then(|()| fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Scratch directory for run output (journals, reports, spans): beside
/// the benchmark binary in the build's target directory.
pub fn run_dir() -> Result<PathBuf, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("benchmark binary is not inside a target directory")?;
    let dir = target.join("repobench-run");
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes a traced run's spans; returns where they went, or why not.
pub fn write_spans(workload: &str, jsonl: &str) -> String {
    match run_dir() {
        Ok(dir) => {
            let path = dir.join(format!("spans-{workload}.jsonl"));
            match fs::write(&path, jsonl) {
                Ok(()) => path.display().to_string(),
                Err(e) => format!("not written ({e})"),
            }
        }
        Err(e) => format!("not written ({e})"),
    }
}
