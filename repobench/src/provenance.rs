//! What every result is tied to: the commit, whether the tree was
//! clean, the host, the workload size and the seed.

use std::path::Path;
use std::process::Command;

use h2priv_util::json::Json;

fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The `model name` of the first CPU in `/proc/cpuinfo` text.
pub fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// The provenance record of a run as a JSON object. Outside a git
/// checkout the commit reads `unknown` and the dirty flag `null`.
pub fn record(
    workload: &str,
    seed: u64,
    base_seed: u64,
    seconds: f64,
    size: &str,
    workers: usize,
) -> Json {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let head = command_output("git", &["rev-parse", "HEAD"], repo);
    let dirty = head.as_ref().and_then(|_| {
        command_output(
            "git",
            &["status", "--porcelain", "--untracked-files=no"],
            repo,
        )
        .map(|s| !s.is_empty())
    });
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let text = |s: Option<String>| s.map_or(Json::Str("unknown".to_string()), Json::Str);
    Json::Obj(vec![
        ("commit".to_string(), text(head)),
        ("dirty".to_string(), dirty.map_or(Json::Null, Json::Bool)),
        (
            "nproc".to_string(),
            Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "cpu_model".to_string(),
            text(
                std::fs::read_to_string("/proc/cpuinfo")
                    .ok()
                    .and_then(|t| cpu_model(&t)),
            ),
        ),
        (
            "kernel".to_string(),
            text(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .ok()
                    .map(|s| s.trim().to_string()),
            ),
        ),
        (
            "rustc".to_string(),
            text(command_output(&rustc, &["-V"], repo)),
        ),
        ("workload".to_string(), Json::Str(workload.to_string())),
        ("size".to_string(), Json::Str(size.to_string())),
        ("workers".to_string(), Json::UInt(workers as u64)),
        ("seed".to_string(), Json::UInt(seed)),
        ("base_seed".to_string(), Json::UInt(base_seed)),
        ("seconds".to_string(), Json::Float(seconds)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_reads_the_first_model_name() {
        let text = "processor\t: 0\nvendor_id\t: X\nmodel name\t: Example CPU @ 2.0GHz\n\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(cpu_model(text).as_deref(), Some("Example CPU @ 2.0GHz"));
        assert_eq!(cpu_model("processor: 0\n"), None);
    }
}
