//! `repobench`: the workspace's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path repobench/Cargo.toml -- \
//!     --workload table2_h2|transfer_h3|defense_campaign \
//!     [--seed N] [--seconds S] [--trace 0|1] [--base-seed N]
//! cargo run --release --offline --quiet --manifest-path repobench/Cargo.toml -- \
//!     --regen [--workload NAME]
//! ```
//!
//! Prints one `metric <name> = <value> <unit>` line per metric and, as the
//! last line, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when any output differs from its pinned reference.
//! `repobench/README.md` describes the workloads, metrics and checks.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use h2priv_util::{alloc, pool};

mod campaign;
mod digest;
mod inproc;
mod layers;
mod procfs;
mod provenance;
mod refs;
mod report;
mod spans;
mod speed;
mod stats;

use digest::Reference;
use inproc::{Kind, Probe, Workload};
use report::Outcome;

/// Counts allocations per thread for the traced run's layer spans. The
/// counter bump is a thread-local add, the same in every run mode.
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

const USAGE: &str = "usage: repobench --workload table2_h2|transfer_h3|defense_campaign \
                     [--seed N] [--seconds S] [--trace 0|1] [--base-seed N]\n       \
                     repobench --regen [--workload NAME] [--base-seed N]";

/// Probe processes per in-process run; `setup_s` and `peak_rss_mb` are
/// medians over them.
const PROBES: usize = 15;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    base_seed: Option<u64>,
    regen: bool,
    probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seconds: 10.0,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or(format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--base-seed" => args.base_seed = Some(number(value()?)?),
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds: bad duration {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--regen" => args.regen = true,
            "--probe" => args.probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn kind_of(name: &str) -> Option<Kind> {
    [Kind::Table2, Kind::TransferH3]
        .into_iter()
        .find(|k| k.name() == name)
}

/// Loads a pinned digest list and checks it was pinned at `base_seed`.
fn load_reference(workload: &str, base_seed: u64) -> Result<Reference, String> {
    let reference = Reference::parse(&refs::read(&format!("{workload}.digests"))?)?;
    if reference.workload != workload || reference.base_seed != base_seed {
        return Err(format!(
            "the pinned reference is for {} at base seed {}; regenerate it for {workload} at \
             base seed {base_seed} with --regen --workload {workload} --base-seed {base_seed}",
            reference.workload, reference.base_seed
        ));
    }
    Ok(reference)
}

/// Builds the workspace's `campaign` binary and its `defense_matrix`
/// worker into the target directory this benchmark was built in, and
/// returns the `campaign` path. A no-op when they are up to date.
fn build_campaign() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("benchmark binary is not inside a target directory")?;
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark directory has no parent")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "h2priv-bench",
        ])
        .args([
            "--bin",
            "campaign",
            "--bin",
            "defense_matrix",
            "--manifest-path",
        ])
        .arg(repo.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the campaign binary failed ({status})"));
    }
    Ok(target.join("release").join("campaign"))
}

/// Launches this binary in probe mode (see [`Workload::probe`]) and
/// returns what it measured.
fn run_probe(workload: &str, base_seed: u64) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let launch = Instant::now();
    let mut child = Command::new(exe)
        .args(["--probe", "--workload", workload])
        .args(["--base-seed", &base_seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start probe: {e}"))?;
    let mut lines = Vec::new();
    let mut wall_s = None;
    if let Some(out) = child.stdout.take() {
        for line in BufReader::new(out).lines().map_while(Result::ok) {
            if line.starts_with("first ") {
                wall_s.get_or_insert(launch.elapsed().as_secs_f64());
            }
            lines.push(line);
        }
    }
    let status = child.wait().map_err(|e| format!("waiting on probe: {e}"))?;
    wall_s
        .filter(|_| status.success())
        .and_then(|w| Probe::parse(w, &lines))
        .ok_or_else(|| format!("probe failed ({status}, said {lines:?})"))
}

fn print_provenance(workload: &str, args: &Args, base_seed: u64, size: &str, workers: usize) {
    let record = provenance::record(workload, args.seed, base_seed, args.seconds, size, workers);
    println!("provenance {}", record.to_string_compact());
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let workers = pool::available_jobs().min(2);
    if let Some(kind) = kind_of(name) {
        let base = args.base_seed.unwrap_or(kind.default_base());
        let reference = load_reference(name, base)?;
        print_provenance(
            name,
            args,
            base,
            &format!("pool of {} trials", inproc::POOL),
            workers,
        );
        let probes = if args.trace {
            Vec::new()
        } else {
            (0..PROBES)
                .map(|_| run_probe(name, base))
                .collect::<Result<Vec<Probe>, String>>()?
        };
        let w = Workload::new(kind, base);
        return Ok(w.run(
            &reference,
            args.seed,
            args.seconds,
            args.trace,
            workers,
            &probes,
        ));
    }
    if name != "defense_campaign" {
        return Err(format!("unknown workload {name:?}\n{USAGE}"));
    }
    if args.base_seed.is_some_and(|b| b != campaign::BASE_SEED) {
        return Err(format!(
            "the defense campaign's base seed is fixed at {} by the campaign runner",
            campaign::BASE_SEED
        ));
    }
    let reference = load_reference(name, campaign::BASE_SEED)?;
    let report = refs::read("defense_campaign.report.json")?;
    let setup = campaign::Setup {
        campaign: build_campaign()?,
        dir: refs::run_dir()?,
    };
    print_provenance(
        name,
        args,
        campaign::BASE_SEED,
        &format!(
            "{} cells ({} trials per cell), 2 shards, killed at cell {}",
            campaign::CELLS,
            campaign::TRIALS,
            campaign::kill_cell(args.seed)
        ),
        2,
    );
    Ok(campaign::run(
        &setup,
        &reference,
        &report,
        args.seed,
        args.seconds,
        args.trace,
    ))
}

/// Rewrites the pinned references (all workloads, or the one named).
fn regenerate(args: &Args) -> Result<(), String> {
    let workers = pool::available_jobs().min(2);
    let wanted = |name: &str| args.workload.as_deref().is_none_or(|w| w == name);
    let note = "Pinned per-trial digests (see repobench/README.md). Regenerate with:\n  \
                cargo run --release --offline --manifest-path repobench/Cargo.toml -- --regen";
    for kind in [Kind::Table2, Kind::TransferH3] {
        if wanted(kind.name()) {
            let base = args.base_seed.unwrap_or(kind.default_base());
            let (reference, report) = inproc::regenerate(kind, base, workers)?;
            refs::write(&format!("{}.digests", kind.name()), &reference.render(note))?;
            refs::write(&format!("{}.report.json", kind.name()), &report)?;
            eprintln!("pinned {} at base seed {base}", kind.name());
        }
    }
    if wanted("defense_campaign") {
        let setup = campaign::Setup {
            campaign: build_campaign()?,
            dir: refs::run_dir()?,
        };
        let (reference, report) = campaign::regenerate(&setup)?;
        refs::write("defense_campaign.digests", &reference.render(note))?;
        refs::write("defense_campaign.report.json", &report)?;
        eprintln!("pinned defense_campaign");
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.probe {
        let kind = args.workload.as_deref().and_then(kind_of);
        let Some(kind) = kind else {
            eprintln!("error: --probe needs an in-process workload");
            std::process::exit(2);
        };
        let base = args.base_seed.unwrap_or(kind.default_base());
        Workload::new(kind, base).probe();
        return;
    }
    if args.regen {
        if let Err(e) = regenerate(&args) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let Some(name) = args.workload.clone() else {
        eprintln!("error: --workload is required\n{USAGE}");
        std::process::exit(2);
    };
    let outcome = run_workload(&name, &args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    for note in &outcome.notes {
        println!("check {note}");
    }
    for (metric, value, unit) in outcome.metrics.entries() {
        println!("metric {metric} = {value} {unit}");
    }
    if !args.trace {
        println!("metric failed_pct = {} %", outcome.failed_pct());
    }
    println!("{}", report::result_line(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload table2_h2 --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("table2_h2"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        let a = parse_args(&argv("--workload=x --trace=0 --base-seed=41000")).unwrap();
        assert_eq!((a.trace, a.base_seed), (false, Some(41_000)));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
