//! Readers for the Linux accounting files the benchmark samples. Each
//! parser is split from its I/O so it can be tested on fixed text, and
//! each reader returns `None` when its file is absent (a host without
//! `/proc`, or a restricted one); callers fall back as documented where
//! they use it.

use std::fs::{self, File};
use std::os::unix::fs::FileExt;

/// Clock ticks per second of the time fields in `/proc/<pid>/stat`
/// (`USER_HZ`, 100 on every Linux architecture the workspace builds for).
pub const USER_HZ: f64 = 100.0;

/// A thread's scheduler accounting, from `/proc/thread-self/schedstat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStat {
    /// Nanoseconds spent running on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting on a run queue.
    pub runq_wait_ns: u64,
}

/// Parses `schedstat` text: `<on-cpu ns> <run-queue wait ns> <slices>`.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let on_cpu_ns = fields.next()?.ok()?;
    let runq_wait_ns = fields.next()?.ok()?;
    Some(SchedStat {
        on_cpu_ns,
        runq_wait_ns,
    })
}

thread_local! {
    /// The calling thread's `schedstat`, opened once per thread
    /// (`/proc/thread-self` resolves to the thread that opens it) and
    /// re-read from offset 0, which regenerates its text.
    static SCHEDSTAT: Option<File> = File::open("/proc/thread-self/schedstat").ok();
}

/// The calling thread's scheduler accounting.
pub fn thread_schedstat() -> Option<SchedStat> {
    SCHEDSTAT.with(|file| {
        let mut buf = [0u8; 128];
        let n = file.as_ref()?.read_at(&mut buf, 0).ok()?;
        parse_schedstat(std::str::from_utf8(&buf[..n]).ok()?)
    })
}

/// `struct timespec` as the Linux C library lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// This process's on-CPU nanoseconds since it was created, exact to the
/// moment of the call. (`schedstat` lags by up to a scheduler tick, which
/// is as long as a whole set-up.)
pub fn process_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through a valid pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time fields of `/proc/<pid>/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// `utime + stime`: every thread of the process, live or exited.
    pub own: u64,
    /// `cutime + cstime`: children the process has waited for, with their
    /// own waited-for descendants.
    pub children: u64,
}

/// Parses `stat` text. The command name (field 2) is parenthesised and
/// may hold spaces, so fields are counted after the last `)`, where
/// field 3 (the state) comes first.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(CpuTicks {
        own: field(14)? + field(15)?,
        children: field(16)? + field(17)?,
    })
}

/// This process's CPU time.
pub fn process_cpu() -> Option<CpuTicks> {
    parse_stat(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Where an on-CPU figure came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuSource {
    /// Summed over trials from `/proc/thread-self/schedstat`.
    Schedstat,
    /// Measured from `/proc/self/stat`.
    ProcStat,
    /// The accounting file was unreadable; wall-clock busy time stands in
    /// (an upper bound on CPU time).
    WallFallback,
}

/// Mean on-CPU milliseconds per trial from each trial's `(schedstat
/// on-CPU ms, wall ms)`, or the mean wall time when any trial lacks its
/// `schedstat` reading.
pub fn cpu_per_trial_ms(trials: &[(Option<f64>, f64)]) -> (f64, CpuSource) {
    let n = trials.len().max(1) as f64;
    match trials.iter().map(|(cpu, _)| *cpu).sum::<Option<f64>>() {
        Some(total) => (total / n, CpuSource::Schedstat),
        None => (
            trials.iter().map(|(_, wall)| wall).sum::<f64>() / n,
            CpuSource::WallFallback,
        ),
    }
}

/// Milliseconds of CPU time between two samples of one tick counter, or
/// `fallback_ms` when either sample is missing.
pub fn cpu_delta_ms(before: Option<u64>, after: Option<u64>, fallback_ms: f64) -> (f64, CpuSource) {
    match (before, after) {
        (Some(b), Some(a)) => (
            a.saturating_sub(b) as f64 * 1e3 / USER_HZ,
            CpuSource::ProcStat,
        ),
        _ => (fallback_ms, CpuSource::WallFallback),
    }
}

/// A `kB`-valued line of `/proc/<pid>/status`, such as `VmHWM`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set (`VmHWM`) in kB of `pid`, or of this process.
pub fn peak_rss_kb(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    parse_status_kb(&fs::read_to_string(path).ok()?, "VmHWM")
}

/// Live child processes of `pid`, gathered over all of its threads
/// (`/proc/<pid>/task/<tid>/children`). Empty when unreadable.
pub fn children(pid: u32) -> Vec<u32> {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for task in tasks.flatten() {
        if let Ok(text) = fs::read_to_string(task.path().join("children")) {
            out.extend(
                text.split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn schedstat_parses_first_two_fields() {
        let s = parse_schedstat("123456789 4200 17\n").unwrap();
        assert_eq!(s.on_cpu_ns, 123_456_789);
        assert_eq!(s.runq_wait_ns, 4_200);
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("12 x 3"), None);
    }

    #[test]
    fn stat_counts_fields_after_the_command_name() {
        // A command name with spaces and a ')' inside must not shift fields.
        let text = "4242 (repo bench) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    250 30 7 3 20 0 3 0 100 1000000 300 18446744073709551615";
        let t = parse_stat(text).unwrap();
        assert_eq!(t.own, 280);
        assert_eq!(t.children, 10);
        assert_eq!(parse_stat("4242 (short) S 1 2"), None);
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn status_reads_kb_lines() {
        let text =
            "Name:\trepobench\nVmPeak:\t  90000 kB\nVmHWM:\t   23456 kB\nVmRSS:\t 20000 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(23_456));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(20_000));
        // "VmHWMx" must not match "VmHWM".
        assert_eq!(parse_status_kb("VmHWMx:\t 1 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_kb("", "VmHWM"), None);
    }

    #[test]
    fn cpu_falls_back_to_wall_time_when_samples_are_missing() {
        assert_eq!(
            cpu_delta_ms(Some(100), Some(350), 9.0),
            (2_500.0, CpuSource::ProcStat)
        );
        assert_eq!(
            cpu_delta_ms(None, Some(350), 9.0),
            (9.0, CpuSource::WallFallback)
        );
        assert_eq!(
            cpu_delta_ms(Some(100), None, 9.0),
            (9.0, CpuSource::WallFallback)
        );
    }

    #[test]
    fn cpu_per_trial_sums_schedstat_or_falls_back_to_wall_time() {
        let trials = [(Some(2.0), 3.0), (Some(4.0), 5.0)];
        assert_eq!(cpu_per_trial_ms(&trials), (3.0, CpuSource::Schedstat));
        let trials = [(Some(2.0), 3.0), (None, 5.0)];
        assert_eq!(cpu_per_trial_ms(&trials), (4.0, CpuSource::WallFallback));
    }

    #[test]
    fn thread_schedstat_is_per_thread_and_advances() {
        let Some(a) = thread_schedstat() else {
            return; // no /proc on this host: the fallback above applies
        };
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        let b = thread_schedstat().unwrap();
        assert!(b.on_cpu_ns > a.on_cpu_ns, "{a:?} -> {b:?}");
        // A new thread opens its own file and starts near zero.
        let fresh = std::thread::spawn(thread_schedstat)
            .join()
            .unwrap()
            .unwrap();
        assert!(fresh.on_cpu_ns < b.on_cpu_ns, "{fresh:?} vs {b:?}");
    }

    #[test]
    fn readers_return_none_for_absent_files() {
        assert_eq!(peak_rss_kb(Some(u32::MAX)), None);
        assert!(children(u32::MAX).is_empty());
    }
}
