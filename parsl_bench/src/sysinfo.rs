//! What the benchmark reads from the operating system: CPU time and peak
//! memory of the runner and the worker processes it spawned, the host's
//! steal share, and the provenance printed above every run.
//!
//! Everything read comes from `/proc`. The one foreign call is
//! `sched_setaffinity`, for the workload that runs on a single CPU.

use std::path::{Path, PathBuf};

/// `USER_HZ`: the unit of the CPU fields in `/proc/*/stat` and
/// `/proc/stat`. Linux fixes it at 100 on every architecture it runs on.
const TICKS_PER_S: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself hold spaces), so index 0 is the state letter.
fn stat_fields(pid: u32) -> Option<(String, Vec<String>)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?.to_string();
    let rest = text.get(close + 1..)?;
    Some((comm, rest.split_whitespace().map(str::to_string).collect()))
}

/// CPU seconds the live threads of `pid` have run, user and system, to
/// the nanosecond (`schedstat`); `None` once the process is gone. A
/// difference of two readings is the CPU used between them as long as no
/// thread ended in between, which holds for a work window: the kernel's
/// and the executors' threads live from set-up to shutdown. Where the
/// kernel keeps no `schedstat`, the process's 10 ms ticks stand in.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let threads = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let ns: Vec<f64> = threads
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|text| text.split_whitespace().next()?.parse().ok())
        .collect();
    if !ns.is_empty() {
        return Some(ns.iter().sum::<f64>() / 1e9);
    }
    let (_, f) = stat_fields(pid)?;
    // utime and stime are fields 14 and 15 of the whole line.
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Live child processes of this process whose command name is `comm`.
pub fn children_named(comm: &str) -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            stat_fields(pid).is_some_and(|(c, f)| {
                // ppid is field 4 of the whole line; state Z is a zombie.
                c == comm && f.get(1) == Some(&me) && f.first().is_some_and(|s| s != "Z")
            })
        })
        .collect();
    pids.sort_unstable();
    pids
}

fn status_kb(pid: u32, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_kb(pid, "VmHWM:").map(|kb| kb / 1024.0)
}

/// Current resident set of this process in bytes.
pub fn own_rss_bytes() -> f64 {
    status_kb(std::process::id(), "VmRSS:").map_or(0.0, |kb| kb * 1024.0)
}

/// `(steal, total)` CPU ticks of the whole host since boot.
pub fn host_ticks() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user, so the first eight add up to the total.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0.0), total)
}

extern "C" {
    /// glibc's wrapper of the Linux system call of the same name.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, from `Cpus_allowed_list`.
pub fn allowed_cpus() -> Vec<usize> {
    let text = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let Some(list) = text
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (a, b) = part.split_once('-').unwrap_or((part, part));
            Some(a.parse::<usize>().ok()?..=b.parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// Restrict the calling thread, and every thread and process it starts
/// from now on, to `cpus` (each below 1024). Returns false if the kernel
/// refuses.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised array of `size_of_val(&mask)`
    // bytes that the call only reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// What a reader needs to know about where a set of numbers came from.
pub struct Provenance {
    pub commit: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub worker: PathBuf,
    pub worker_bytes: u64,
}

impl Provenance {
    pub fn collect() -> Self {
        let worker = worker_binary();
        Provenance {
            commit: commit(Path::new(env!("CARGO_MANIFEST_DIR"))),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PARSL_BENCH_RUSTC"),
            worker_bytes: std::fs::metadata(&worker).map_or(0, |m| m.len()),
            worker,
        }
    }
}

/// The `parsl-worker` the TCP workloads will spawn.
pub fn worker_binary() -> PathBuf {
    PathBuf::from(
        parsl_executors::default_worker_cmd()
            .into_iter()
            .next()
            .unwrap_or_default(),
    )
}

/// The commit checked out above `start`, read from `.git` without running
/// git; `"unknown"` in a checkout that is not a git repository.
fn commit(start: &Path) -> String {
    for dir in start.ancestors() {
        let Ok(head) = std::fs::read_to_string(dir.join(".git/HEAD")) else {
            continue;
        };
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return head.to_string();
        };
        if let Ok(hash) = std::fs::read_to_string(dir.join(".git").join(reference)) {
            return hash.trim().to_string();
        }
        let packed = std::fs::read_to_string(dir.join(".git/packed-refs")).unwrap_or_default();
        return packed
            .lines()
            .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
            .unwrap_or_else(|| "unknown".into());
    }
    "unknown".into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_visible_in_proc() {
        let me = std::process::id();
        assert!(cpu_seconds(me).is_some());
        assert!(peak_rss_mb(me).is_some_and(|mb| mb > 0.0));
        assert!(own_rss_bytes() > 0.0);
        let (steal, total) = host_ticks();
        assert!(total > 0.0 && steal <= total);
        assert!(children_named("no-such-command").is_empty());
    }

    #[test]
    fn affinity_narrows_and_widens_again() {
        let all = allowed_cpus();
        assert!(!all.is_empty());
        let last = *all.last().unwrap();
        assert!(set_affinity(&[last]));
        assert_eq!(allowed_cpus(), vec![last]);
        assert!(set_affinity(&all));
        assert_eq!(allowed_cpus(), all);
    }
}
