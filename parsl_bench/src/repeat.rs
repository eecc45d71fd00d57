//! `--repeat-check`: does the benchmark agree with itself?
//!
//! Two sets of runs of this same binary, alternating A B A B …, each run
//! a fresh process with its own seed, as the driver makes them. For every
//! end-to-end metric of every workload the two sets' medians must not
//! differ by more than the metric's bound, and the spread of all runs
//! (first to third quartile over the median) must stay within it too;
//! `setup_s` is excused from the spread, as the driver excuses it.

use crate::report::{self, END_TO_END};
use crate::stats;
use crate::workloads::Workload;
use crate::Args;

/// Runs in each of the two sets.
const RUNS_PER_SET: usize = 5;

/// One run in a child process: its end-to-end metrics by position in
/// [`END_TO_END`], or why there are none.
fn one_run(w: Workload, seed: u64, args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .args(if args.smoke { &["--smoke"][..] } else { &[] })
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let result = text
        .lines()
        .last()
        .and_then(report::parse_result_line)
        .ok_or_else(|| format!("run ended with {} and no result line", out.status))?;
    if !result.correct {
        return Err(format!("{} operations failed", result.failed));
    }
    END_TO_END
        .iter()
        .map(|m| {
            result
                .metrics
                .iter()
                .find(|(name, _)| name == m.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("no {} in the result line", m.name))
        })
        .collect()
}

/// Check one workload; true when every metric agrees within its bound.
fn check(w: Workload, args: &Args) -> bool {
    println!(
        "repeat-check {}: 2 sets of {RUNS_PER_SET} runs, alternating, seeds {}..={}",
        w.name(),
        args.seed,
        args.seed + 2 * RUNS_PER_SET as u64 - 1
    );
    let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    for i in 0..2 * RUNS_PER_SET {
        match one_run(w, args.seed + i as u64, args) {
            Ok(values) => sets[i % 2].push(values),
            Err(why) => {
                println!("  run {i} gave no metrics: {why}");
                return false;
            }
        }
    }
    println!(
        "  {:<16} {:>14} {:>14} {:>14} | {:>14} {:>14} {:>14} | {:>7} {:>7} {:>6}",
        "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "diff", "spread", "bound"
    );
    let mut ok = true;
    for (i, m) in END_TO_END.iter().enumerate() {
        let column = |set: &Vec<Vec<f64>>| -> Vec<f64> { set.iter().map(|run| run[i]).collect() };
        let (a, b) = (column(&sets[0]), column(&sets[1]));
        let (qa, qb) = (stats::quartiles(&a), stats::quartiles(&b));
        // Whichever set ran "second", its median may not be worse.
        let diff =
            stats::worsening(qa.1, qb.1, m.better).max(stats::worsening(qb.1, qa.1, m.better));
        let all: Vec<f64> = a.iter().chain(&b).copied().collect();
        let spread = stats::spread(&all);
        let within = diff <= m.bound && (m.name == "setup_s" || spread <= m.bound);
        ok &= within;
        println!(
            "  {:<16} {:>14.4} {:>14.4} {:>14.4} | {:>14.4} {:>14.4} {:>14.4} | {:>6.2}% {:>6.2}% {:>5.0}%{}",
            m.name,
            qa.1,
            qa.0,
            qa.2,
            qb.1,
            qb.0,
            qb.2,
            100.0 * diff,
            100.0 * spread,
            100.0 * m.bound,
            if within { "" } else { "  EXCEEDED" }
        );
    }
    ok
}

/// Returns the process's exit code: 0 when every workload agrees.
pub fn run(args: &Args) -> i32 {
    // Every workload is checked, also after one has failed.
    let failed = args
        .workloads()
        .into_iter()
        .filter(|&w| !check(w, args))
        .count();
    println!(
        "repeat-check: {}",
        if failed == 0 {
            "every metric within its bound".to_string()
        } else {
            format!("{failed} workloads exceed a bound")
        }
    );
    i32::from(failed > 0)
}
