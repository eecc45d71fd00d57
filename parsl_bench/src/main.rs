//! `parsl_bench`: the repository's benchmark. See README.md.
//!
//! One command prints every metric by name and unit, checks every result,
//! and ends with one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. The driver runs
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; with no
//! workload named, all five run in turn.

mod layers;
mod repeat;
mod report;
mod stats;
mod sysinfo;
mod trace;
mod workloads;

use report::{END_TO_END, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Checks, Epoch, EpochCtx, Workload};

/// Directory for everything a run writes: inside the package, which is
/// inside the checkout the binary was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub layers: bool,
    pub repeat_check: bool,
    pub print_benchmark_json: bool,
    /// Set only by the runner itself: run this one epoch, with its
    /// scratch directory, and print it for the parent.
    pub epoch_child: Option<(usize, PathBuf)>,
}

impl Args {
    /// The workload named on the command line, or all five.
    pub fn workloads(&self) -> Vec<Workload> {
        self.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: parsl_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                  [--smoke] [--layers] [--repeat-check] [--print-benchmark-json]\n\
         workloads: {}",
        Workload::ALL.map(|w| w.name()).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        layers: false,
        repeat_check: false,
        print_benchmark_json: false,
        epoch_child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(Workload::from_name(&value()).unwrap_or_else(|| usage()))
            }
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => a.smoke = true,
            "--layers" => a.layers = true,
            "--repeat-check" => a.repeat_check = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            "--epoch-child" => {
                let number = value().parse().unwrap_or_else(|_| usage());
                a.epoch_child = Some((number, PathBuf::from(value())));
            }
            _ => usage(),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        usage();
    }
    a
}

/// Fewest measured epochs of a full run, however short or slow.
const MIN_EPOCHS: usize = 4;

/// Measured epochs for a run of `seconds`: the declared count at the
/// declared run length, in proportion otherwise.
fn epochs_for(w: Workload, seconds: f64, smoke: bool) -> usize {
    let size = w.size(smoke);
    if smoke {
        return size.epochs;
    }
    ((size.epochs as f64 * seconds / RUN_SECONDS as f64).round() as usize)
        .clamp(MIN_EPOCHS, 1 << 10)
}

/// The end-to-end metrics of one run, in the order of [`END_TO_END`].
pub struct RunResult {
    pub checks: Checks,
    pub end_to_end: Vec<f64>,
    /// In the order of [`report::TRACE_METRICS`]; zeros in an untraced run.
    pub trace: Vec<f64>,
}

fn print_provenance(w: Workload, args: &Args, epochs: usize) {
    let p = sysinfo::Provenance::collect();
    let size = w.size(args.smoke);
    println!("# parsl_bench {}", w.name());
    println!("#   commit {}  nproc {}  {}", p.commit, p.nproc, p.rustc);
    println!(
        "#   worker {} ({} bytes)",
        p.worker.display(),
        p.worker_bytes
    );
    println!(
        "#   seed {}  seconds {}  trace {}  smoke {}",
        args.seed, args.seconds, args.trace as u8, args.smoke
    );
    println!(
        "#   1 warm-up + {} measured epochs of {} {} (first batch {}, part of set-up)",
        epochs,
        size.work,
        w.unit(),
        size.first_batch
    );
    println!("#   latency sample: {}", w.latency_of());
}

fn print_epoch(i: usize, label: &str, e: &Epoch, m: &[f64; 6]) {
    println!(
        "  epoch {i:>2} {label:<8} setup {:>7.4} s  work {:>7.4} s  {:>11.1} items/s  p50 {:>11.1} us  p90 {:>11.1} us  cpu {:>6.3} s  rss {:>6.1} MiB  steal {:>4.1} %  checked {} failed {}",
        e.setup_s,
        e.work_s,
        m[0],
        m[1],
        m[2],
        e.cpu_s,
        e.rss_mb,
        100.0 * e.steal.0 / e.steal.1.max(1.0),
        e.checks.attempted,
        e.checks.failed
    );
}

/// Run one epoch in a child of this program, so that every epoch starts
/// from a fresh allocator and address space and reports its own peak
/// memory: kept in one process, epochs ran slower as the heap aged and
/// each one's peak included what the earlier ones had left behind.
fn epoch_in_child(w: Workload, args: &Args, number: usize, traced: bool, dir: &Path) -> Epoch {
    let exe = std::env::current_exe().expect("the runner's own path");
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(if args.smoke { &["--smoke"][..] } else { &[] })
        .args(["--epoch-child", &number.to_string()])
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start the epoch's process");
    let text = String::from_utf8_lossy(&out.stdout);
    match Epoch::from_text(&text) {
        Some(e) if out.status.success() => e,
        // An epoch that died reports nothing; it counts as one failed
        // operation so the run cannot come out correct.
        _ => {
            eprintln!("parsl_bench: epoch {number} ended with {}", out.status);
            Epoch {
                work_s: f64::NAN,
                checks: Checks {
                    attempted: 1,
                    failed: 1,
                },
                ..Default::default()
            }
        }
    }
}

/// The body of the child [`epoch_in_child`] starts.
fn epoch_child(w: Workload, args: &Args, number: usize, dir: &Path) {
    if w.single_cpu() {
        let cpus = sysinfo::allowed_cpus();
        if !cpus
            .last()
            .is_some_and(|&last| sysinfo::set_affinity(&[last]))
        {
            eprintln!("parsl_bench: cannot pin {} to one CPU", w.name());
        }
    }
    let e = workloads::run_epoch(&EpochCtx {
        workload: w,
        size: w.size(args.smoke),
        seed: args.seed,
        epoch: number,
        tracer: args.trace.then(trace::Tracer::new),
        dir,
    });
    print!("{}", e.to_text());
}

/// The six end-to-end metrics of one epoch, in the order of
/// [`END_TO_END`].
fn epoch_metrics(e: &Epoch) -> [f64; 6] {
    let mut lat = e.latencies_us.clone();
    lat.sort_by(|a, b| a.total_cmp(b));
    let percentile = |p| {
        if lat.is_empty() {
            f64::NAN
        } else {
            stats::percentile(&lat, p)
        }
    };
    [
        e.rate(),
        percentile(50.0),
        percentile(90.0),
        e.cpu_s / e.items as f64 * 1e6,
        e.rss_mb,
        e.setup_s,
    ]
}

/// Run one workload: a warm-up epoch, then the measured ones. With
/// `trace`, measured epochs alternate untraced and traced, so the traced
/// numbers have an untraced neighbour to be compared with.
pub fn run_workload(w: Workload, args: &Args) -> RunResult {
    let epochs = if args.trace && !args.smoke {
        2
    } else {
        epochs_for(w, args.seconds, args.smoke)
    };
    print_provenance(w, args, epochs);
    let dir = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run's scratch directory");

    let mut per_epoch: Vec<[f64; 6]> = Vec::new();
    let mut epoch = |number: usize, traced: bool| {
        let e = epoch_in_child(w, args, number, traced, &dir);
        let metrics = epoch_metrics(&e);
        let label = match (number, traced) {
            (0, _) => "warm-up",
            (_, true) => "traced",
            (_, false) => {
                per_epoch.push(metrics);
                "measured"
            }
        };
        print_epoch(number, label, &e, &metrics);
        e
    };

    let started = Instant::now();
    let mut checks = epoch(0, false).checks;
    let mut measured: Vec<Epoch> = Vec::new();
    let mut traced: Vec<Epoch> = Vec::new();
    let mut number = 0;
    for done in 0..epochs {
        // Sizes are fixed, so a slowed host stretches the run; a fifth
        // past its declared length no further epoch starts.
        if done >= MIN_EPOCHS && started.elapsed().as_secs_f64() > 1.2 * args.seconds {
            println!("  time is up after {done} of {epochs} measured epochs");
            break;
        }
        number += 1;
        measured.push(epoch(number, false));
        if args.trace {
            number += 1;
            traced.push(epoch(number, true));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    for e in measured.iter().chain(&traced) {
        checks.add(e.checks);
    }

    let column = |i: usize| -> Vec<f64> { per_epoch.iter().map(|m| m[i]).collect() };
    let end_to_end: Vec<f64> = END_TO_END
        .iter()
        .enumerate()
        .map(|(i, m)| stats::best_quarter_mean(&column(i), m.better))
        .collect();
    println!(
        "end-to-end, {}: mean of the better quarter of {} epochs",
        w.name(),
        measured.len()
    );
    for (i, (m, v)) in END_TO_END.iter().zip(&end_to_end).enumerate() {
        println!(
            "  {:<16} {:>16.4} {:<4} ({} is better, bound {:.2}; median over epochs {:.4})",
            m.name,
            v,
            m.unit,
            m.better.as_str(),
            m.bound,
            stats::median(&column(i))
        );
    }
    let mut latencies: Vec<f64> = measured
        .iter()
        .flat_map(|e| e.latencies_us.iter().copied())
        .collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let n = latencies.len();
    print!("  latency of all {n} samples:");
    for p in stats::PERCENTILES {
        if stats::highest_percentile(n).is_some_and(|h| p <= h) {
            print!("  p{p} {:.1} us", stats::percentile(&latencies, p));
        }
    }
    println!("  (percentiles with ten samples beyond them)");
    let steal: (f64, f64) = measured
        .iter()
        .fold((0.0, 0.0), |a, e| (a.0 + e.steal.0, a.1 + e.steal.1));
    println!(
        "  host steal over the work windows: {:.2} %",
        100.0 * steal.0 / steal.1.max(1.0)
    );
    println!(
        "  checked {} operations, {} failed",
        checks.attempted, checks.failed
    );

    // Per trace metric, the median over the traced epochs; the last one
    // compares their rate with their untraced neighbours'.
    let mut trace: Vec<f64> = (0..report::TRACE_METRICS.len() - 1)
        .map(|i| {
            let column: Vec<f64> = traced
                .iter()
                .filter_map(|e| e.trace.get(i).copied())
                .collect();
            if column.is_empty() {
                0.0
            } else {
                stats::median(&column)
            }
        })
        .collect();
    trace.push(if traced.is_empty() {
        0.0
    } else {
        let rate =
            |epochs: &[Epoch]| stats::median(&epochs.iter().map(Epoch::rate).collect::<Vec<f64>>());
        100.0 * (1.0 - rate(&traced) / rate(&measured))
    });
    RunResult {
        checks,
        end_to_end,
        trace,
    }
}

fn print_per_layer(title: &str, metrics: &[report::PerLayer], values: &[f64]) {
    println!("{title}:");
    for ((name, unit, better), v) in metrics.iter().zip(values) {
        println!(
            "  {name:<40} {v:>16.4} {unit:<6} ({} is better)",
            better.as_str()
        );
    }
}

fn probes_dir() -> PathBuf {
    out_dir().join(format!("probes-{}", std::process::id()))
}

fn named(metrics: &[report::PerLayer], values: &[f64]) -> Vec<(&'static str, &'static str, f64)> {
    metrics
        .iter()
        .zip(values)
        .map(|((name, unit, _), v)| (*name, *unit, *v))
        .collect()
}

/// One run as the driver asks for it; returns the line that ends it.
fn driver_run(w: Workload, args: &Args) -> String {
    if !args.trace {
        let r = run_workload(w, args);
        let metrics: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(&r.end_to_end)
            .map(|(m, v)| (m.name, m.unit, *v))
            .collect();
        return report::result_line(r.checks.attempted, r.checks.failed, &metrics);
    }
    // The probes go first: one of them reads this process's memory
    // growth, which is cleanest before anything else has run in it.
    let (probes, mut checks) = layers::run(args.smoke, &probes_dir());
    let r = run_workload(w, args);
    checks.add(r.checks);
    print_per_layer(
        &format!("per-layer, traced epochs of {}", w.name()),
        &report::TRACE_METRICS,
        &r.trace,
    );
    print_per_layer(
        "per-layer, isolated probes",
        &report::PROBE_METRICS,
        &probes,
    );
    let mut metrics = named(&report::TRACE_METRICS, &r.trace);
    metrics.extend(named(&report::PROBE_METRICS, &probes));
    report::result_line(checks.attempted, checks.failed, &metrics)
}

fn main() {
    let args = parse_args();
    if args.print_benchmark_json {
        print!("{}", report::benchmark_json());
        return;
    }
    if let (Some(w), Some((number, dir))) = (args.workload, &args.epoch_child) {
        return epoch_child(w, &args, *number, dir);
    }
    if args.repeat_check {
        std::process::exit(repeat::run(&args));
    }
    if args.layers {
        let (probes, checks) = layers::run(args.smoke, &probes_dir());
        print_per_layer(
            "per-layer, isolated probes",
            &report::PROBE_METRICS,
            &probes,
        );
        let metrics = named(&report::PROBE_METRICS, &probes);
        println!(
            "{}",
            report::result_line(checks.attempted, checks.failed, &metrics)
        );
        return;
    }
    // A run with failed operations still exits 0: the result line is how
    // the driver learns of them.
    for w in args.workloads() {
        println!("{}", driver_run(w, &args));
    }
}
