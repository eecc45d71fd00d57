//! Figure 7: executor selection guidelines, validated against the models.
//!
//! The paper's rules:
//! - LLEX for interactive computations on ≤10 nodes;
//! - HTEX for batch on ≤1000 nodes (tasks ≥ 0.01 s × nodes);
//! - EXEX for batch on >1000 nodes (tasks ≥ 1 min).
//!
//! This harness sweeps node counts and task durations, finds the best
//! performer among the three executor models at each point, and checks it
//! against `parsl_core::guidelines::recommend`.

use bench::{fmt_f, section, Table};
use parsl_core::guidelines::{recommend, ExecutorChoice};
use simcluster::{machines, FrameworkModel};
use simnet::SimTime;

fn choice_of(model: &FrameworkModel) -> ExecutorChoice {
    match model.name {
        "Parsl-LLEX" => ExecutorChoice::Llex,
        "Parsl-HTEX" => ExecutorChoice::Htex,
        _ => ExecutorChoice::Exex,
    }
}

fn main() {
    let bw = machines::blue_waters();
    let one_way = bw.one_way_latency();
    let models = [
        FrameworkModel::llex(),
        FrameworkModel::htex(),
        FrameworkModel::exex(),
    ];

    section("Figure 7 — interactive column (sequential latency, small scale)");
    let mut t = Table::new(&[
        "nodes",
        "LLEX ms",
        "HTEX ms",
        "EXEX ms",
        "best",
        "guideline",
    ]);
    for nodes in [1usize, 2, 5, 10] {
        let lat: Vec<f64> = models
            .iter()
            .map(|m| {
                m.run_sequential_latency(200, SimTime::ZERO, one_way, 7)
                    .mean()
            })
            .collect();
        let best = models
            .iter()
            .zip(&lat)
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(m, _)| choice_of(m))
            .expect("non-empty");
        let rec = recommend(nodes, true);
        t.row(vec![
            nodes.to_string(),
            fmt_f(lat[0]),
            fmt_f(lat[1]),
            fmt_f(lat[2]),
            best.to_string(),
            format!(
                "{rec}{}",
                if best == rec {
                    " (match)"
                } else {
                    " (MISMATCH)"
                }
            ),
        ]);
    }
    t.print();

    section("Figure 7 — batch column (makespan of 10 tasks/worker, 32 workers/node)");
    let mut t = Table::new(&[
        "nodes",
        "task s",
        "LLEX s",
        "HTEX s",
        "EXEX s",
        "best",
        "guideline",
    ]);
    for nodes in [10usize, 100, 1000, 2000, 4096, 8192] {
        let workers = nodes * bw.workers_per_node;
        // Guideline-adequate duration for this scale.
        let dur_s = (0.01 * nodes as f64).max(1.0);
        let duration = SimTime::from_secs_f64(dur_s);
        let times: Vec<Option<f64>> = models
            .iter()
            .map(|m| {
                m.run_campaign(10 * workers, workers, duration, one_way)
                    .ok()
                    .map(|r| r.makespan.as_secs_f64())
            })
            .collect();
        let best = models
            .iter()
            .zip(&times)
            .filter_map(|(m, t)| t.map(|t| (m, t)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(m, _)| choice_of(m))
            .expect("at least one executor reaches every scale");
        let rec = recommend(nodes, false);
        t.row(vec![
            nodes.to_string(),
            fmt_f(dur_s),
            times[0].map(fmt_f).unwrap_or_else(|| "-".into()),
            times[1].map(fmt_f).unwrap_or_else(|| "-".into()),
            times[2].map(fmt_f).unwrap_or_else(|| "-".into()),
            best.to_string(),
            format!("{rec}{}", if best == rec { " (match)" } else { " (~)" }),
        ]);
    }
    t.print();
    println!("\n(~) expected deviations, not model errors:");
    println!("  - LLEX edges out HTEX at small batch scale in this *failure-free*");
    println!("    performance model; the guideline still says HTEX because LLEX");
    println!("    trades away fault tolerance and provisioning (§4.3.3), which");
    println!("    matter for batch work and are outside the latency/makespan model;");
    println!("  - HTEX and EXEX are within a rounding error of each other in the");
    println!("    1000–4096 node band; the guideline's 1000-node threshold reflects");
    println!("    HTEX's engineering envelope (\"up to 2000 nodes\"), and HTEX's own");
    println!("    ceiling (no point at 8192 nodes) is where EXEX becomes mandatory.");
}
