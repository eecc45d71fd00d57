//! Table 2: capabilities and capacities of Parsl executors and other
//! parallel Python tools.
//!
//! Three columns, reproduced the way the paper measured them:
//! - **max workers / max nodes**: add workers until connections fail
//!   (Blue Waters, one worker per integer scheduling unit, 32/node).
//!   HTEX and EXEX were allocation-limited at 2048 / 8192 nodes — we
//!   report the paper's allocation-limited points with `*`, like the
//!   paper's footnote;
//! - **max tasks/s**: 50 000 no-op tasks on the Midway model at a worker
//!   count in the framework's sweet spot.

use bench::{fmt_f, section, Table};
use simcluster::{machines, FrameworkModel};
use simnet::SimTime;

struct Row {
    model: FrameworkModel,
    paper_workers: usize,
    paper_nodes: usize,
    paper_tput: f64,
    allocation_limited: bool,
}

fn main() {
    let bw = machines::blue_waters();
    let midway = machines::midway();
    let rows = vec![
        Row {
            model: FrameworkModel::ipp(),
            paper_workers: 2048,
            paper_nodes: 64,
            paper_tput: 330.0,
            allocation_limited: false,
        },
        Row {
            model: FrameworkModel::htex(),
            paper_workers: 65_536,
            paper_nodes: 2048,
            paper_tput: 1181.0,
            allocation_limited: true,
        },
        Row {
            model: FrameworkModel::exex(),
            paper_workers: 262_144,
            paper_nodes: 8192,
            paper_tput: 1176.0,
            allocation_limited: true,
        },
        Row {
            model: FrameworkModel::fireworks(),
            paper_workers: 1024,
            paper_nodes: 32,
            paper_tput: 4.0,
            allocation_limited: false,
        },
        Row {
            model: FrameworkModel::dask(),
            paper_workers: 8192,
            paper_nodes: 256,
            paper_tput: 2617.0,
            allocation_limited: false,
        },
    ];

    section("Table 2 — max workers / max nodes / max tasks per second");
    let mut t = Table::new(&[
        "framework",
        "max workers",
        "paper",
        "max nodes",
        "paper",
        "tasks/s",
        "paper",
    ]);
    for row in &rows {
        // Scale limit: grow until the model refuses, capped at the paper's
        // allocation-limited point for HTEX/EXEX.
        let framework_limit = row.model.max_workers(bw.total_workers());
        let (max_workers, star) = if row.allocation_limited {
            (framework_limit.min(row.paper_workers), "*")
        } else {
            (framework_limit, "")
        };
        let max_nodes = max_workers / bw.workers_per_node;

        // Throughput: measured at a modest worker count where the central
        // component, not worker capacity or upkeep, is the bottleneck.
        let tput_workers = 64.min(max_workers);
        let tput = row
            .model
            .run_campaign(
                50_000,
                tput_workers,
                SimTime::ZERO,
                midway.one_way_latency(),
            )
            .map(|r| r.throughput)
            .unwrap_or(0.0);

        t.row(vec![
            row.model.name.to_string(),
            format!("{max_workers}{star}"),
            row.paper_workers.to_string(),
            format!("{max_nodes}{star}"),
            row.paper_nodes.to_string(),
            fmt_f(tput),
            fmt_f(row.paper_tput),
        ]);
    }
    t.print();
    println!("* allocation-limited in the paper (not a framework limit); the model's");
    println!("  own connection ceiling is higher and the reported value is clamped to");
    println!("  the paper's tested allocation.");
}
