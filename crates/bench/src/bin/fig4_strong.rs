//! Figure 4 (top row): strong scaling on Blue Waters.
//!
//! 50 000 tasks (5000 for FireWorks, matching the paper's reduced run)
//! of duration {0, 10, 100, 1000 ms}, executed over 32 … 262 144 workers.
//! Reports completion time; `-` marks scales a framework cannot reach
//! (connection failures), mirroring the truncated curves in the figure.
//!
//! Shapes to check against the paper:
//! - HTEX best overall, EXEX close behind, both near-flat for no-ops;
//! - Dask slightly ahead of HTEX below ~1024 workers, then degrading and
//!   ending at 8192;
//! - IPP degrading beyond ~512 workers, ending at 2048;
//! - FireWorks an order of magnitude slower throughout, ending at 1024.

use bench::{fmt_opt, pow2_range, section, Table};
use simcluster::{machines, model};
use simnet::SimTime;

fn main() {
    let bw = machines::blue_waters();
    let one_way = bw.one_way_latency();
    let workers = pow2_range(32, 262_144);
    let frameworks = model::figure4_lineup();

    for duration_ms in [0u64, 10, 100, 1000] {
        section(&format!(
            "Figure 4 strong scaling — {duration_ms} ms tasks, completion time (s)"
        ));
        let mut headers: Vec<String> = vec!["workers".into()];
        headers.extend(frameworks.iter().map(|f| f.name.to_string()));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&headers_ref);
        for &w in &workers {
            let mut row = vec![w.to_string()];
            for fw in &frameworks {
                let n_tasks = if fw.name == "FireWorks" {
                    5_000
                } else {
                    50_000
                };
                let cell = fw
                    .run_campaign(n_tasks, w, SimTime::from_millis(duration_ms), one_way)
                    .ok()
                    .map(|r| r.makespan.as_secs_f64());
                row.push(fmt_opt(cell));
            }
            t.row(row);
        }
        t.print();
    }
    println!("\nnote: FireWorks column uses 5000 tasks (paper: limited allocation).");
}
