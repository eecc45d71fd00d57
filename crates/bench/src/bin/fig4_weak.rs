//! Figure 4 (bottom row): weak scaling on Blue Waters.
//!
//! 10 tasks per worker (1M tasks at the 262 144-worker point, half the
//! paper's quoted 3125-node × 32 × 10 bound), duration {0, 10, 100,
//! 1000 ms}. An ideal system holds completion time constant; the paper
//! observes sublinear scaling setting in at ~32 workers for FireWorks,
//! ~256 for IPP, and ~1024 for Dask, HTEX, and EXEX.

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
            "Figure 4 weak scaling — {duration_ms} ms tasks, 10 tasks/worker, completion time (s)"
        ));
        let mut headers: Vec<String> = vec!["workers".into()];
        headers.extend(frameworks.iter().map(|f| f.name.to_string()));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&headers_ref);
        for &w in &workers {
            let mut row = vec![w.to_string()];
            for fw in &frameworks {
                let cell = fw
                    .run_campaign(10 * w, w, SimTime::from_millis(duration_ms), one_way)
                    .ok()
                    .map(|r| r.makespan.as_secs_f64());
                row.push(fmt_opt(cell));
            }
            t.row(row);
        }
        t.print();

        // Report the sublinear onset: first worker count where completion
        // time exceeds 2x the minimum for this duration.
        let mut onsets = Vec::new();
        for fw in &frameworks {
            let times: Vec<(usize, f64)> = workers
                .iter()
                .filter_map(|&w| {
                    fw.run_campaign(10 * w, w, SimTime::from_millis(duration_ms), one_way)
                        .ok()
                        .map(|r| (w, r.makespan.as_secs_f64()))
                })
                .collect();
            if let Some(base) = times.iter().map(|(_, t)| *t).reduce(f64::min) {
                let onset = times.iter().find(|(_, t)| *t > 2.0 * base).map(|(w, _)| *w);
                onsets.push(format!(
                    "{}: {}",
                    fw.name,
                    onset
                        .map(|w| w.to_string())
                        .unwrap_or_else(|| "none".into())
                ));
            }
        }
        println!("sublinear onset (2x of best): {}", onsets.join(", "));
    }
}
