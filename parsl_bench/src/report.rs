//! The metrics the benchmark declares, and the two things written from
//! them: `BENCHMARK.json` and the result line that ends every run.

use crate::stats::Better;
use crate::workloads::Workload;

/// How long one run measures, in seconds, at the declared sizes.
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_mitem",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`. The `trace.*` ones come
/// from the traced epochs of the workload, the rest from isolated probes
/// that do not depend on it.
pub type PerLayer = (&'static str, &'static str, Better);

const H: Better = Better::Higher;
const L: Better = Better::Lower;

pub const TRACE_METRICS: [PerLayer; 16] = [
    ("trace.call_us", "us", L),
    ("trace.dispatch_wait_us", "us", L),
    ("trace.exec_submit_us_per_task", "us", L),
    ("trace.flight_us", "us", L),
    ("trace.exec_us", "us", L),
    ("trace.collect_us", "us", L),
    ("trace.wake_us", "us", L),
    ("trace.submit_batch_mean", "count", H),
    ("trace.outcome_batch_mean", "count", H),
    ("trace.memo_hit_share", "%", H),
    ("trace.checkpoint_bytes_per_task", "B", L),
    ("trace.monitor_events_per_task", "count", L),
    ("trace.fabric_msgs_per_item", "count", L),
    ("trace.map_chunks", "count", L),
    ("trace.worker_busy_share", "%", H),
    ("trace.overhead_frac", "%", L),
];

pub const PROBE_METRICS: [PerLayer; 45] = [
    ("wire.encode_task_ns", "ns", L),
    ("wire.decode_task_ns", "ns", L),
    ("wire.frame_ns", "ns", L),
    ("wire.encode_bulk_mb_s", "MB/s", H),
    ("wire.decode_bulk_mb_s", "MB/s", H),
    ("proto.from_spec_ns", "ns", L),
    ("proto.encode_batch_ns_per_task", "ns", L),
    ("proto.decode_batch_ns_per_task", "ns", L),
    ("proto.results_ns_per_task", "ns", L),
    ("nexus.fabric.pingpong_p50_us", "us", L),
    ("nexus.fabric.stream_msgs_per_s", "1/s", H),
    ("nexus.tcp.pingpong_p50_us", "us", L),
    ("nexus.tcp.relay_pingpong_p50_us", "us", L),
    ("nexus.tcp.stream_msgs_per_s", "1/s", H),
    ("nexus.tcp.stream_mb_s", "MB/s", H),
    ("nexus.tcp.connect_ms", "ms", L),
    ("executors.threadpool.tasks_per_s", "1/s", H),
    ("executors.threadpool.roundtrip_p50_us", "us", L),
    ("executors.htex_inproc.tasks_per_s", "1/s", H),
    ("executors.htex_inproc.roundtrip_p50_us", "us", L),
    ("executors.htex_tcp.tasks_per_s", "1/s", H),
    ("executors.htex_tcp.roundtrip_p50_us", "us", L),
    ("executors.llex.tasks_per_s", "1/s", H),
    ("executors.llex.roundtrip_p50_us", "us", L),
    ("executors.exex.tasks_per_s", "1/s", H),
    ("executors.exex.roundtrip_p50_us", "us", L),
    ("executors.kernel.execute_ns", "ns", L),
    ("executors.htex_tcp.start_ms", "ms", L),
    ("core.dfk.call_ns", "ns", L),
    ("core.dfk.complete_ns_per_task", "ns", L),
    ("core.dfk.chain_ns_per_task", "ns", L),
    ("core.dfk.bytes_per_task", "B", L),
    ("core.memo.key_ns", "ns", L),
    ("core.memo.lookup_hit_ns", "ns", L),
    ("core.memo.lookup_miss_ns", "ns", L),
    ("core.memo.record_ns", "ns", L),
    ("core.memo.record_checkpoint_ns", "ns", L),
    ("core.memo.load_entries_per_s", "1/s", H),
    ("core.scheduler.assign_ns", "ns", L),
    ("core.fusion.body_ns_per_item", "ns", L),
    ("core.fusion.map_submit_ns_per_item", "ns", L),
    ("core.future.set_wake_us", "us", L),
    ("core.future.on_done_ns", "ns", L),
    ("monitor.csv.event_ns", "ns", L),
    ("monitor.memory.event_ns", "ns", L),
];

pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    TRACE_METRICS.iter().chain(PROBE_METRICS.iter())
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float with all its digits, or `null` where there is no number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The whole of `BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"parsl_bench/run.sh\"],\n");
    s.push_str("  \"paths\": [\"parsl_bench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str()),
                json_number(m.bound)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(name),
                json_string(unit),
                json_string(better.as_str())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The line that ends a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted,
        failed,
        body.join(", ")
    )
}

/// What a [`result_line`] says.
#[derive(Debug, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name and value of every metric, in the line's order.
    pub metrics: Vec<(String, f64)>,
}

/// Read a [`result_line`] back — enough JSON for the runner to read its
/// own output in `--repeat-check`.
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let after = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\":"))?;
        Some(line[at + key.len() + 3..].trim_start())
    };
    let number = |text: &str| -> Option<f64> {
        let end = text
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(text.len());
        text[..end].parse().ok()
    };
    let correct = after("correct")?.starts_with("true");
    let attempted = number(after("attempted")?)? as u64;
    let failed = number(after("failed")?)? as u64;
    let mut metrics = Vec::new();
    let mut rest = after("metrics")?.strip_prefix('{')?;
    while let Some(open) = rest.find('"') {
        let close = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..close];
        let value_at = close + rest[close..].find("\"value\":")? + "\"value\":".len();
        let value = number(rest[value_at..].trim_start())?;
        metrics.push((name.to_string(), value));
        rest = &rest[value_at + rest[value_at..].find('}')? + 1..];
    }
    Some(ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            12,
            0,
            &[("items_per_s", "1/s", 1234.5678), ("setup_s", "s", 0.25)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"items_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            parse_result_line(&line),
            Some(ResultLine {
                correct: true,
                attempted: 12,
                failed: 0,
                metrics: vec![
                    ("items_per_s".to_string(), 1234.5678),
                    ("setup_s".to_string(), 0.25)
                ],
            })
        );
    }

    #[test]
    fn one_failure_makes_the_run_incorrect() {
        assert!(result_line(5, 1, &[]).starts_with("{\"correct\": false"));
        assert!(result_line(0, 0, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(per_layer().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(ok(n, "_.-", 64), "bad name {n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(per_layer().map(|m| m.1))
        {
            assert!(ok(unit, "_/%.-", 16), "bad unit {unit}");
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(per_layer().count() <= 128);
    }

    /// `BENCHMARK.json` at the root of the repository is this program's
    /// own table, so what the driver expects is what the runner prints.
    #[test]
    fn benchmark_json_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `bash parsl_bench/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
