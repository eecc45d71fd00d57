//! Property: `app.map` is observationally equivalent to calling the app
//! once per item — same per-item values, same failure classification — for
//! random inputs and chunk sizes, while the monitoring plane sees fused
//! events that expand to the same logical item counts.

mod support;

use parsl_core::fusion::MapOptions;
use parsl_core::monitor::{MonitorEvent, MonitorSink};
use parsl_core::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use support::{assert_quiescent, classify, dag_strategy, expect, node_body, Value};

/// Per-terminal-state (events, logical items) tallies.
#[derive(Default)]
struct Tally(parking_lot::Mutex<std::collections::BTreeMap<String, (usize, usize)>>);

impl MonitorSink for Tally {
    fn on_event(&self, event: &MonitorEvent) {
        if let MonitorEvent::Task { state, items, .. } = event {
            if state.is_terminal() {
                let mut m = self.0.lock();
                let e = m.entry(state.to_string()).or_insert((0, 0));
                e.0 += 1;
                e.1 += *items as usize;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `map` evaluates a random DAG level by level — each layer one map of
    /// a one-argument `node` over the nodes whose parents all succeeded,
    /// fed the values earlier maps returned — and agrees node for node with
    /// the reference interpreter, which calls the body once per node.
    /// Poisoned items exercise split-retry at every chunk size.
    #[test]
    fn map_equals_individual_calls(
        dag in dag_strategy(24),
        chunk in 1usize..9,
        auto in any::<bool>(),
    ) {
        let dfk = DataFlowKernel::builder()
            .executor(ImmediateExecutor::new())
            .build()
            .unwrap();
        let node = dfk.python_app_fallible("node", |(base, deps, fail): (u64, Vec<u64>, bool)| {
            node_body(base, deps, fail)
        });
        let opts = MapOptions {
            chunk_size: (!auto).then_some(chunk),
            ..MapOptions::default()
        };
        let mut got: Vec<Value> = Vec::with_capacity(dag.nodes.len());
        for layer in &dag.layers {
            let (mut ready, mut inputs) = (Vec::new(), Vec::new());
            for n in &dag.nodes[layer.clone()] {
                match n.parents.iter().map(|&p| got[p]).collect::<Result<Vec<u64>, _>>() {
                    Ok(deps) => {
                        ready.push(got.len());
                        inputs.push((n.base, deps, n.poisoned));
                        got.push(Err("unmapped"));
                    }
                    Err(_) => got.push(Err("dep")),
                }
            }
            for (k, r) in ready.into_iter().zip(node.map_with(inputs, opts.clone()).results()) {
                got[k] = classify(r);
            }
        }
        prop_assert_eq!(got, expect(&dag, 0).values);
        assert_quiescent(&dfk);
        dfk.shutdown();
    }

    /// The monitor sees ~n/chunk fused Done events whose `items` weights
    /// expand back to exactly n logical completions (clean runs only:
    /// split-retry re-reports remainder items, like retries re-report
    /// attempts).
    #[test]
    fn fused_events_expand_to_logical_counts(
        n in 0usize..200,
        chunk in 1usize..17,
    ) {
        let tally = Arc::new(Tally::default());
        let dfk = DataFlowKernel::builder()
            .executor(ImmediateExecutor::new())
            .monitor(Arc::clone(&tally) as Arc<dyn MonitorSink>)
            .build()
            .unwrap();
        let id = dfk.python_app("id", |x: u64| x);
        let handle = id.map_with(
            0..n as u64,
            MapOptions { chunk_size: Some(chunk), ..MapOptions::default() },
        );
        prop_assert!(handle.results().iter().all(|r| r.is_ok()));
        dfk.wait_for_all();
        let m = tally.0.lock();
        if n == 0 {
            prop_assert!(m.is_empty());
        } else {
            let (events, items) = m.get("done").copied().unwrap_or((0, 0));
            prop_assert_eq!(events, n.div_ceil(chunk));
            prop_assert_eq!(items, n);
            prop_assert_eq!(m.len(), 1);
        }
        dfk.shutdown();
    }
}
