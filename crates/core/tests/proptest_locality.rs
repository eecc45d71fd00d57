//! Property: data-aware placement is a strict *extension* of load
//! balancing. When a task declares no input bytes, the dispatcher leaves
//! `transfer_cost` at zero on every snapshot, and
//! [`SchedulerPolicy::DataAware`] must behave exactly like
//! [`SchedulerPolicy::LeastOutstanding`] — same choice at the policy level
//! for arbitrary snapshot vectors; at the kernel level, runs of random
//! hint-free DAGs under either policy compute the reference interpreter's
//! values (`support::expect`) and move no bytes.

mod support;

use parsl_core::prelude::*;
use parsl_core::scheduler::{DataAware, ExecutorSnapshot, LeastOutstanding, Scheduler};
use proptest::collection::vec;
use proptest::prelude::*;
use support::{assert_quiescent, dag_strategy, expect, submit, InlineExec};

// ---------------------------------------------------------------------------
// Policy level: for any snapshot vector with transfer_cost == 0 everywhere,
// DataAware.assign == LeastOutstanding.assign.
// ---------------------------------------------------------------------------

fn zero_cost_snapshots() -> impl Strategy<Value = Vec<ExecutorSnapshot>> {
    vec((0usize..64, 0usize..16, 0u64..1_000_000), 1..8).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (outstanding, capacity, resident))| ExecutorSnapshot {
                index: i,
                outstanding,
                capacity,
                tenant_outstanding: 0,
                // Residency without declared inputs must be irrelevant:
                // only transfer_cost may steer the data-aware score.
                resident_bytes: resident,
                transfer_cost: 0.0,
                draining: false,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn data_aware_equals_least_outstanding_without_input_bytes(
        snaps in zero_cost_snapshots(),
        seq in 0u64..10_000,
        alpha in 0.0f64..10.0,
    ) {
        let da = DataAware { alpha };
        prop_assert_eq!(
            da.assign(&snaps, seq),
            LeastOutstanding.assign(&snaps, seq),
            "alpha={} snaps={:?}", alpha, snaps
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hint-free DAGs on three executors: a `DataAware` run and a
    /// `LeastOutstanding` run both compute the interpreter's values and
    /// move zero bytes through the data plane. (Placement itself is
    /// compared at the policy level above: batch formation depends on
    /// dispatcher timing, so even two runs of one policy may place
    /// differently.)
    #[test]
    fn data_aware_run_equals_least_outstanding_on_hint_free_dags(dag in dag_strategy(4)) {
        let want = expect(&dag, 0).values;
        for policy in [SchedulerPolicy::data_aware(), SchedulerPolicy::LeastOutstanding] {
            let dfk = DataFlowKernel::builder()
                .executor(InlineExec::new("e0", true))
                .executor(InlineExec::new("e1", true))
                .executor(InlineExec::new("e2", true))
                .scheduler(policy)
                .build()
                .unwrap();
            prop_assert_eq!(submit(&dfk, &dag), want.clone());
            prop_assert_eq!(dfk.data_bytes_moved(), 0);
            assert_quiescent(&dfk);
            dfk.shutdown();
        }
    }
}
