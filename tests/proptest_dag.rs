//! Property tests on the dependency machinery: for random DAGs (failing
//! nodes, retries), the inline, thread-pool and in-proc HTEX executors all
//! produce what the reference interpreter (`support::expect`) predicts —
//! values, failure kinds, state histogram, per-task attempts — whatever
//! order tasks complete in; and memoization never changes a value.

#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use parsl::executors::{HtexConfig, HtexExecutor, ThreadPoolExecutor};
use parsl::prelude::*;
use proptest::prelude::*;
use support::{assert_quiescent, dag_strategy, expect, run, submit};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAGs on the inline executor.
    #[test]
    fn dag_values_match_reference_inline(dag in dag_strategy(5)) {
        let inline = DataFlowKernel::builder().executor(ImmediateExecutor::new());
        prop_assert_eq!(run(inline, &dag, 1), expect(&dag, 1));
    }

    /// The same under real thread parallelism: completion order differs,
    /// nothing the interpreter predicts may.
    #[test]
    fn dag_values_match_reference_threaded(dag in dag_strategy(5)) {
        let threaded = DataFlowKernel::builder().executor(ThreadPoolExecutor::new(4));
        prop_assert_eq!(run(threaded, &dag, 1), expect(&dag, 1));
    }

    /// Memoization changes execution counts, never values: submitted twice
    /// to a memoizing kernel, a DAG computes the interpreter's values both
    /// times, and the second time every task that succeeded is a memo hit.
    #[test]
    fn memoization_is_transparent(dag in dag_strategy(5)) {
        let dfk = DataFlowKernel::builder()
            .executor(ImmediateExecutor::new())
            .memoize(true)
            .build()
            .unwrap();
        let want = expect(&dag, 0);
        prop_assert_eq!(submit(&dfk, &dag), want.values.clone());
        prop_assert_eq!(submit(&dfk, &dag), want.values);
        assert_quiescent(&dfk);
        let counts = dfk.state_counts();
        let count = |s| counts.get(&s).copied().unwrap_or(0);
        let succeeded = want.states.get(&TaskState::Done).copied().unwrap_or(0);
        prop_assert_eq!(count(TaskState::Done) + count(TaskState::Memoized), 2 * succeeded);
        prop_assert!(count(TaskState::Memoized) >= succeeded);
        dfk.shutdown();
    }

    /// On in-proc HTEX too, every task reaches exactly the terminal state
    /// the interpreter gives it, once.
    #[test]
    fn state_accounting_is_consistent(dag in dag_strategy(5)) {
        let htex = HtexExecutor::new(HtexConfig {
            workers_per_node: 2,
            nodes_per_block: 2,
            init_blocks: 1,
            ..Default::default()
        });
        prop_assert_eq!(run(DataFlowKernel::builder().executor(htex), &dag, 1), expect(&dag, 1));
    }
}
