//! Property: batching is semantically invisible on both halves of the
//! task lifecycle. For random layered DAGs (failing nodes, retries), a
//! kernel whose executor takes tasks one `submit` at a time and one whose
//! executor runs a whole batch before shipping it as one frame both
//! produce exactly what the reference interpreter (`support::expect`)
//! predicts: values and failure kinds, the state histogram, and every
//! task's launches, retries and single terminal commit. The collector
//! always drains whatever frames are queued into one commit pass, so the
//! interpreter — one task at a time — is the per-task side of each
//! comparison.

mod support;

use parsl_core::prelude::*;
use parsl_core::ConfigBuilder;
use proptest::prelude::*;
use support::{dag_strategy, expect, run, InlineExec};

fn inline(batched: bool) -> ConfigBuilder {
    DataFlowKernel::builder().executor(InlineExec::new("inline", batched))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-task and batched *submission* both match the interpreter.
    #[test]
    fn batched_equals_per_task(dag in dag_strategy(4)) {
        prop_assert_eq!(run(inline(false), &dag, 1), expect(&dag, 1));
        prop_assert_eq!(run(inline(true), &dag, 1), expect(&dag, 1));
    }

    /// Batched *collection* commits what one-at-a-time evaluation does,
    /// with no retry budget and with a deeper one.
    #[test]
    fn batched_collection_equals_per_task_collection(dag in dag_strategy(4)) {
        for retries in [0, 2] {
            prop_assert_eq!(run(inline(true), &dag, retries), expect(&dag, retries));
        }
    }

    /// The fully batched path is deterministic: two runs of one DAG both
    /// match the interpreter.
    #[test]
    fn batched_run_is_deterministic(dag in dag_strategy(4)) {
        let want = expect(&dag, 1);
        prop_assert_eq!(run(inline(true), &dag, 1), want);
        prop_assert_eq!(run(inline(true), &dag, 1), want);
    }
}
