//! Property: the transport is semantically invisible. For random layered
//! DAGs (failing nodes, retries), an HTEX whose managers are spawned
//! `parsl-worker` *processes* over loopback TCP produces what the
//! reference interpreter (`support::expect`) predicts — values, failure
//! kinds, state histogram, per-task attempts — as in-proc HTEX does
//! (`proptest_dag`). The `node` app body is compiled into the worker's
//! builtin table (`parsl_executors::builtin`) with byte-identical
//! semantics.

#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use parsl::executors::{HtexConfig, HtexExecutor, TcpHtexOptions};
use parsl::prelude::*;
use proptest::prelude::*;
use std::time::Duration;
use support::{dag_strategy, expect, run};

fn htex_config() -> HtexConfig {
    HtexConfig {
        workers_per_node: 2,
        nodes_per_block: 2,
        init_blocks: 1,
        prefetch: 4,
        batch_size: 8,
        heartbeat_period: Duration::from_millis(50),
        heartbeat_threshold: Duration::from_secs(5),
        ..Default::default()
    }
}

proptest! {
    // TCP runs spawn real processes; keep the case count CI-sized.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Loopback-TCP HTEX matches the interpreter, so it is observationally
    /// identical to in-proc HTEX.
    #[test]
    fn tcp_htex_equals_in_proc_htex(dag in dag_strategy(3)) {
        let tcp = HtexExecutor::tcp(
            htex_config(),
            TcpHtexOptions {
                worker_cmd: vec![env!("CARGO_BIN_EXE_parsl-worker").to_string()],
                ..Default::default()
            },
        )
        .expect("bind loopback hub");
        prop_assert_eq!(run(DataFlowKernel::builder().executor(tcp), &dag, 1), expect(&dag, 1));
    }
}
