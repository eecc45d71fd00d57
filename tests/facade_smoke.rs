//! Workspace-wiring smoke test: drives the facade crate end-to-end on a
//! real (threaded) executor and checks that the re-export surface exposes
//! every member crate.
//!
//! Everything here goes through `parsl::...` paths only — if a re-export
//! goes missing from `src/lib.rs`, this file stops compiling.

use parsl::prelude::*;
use std::sync::Arc;

/// End-to-end: registration → dependency graph → ThreadPoolExecutor
/// dispatch → future resolution, via the facade prelude alone.
#[test]
fn prelude_drives_threadpool_end_to_end() {
    let dfk = DataFlowKernel::builder()
        .executor(parsl::executors::ThreadPoolExecutor::new(4))
        .build()
        .expect("kernel starts");

    let square = dfk.python_app("square", |x: u64| x * x);
    let sum = dfk.python_app("sum", |v: Vec<u64>| v.into_iter().sum::<u64>());

    // Fan out 16 squares, join them, reduce.
    let futs: Vec<AppFuture<u64>> = (1..=16).map(|i| parsl::core::call!(square, i)).collect();
    let joined = parsl::core::combinators::join_all(&dfk, futs);
    let total = sum.call((Dep::future(joined),));
    let expected: u64 = (1..=16u64).map(|i| i * i).sum();
    assert_eq!(total.result().expect("graph computes"), expected);

    // State accounting is visible through the facade too.
    dfk.wait_for_all();
    assert_eq!(dfk.live_tasks(), 0);
    let counts = dfk.state_counts();
    let done = counts.get(&TaskState::Done).copied().unwrap_or(0);
    assert!(
        done >= 18,
        "16 squares + join + sum should be Done, saw {done}"
    );
    dfk.shutdown();
}

/// Failure paths surface through the facade's error re-exports.
#[test]
fn prelude_exposes_error_taxonomy() {
    let dfk = DataFlowKernel::builder()
        .executor(parsl::executors::ThreadPoolExecutor::new(2))
        .build()
        .unwrap();
    let boom = dfk.python_app_fallible("boom", || -> Result<u8, AppError> {
        Err(AppError::msg("nope"))
    });
    match parsl::core::call!(boom).result() {
        Err(ParslError::Task(TaskError::App(AppError::Failure(m)))) => assert_eq!(m, "nope"),
        other => panic!("expected app failure, got {other:?}"),
    }
    dfk.shutdown();
}

/// Every runtime crate is reachable through the facade: touch one
/// load-bearing item per re-exported crate.
#[test]
fn reexport_surface_is_complete() {
    // parsl::core
    let _cfg = parsl::core::Config::builder();
    // parsl::executors
    let _tp = parsl::executors::ThreadPoolExecutor::new(1);
    // parsl::providers
    let _provider = parsl::providers::LocalProvider::new(1);
    // parsl::data
    let file = parsl::data::File::parse("http://host/data.bin");
    assert_eq!(file.scheme, parsl::data::Scheme::Http);
    // parsl::monitor
    let _store = parsl::monitor::MemoryStore::default();
    // wire: serialization substrate.
    let bytes = parsl::wire::to_bytes(&42u64).unwrap();
    assert_eq!(parsl::wire::from_bytes::<u64>(&bytes).unwrap(), 42);
    // nexus: message fabric.
    use parsl::nexus::Port;
    let fabric = Arc::new(parsl::nexus::Fabric::new());
    let ep = fabric.bind(parsl::nexus::Addr::new("smoke")).unwrap();
    ep.send(
        &parsl::nexus::Addr::new("smoke"),
        parsl::wire::to_bytes(&1u8).unwrap().into(),
    )
    .unwrap();
    assert!(ep.recv_timeout(std::time::Duration::from_secs(1)).is_ok());
    // minimpi: communicator used by EXEX.
    let ranks = parsl::minimpi::World::create(2);
    assert_eq!(ranks.len(), 2);
    assert_eq!(ranks[0].size(), 2);
}
