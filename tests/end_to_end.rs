//! Integration: DataFlowKernel × HTEX × data staging × monitoring,
//! exercised together the way a real program would.

use parsl::core::combinators::barrier;
use parsl::data::{DataManager, DataManagerConfig, File, StagedFile};
use parsl::monitor::MemoryStore;
use parsl::prelude::*;
use std::sync::Arc;

fn htex() -> parsl::executors::HtexExecutor {
    parsl::executors::HtexExecutor::new(parsl::executors::HtexConfig {
        workers_per_node: 2,
        nodes_per_block: 2,
        init_blocks: 1,
        ..Default::default()
    })
}

#[test]
fn staged_pipeline_with_monitoring() {
    let store = Arc::new(MemoryStore::new());
    let dfk = DataFlowKernel::builder()
        .executor(htex())
        .monitor(store.clone())
        .build()
        .unwrap();
    let dm = DataManager::new(&dfk, DataManagerConfig::default());

    // Two remote inputs, one shared processing step, one reduce.
    let a = dm.stage_in(File::parse("http://data.host/a.bin"));
    let b = dm.stage_in(File::parse("http://data.host/b.bin"));
    let size = dfk.python_app("size", |f: StagedFile| f.bytes);
    let total = dfk.python_app("total", |x: u64, y: u64| x + y);
    let sa = parsl::core::call!(size, a);
    let sb = parsl::core::call!(size, b);
    let t = total.call((Dep::future(sa), Dep::future(sb)));
    let sum = t.result().unwrap();
    assert!(sum > 0);

    dfk.wait_for_all();
    // Monitoring saw every task reach a successful terminal state.
    let done = store.tasks_in_state(TaskState::Done).len();
    assert_eq!(
        done,
        dfk.task_count(),
        "all tasks (incl. staging) completed"
    );
    // Timelines are causally ordered.
    let tl = store.task_timeline(t.task_id()).unwrap();
    assert!(tl.finished >= tl.launched && tl.launched >= tl.submitted);
    dfk.shutdown();
}

#[test]
fn wide_map_reduce_over_htex() {
    let dfk = DataFlowKernel::builder().executor(htex()).build().unwrap();
    let square = dfk.python_app("square", |x: u64| x * x);
    let squares = square.map(0..200).results();
    let expect: Vec<u64> = (0..200u64).map(|x| x * x).collect();
    assert_eq!(
        squares.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
        expect
    );
    let sum = square.map_reduce(0..200, 0, |a, b| a + b);
    assert_eq!(sum.result().unwrap(), expect.iter().sum::<u64>());
    dfk.shutdown();
}

#[test]
fn barrier_synchronizes_phases() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static PHASE1: AtomicUsize = AtomicUsize::new(0);
    PHASE1.store(0, Ordering::SeqCst);

    let dfk = DataFlowKernel::builder().executor(htex()).build().unwrap();
    let work = dfk.python_app("work", |x: u64| {
        PHASE1.fetch_add(1, Ordering::SeqCst);
        x
    });
    let futs: Vec<_> = (0..16u64).map(|i| parsl::core::call!(work, i)).collect();
    let gate = barrier(&dfk, futs);
    gate.result().unwrap();
    assert_eq!(PHASE1.load(Ordering::SeqCst), 16);
    dfk.shutdown();
}

#[test]
fn bash_and_python_apps_mix_in_one_graph() {
    let dir = std::env::temp_dir().join(format!("parsl-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("listing.txt");

    let dfk = DataFlowKernel::builder().executor(htex()).build().unwrap();
    // Bash app writes a file; a python app depending on its exit code
    // reads it back (the file path is fixed; the dependency edge orders
    // the two).
    let write = dfk.bash_app_cfg(
        "write_listing",
        AppOptions::default(),
        BashOptions::default(),
        {
            let out = out.clone();
            move |n: u64| format!("seq 1 {n} > {}", out.display())
        },
    );
    let count = dfk.python_app("count_lines", {
        let out = out.clone();
        move |_exit: i32| {
            std::fs::read_to_string(&out)
                .map(|s| s.lines().count() as u64)
                .unwrap_or(0)
        }
    });
    let wrote = parsl::core::call!(write, 17u64);
    let lines = parsl::core::call!(count, wrote);
    assert_eq!(lines.result().unwrap(), 17);
    dfk.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn executor_pinning_routes_staging_and_compute_separately() {
    let store = Arc::new(MemoryStore::new());
    let dfk = DataFlowKernel::builder()
        .executor(parsl::executors::ThreadPoolExecutor::with_label(
            "compute", 2,
        ))
        .executor(parsl::executors::ThreadPoolExecutor::with_label(
            "transfer", 1,
        ))
        .monitor(store.clone())
        .build()
        .unwrap();
    let dm = DataManager::new(
        &dfk,
        DataManagerConfig {
            globus_executor: Some("transfer".into()),
            ..Default::default()
        },
    );
    let staged = dm.stage_in(File::parse("globus://ep/data/x.h5"));
    staged.result().unwrap();
    dfk.wait_for_all();
    let globus_tasks: Vec<_> = store
        .timelines()
        .into_iter()
        .filter(|(_, t)| t.app.contains("globus"))
        .collect();
    assert!(!globus_tasks.is_empty());
    assert!(globus_tasks
        .iter()
        .all(|(_, t)| t.executor.as_deref() == Some("transfer")));
    dfk.shutdown();
}
