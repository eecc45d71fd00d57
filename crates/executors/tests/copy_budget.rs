//! How many times a task's argument bytes are copied between
//! `Executor::submit` and the `ToManager::Tasks` frame its manager
//! receives, on an in-proc HTEX whose one manager the test plays.
//!
//! A copy of a megabyte needs a buffer of at least a megabyte, and
//! nothing else on the path allocates that much, so the count is the
//! number of heap allocations (and reallocations) of at least the
//! arguments' size while the task travels. The budget is one: the frame
//! itself. Serde-encoding the submit, decoding it at the interchange and
//! `to_vec`-ing the arguments would each add one.
//!
//! One test in its own binary: the counter is global, so nothing else may
//! run beside it.

use bytes::Bytes;
use crossbeam::channel::unbounded;
use nexus::{Addr, Fabric};
use parsl_core::executor::{Executor, ExecutorContext, TaskSpec};
use parsl_core::registry::{AppOptions, AppRegistry};
use parsl_core::types::{AppKind, ResourceSpec, TaskId, TenantId};
use parsl_executors::proto::{decode, encode, ToInterchange, ToManager};
use parsl_executors::{HtexConfig, HtexExecutor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ARGS: usize = 1 << 20;

static BIG: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// static atomic, so counting neither allocates nor depends on thread state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= ARGS {
            BIG.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= ARGS {
            BIG.fetch_add(1, Ordering::SeqCst);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_tasks_arguments_are_copied_once_on_their_way_to_its_manager() {
    let fabric = Fabric::new();
    let htex = HtexExecutor::on_fabric(
        HtexConfig {
            label: "copy".into(),
            prefetch: 0,
            init_blocks: 0,
            ..Default::default()
        },
        fabric.clone(),
    );
    let registry = AppRegistry::new();
    let app = registry.register(
        "never-run",
        AppKind::Native,
        "()->()",
        Arc::new(|_| Ok(Vec::new())),
        AppOptions::default(),
    );
    let (completions, _outcomes) = unbounded();
    htex.start(ExecutorContext {
        completions,
        registry,
    })
    .unwrap();

    let manager = fabric.bind(Addr::new("copy:mgr-test")).unwrap();
    let hello = ToInterchange::Register {
        name: "copy:mgr-test".into(),
        capacity: 1,
        held: Vec::new(),
    };
    manager.send(&Addr::new("copy:ix"), encode(&hello)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while htex.connected_workers() < 1 {
        assert!(Instant::now() < deadline, "the manager never registered");
        std::thread::sleep(Duration::from_millis(2));
    }

    let args = Bytes::from(vec![7u8; ARGS]);
    let task = TaskSpec {
        id: TaskId(1),
        app,
        args: args.clone(),
        resources: ResourceSpec::default(),
        attempt: 0,
        tenant: TenantId::DEFAULT,
        items: 1,
    };
    let before = BIG.load(Ordering::SeqCst);
    htex.submit(task).unwrap();
    let frame = loop {
        let env = manager
            .recv_timeout(Duration::from_secs(10))
            .expect("the task reaches its manager");
        if env.payload.len() > ARGS {
            break env.payload;
        }
    };
    let copies = BIG.load(Ordering::SeqCst) - before;

    let Ok(ToManager::Tasks(tasks)) = decode(&frame) else {
        panic!("the frame is not a Tasks frame");
    };
    assert_eq!(tasks.len(), 1);
    assert_eq!(tasks[0].args, &args[..]);
    assert_eq!(copies, 1, "argument-sized buffers between submit and frame");
    htex.shutdown();
}
