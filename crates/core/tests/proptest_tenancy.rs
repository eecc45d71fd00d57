//! Property: multi-tenant *placement* is semantically invisible.
//! [`SchedulerPolicy::WeightedFair`] only changes where tasks run — never
//! what runs, what values come out, or how many attempts anything takes —
//! so for random multi-tenant DAGs (failing nodes, retries, and per-tenant
//! quotas that force park/unpark cycles) a `WeightedFair` run produces
//! exactly what the reference interpreter (`support::expect`) predicts,
//! which is also what the default `RandomHash` placement produces
//! (`proptest_batching`).
//!
//! Plus a starvation stress: a light tenant arriving behind another
//! tenant's large parked backlog must be served interleaved by the
//! weighted-deficit unpark order, not appended after the backlog.

mod support;

use parking_lot::Mutex;
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskSpec};
use parsl_core::prelude::*;
use parsl_core::ConfigBuilder;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{dag_strategy, expect, run, InlineExec};

/// Two inline executors, so placement is a real choice, under
/// `WeightedFair`. Tenants 0 and 1 carry in-flight quotas, so runs park
/// and unpark by the weighted-deficit order, not just place.
fn weighted_fair() -> ConfigBuilder {
    DataFlowKernel::builder()
        .executor(InlineExec::new("e0", true))
        .executor(InlineExec::new("e1", true))
        .scheduler(SchedulerPolicy::WeightedFair)
        .seed(42)
        .tenant(
            TenantId(0),
            TenantConfig {
                weight: 1,
                max_inflight: Some(2),
            },
        )
        .tenant(
            TenantId(1),
            TenantConfig {
                weight: 3,
                max_inflight: Some(1),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `WeightedFair` placement matches the interpreter: values and
    /// failure kinds, state histogram, per-task attempts — and the run
    /// ends with every tenant's in-flight count at zero.
    #[test]
    fn weighted_fair_equals_random_hash(dag in dag_strategy(4)) {
        prop_assert_eq!(run(weighted_fair(), &dag, 1), expect(&dag, 1));
    }

    /// The multi-tenant path is deterministic: two `WeightedFair` runs of
    /// one DAG both match the interpreter.
    #[test]
    fn weighted_fair_run_is_deterministic(dag in dag_strategy(4)) {
        let want = expect(&dag, 1);
        prop_assert_eq!(run(weighted_fair(), &dag, 1), want);
        prop_assert_eq!(run(weighted_fair(), &dag, 1), want);
    }
}

// ---------------------------------------------------------------------------
// Starvation stress: a gated executor drained one task at a time, a heavy
// tenant's backlog parked first, a light tenant arriving behind it.
// ---------------------------------------------------------------------------

struct GatedExec {
    ctx: Mutex<Option<ExecutorContext>>,
    queue: Mutex<VecDeque<TaskSpec>>,
    tenants_seen: Mutex<Vec<TenantId>>,
    inflight: AtomicUsize,
}

impl GatedExec {
    fn new() -> Arc<Self> {
        Arc::new(GatedExec {
            ctx: Mutex::new(None),
            queue: Mutex::new(VecDeque::new()),
            tenants_seen: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
        })
    }

    fn complete_one(&self) -> bool {
        let Some(task) = self.queue.lock().pop_front() else {
            return false;
        };
        let ctx = self.ctx.lock().clone().expect("started");
        let outcome = InlineExec::run(&task);
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        ctx.completions
            .send(vec![outcome])
            .expect("collector alive");
        true
    }
}

impl Executor for GatedExec {
    fn label(&self) -> &str {
        "gated"
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        *self.ctx.lock() = Some(ctx);
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        if self.ctx.lock().is_none() {
            return Err(ExecutorError::NotRunning);
        }
        self.inflight.fetch_add(1, Ordering::SeqCst);
        self.tenants_seen.lock().push(task.tenant);
        self.queue.lock().push_back(task);
        Ok(())
    }

    fn outstanding(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    fn connected_workers(&self) -> usize {
        4
    }

    fn shutdown(&self) {
        self.ctx.lock().take();
        self.queue.lock().clear();
    }
}

/// A light tenant submitting 40 tasks behind a heavy tenant's 200-task
/// parked backlog must be served interleaved: under the weighted-deficit
/// unpark order its share tracks the heavy tenant's, so its last task
/// dispatches well inside the first half of the run. (Plain FIFO
/// unparking — the starvation failure mode — would dispatch it among the
/// very last 40.)
#[test]
fn late_light_tenant_is_not_starved_by_a_parked_backlog() {
    const HEAVY_N: usize = 200;
    const LIGHT_N: usize = 40;
    let heavy = TenantId(1);
    let light = TenantId(2);
    let ex = GatedExec::new();
    let dfk = DataFlowKernel::builder()
        .executor_arc(ex.clone())
        .max_inflight_per_executor(4)
        .build()
        .unwrap();
    let id = dfk.python_app("id", |x: u64| x);

    let h = dfk.tenant(heavy);
    let l = dfk.tenant(light);
    let heavy_futs: Vec<_> = (0..HEAVY_N as u64)
        .map(|i| h.call(&id, (Dep::value(i),)))
        .collect();
    // The whole heavy backlog is in (4 in flight, the rest parked)
    // before the light tenant shows up.
    let deadline = Instant::now() + Duration::from_secs(5);
    while dfk.parked_tasks() < HEAVY_N - 4 {
        assert!(Instant::now() < deadline, "backlog never parked");
        std::thread::sleep(Duration::from_millis(2));
    }
    let light_futs: Vec<_> = (0..LIGHT_N as u64)
        .map(|i| l.call(&id, (Dep::value(i),)))
        .collect();

    // Drain one completion at a time: every freed slot is one
    // weighted-deficit grant decision.
    let deadline = Instant::now() + Duration::from_secs(30);
    while dfk.live_tasks() > 0 {
        assert!(Instant::now() < deadline, "drain stalled");
        if !ex.complete_one() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for (i, f) in heavy_futs.iter().enumerate() {
        assert_eq!(f.result().unwrap(), i as u64);
    }
    for (i, f) in light_futs.iter().enumerate() {
        assert_eq!(f.result().unwrap(), i as u64);
    }

    let order = ex.tenants_seen.lock().clone();
    assert_eq!(order.len(), HEAVY_N + LIGHT_N);
    let last_light = order
        .iter()
        .rposition(|&t| t == light)
        .expect("light tenant dispatched");
    assert!(
        last_light < (HEAVY_N + LIGHT_N) * 2 / 3,
        "light tenant starved: its last task dispatched at position {last_light} of {}",
        HEAVY_N + LIGHT_N
    );
    assert_eq!(dfk.tenant_inflight(heavy), 0);
    assert_eq!(dfk.tenant_inflight(light), 0);
    dfk.shutdown();
}
