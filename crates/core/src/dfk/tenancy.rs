//! Admission accounting: per-tenant state, in-flight charges, and the
//! parked list with its weighted-deficit wake-up order.

use super::record::TaskRecord;
use super::DataFlowKernel;
use crate::app::{App, AppArgs, TaskValue};
use crate::datamap::DataRef;
use crate::future::AppFuture;
use crate::types::{TaskId, TenantId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-tenant in-flight accounting and fairness settings. Counters are
/// atomics behind a shared `Arc`, so the dispatcher and the collector
/// update them without serializing on one lock.
pub(super) struct TenantState {
    /// Fairness weight (config; default 1).
    weight: u32,
    /// In-flight quota across all executors (config; `None` unbounded).
    pub(super) max_inflight: Option<usize>,
    /// Attempts of this tenant dispatched and not yet resolved.
    pub(super) inflight: AtomicUsize,
    /// The same, split per executor (configuration order) — feeds
    /// `ExecutorSnapshot::tenant_outstanding`.
    pub(super) per_exec: Vec<AtomicUsize>,
}

impl DataFlowKernel {
    /// A handle that submits every call under one tenant id — the
    /// "many logical workflows over one kernel" entry point:
    ///
    /// ```
    /// use parsl_core::prelude::*;
    ///
    /// let dfk = DataFlowKernel::builder()
    ///     .executor(ImmediateExecutor::new())
    ///     .build()
    ///     .unwrap();
    /// let double = dfk.python_app("double", |x: i64| x * 2);
    /// let alice = dfk.tenant(TenantId(1));
    /// let f = alice.call(&double, (Dep::value(21i64),));
    /// assert_eq!(f.result().unwrap(), 42);
    /// dfk.shutdown();
    /// ```
    pub fn tenant(self: &Arc<Self>, id: TenantId) -> TenantHandle {
        TenantHandle {
            dfk: Arc::clone(self),
            id,
        }
    }

    /// The [`TenantState`] for `id`, created on first use from the
    /// configured settings (or the defaults). Hot paths take the shared
    /// read lock; the write lock is hit once per tenant lifetime.
    pub(super) fn tenant_state(&self, id: TenantId) -> Arc<TenantState> {
        if let Some(st) = self.tenants.read().get(&id) {
            return Arc::clone(st);
        }
        let mut map = self.tenants.write();
        Arc::clone(map.entry(id).or_insert_with(|| {
            let cfg = self.tenant_cfg.get(&id).cloned().unwrap_or_default();
            Arc::new(TenantState {
                weight: cfg.weight,
                max_inflight: cfg.max_inflight,
                inflight: AtomicUsize::new(0),
                per_exec: (0..self.executors.len())
                    .map(|_| AtomicUsize::new(0))
                    .collect(),
            })
        }))
    }

    /// Charge one dispatched attempt to executor `idx` and to its tenant
    /// — the step both routing paths end in; `dispatch` records it on the
    /// task so `release_charges` can return it.
    pub(super) fn charge(&self, tenant: &TenantState, idx: usize, inputs: &[DataRef]) {
        self.inflight[idx].fetch_add(1, Ordering::Relaxed);
        tenant.inflight.fetch_add(1, Ordering::Relaxed);
        tenant.per_exec[idx].fetch_add(1, Ordering::Relaxed);
        // Commit the placement in the data map: the non-resident inputs
        // are now in flight toward `idx` (the staging cache will hold
        // them after the first read), so later tasks in this very batch
        // already see them as resident — a fan-out converges on one
        // executor instead of paying the transfer N times. The charged
        // bytes are the kernel's bytes-moved metric.
        if !inputs.is_empty() {
            self.data_map.charge(inputs, idx);
        }
    }

    /// Return the in-flight slots a task holds: the executor slot of a
    /// speculative hedge (hedges charge only the executor counter, never
    /// tenant quotas), and with `primary` also the executor and tenant
    /// slots of the dispatched attempt. Exactly-once: each charge travels
    /// on the record and is taken here, so whichever event resolves the
    /// attempt first releases it and every later one finds nothing.
    pub(super) fn release_charges(&self, rec: &mut TaskRecord, primary: bool) {
        if let Some(idx) = rec.hedge_charged.take().map(usize::from) {
            self.inflight[idx].fetch_sub(1, Ordering::Relaxed);
        }
        if !primary {
            return;
        }
        if let Some(idx) = rec.charged.take().map(usize::from) {
            self.inflight[idx].fetch_sub(1, Ordering::Relaxed);
            let tenant = self.tenant_state(rec.tenant);
            tenant.inflight.fetch_sub(1, Ordering::Relaxed);
            tenant.per_exec[idx].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Park a ready task that backpressure refused: every eligible
    /// executor is at its cap, or the tenant is over its quota. The task
    /// stays `Pending` until completions free capacity; its walltime (if
    /// any) starts now, not at dispatch, so it can expire while parked.
    /// Called under the task's shard lock, which is what keeps
    /// `rec.parked` and the list entry in step.
    pub(super) fn park(&self, rec: &mut TaskRecord, pinned: Option<usize>) {
        self.arm_walltime(rec);
        rec.parked = true;
        self.parked.lock().push((rec.id(), pinned, rec.tenant));
    }

    /// Re-queue parked tasks whose backpressure requirement is satisfiable
    /// again, at most as many as there are free in-flight slots (and free
    /// tenant quota) — waking the whole parking lot on every completion
    /// would make each freed slot re-process (memo-check, route, re-park)
    /// every parked task.
    ///
    /// Grants follow a **weighted-deficit order** across tenants: each
    /// round wakes the oldest parked task of the eligible tenant with the
    /// smallest in-flight/weight share (shares compared by integer
    /// cross-multiplication), so freed capacity flows to the tenant
    /// furthest below its weighted fair share and a backlogged heavy
    /// tenant cannot monopolize the wakeups. FIFO order is preserved
    /// within each tenant. Returns true when any task went back on the
    /// ready queue (the caller decides whether a drain is needed).
    pub(super) fn unpark_ready(&self) -> bool {
        if self.max_inflight.is_none() && !self.has_tenant_quotas {
            return false; // nothing can ever park
        }
        let mut requeue: Vec<TaskId> = Vec::new();
        {
            let mut parked = self.parked.lock();
            if parked.is_empty() {
                return false;
            }
            // Free-slot budget per executor, decremented as tasks are
            // woken. A woken task may still re-park if a concurrent
            // dispatch takes the slot first; the budget only bounds churn.
            let mut budget: Vec<usize> = match self.max_inflight {
                Some(cap) => self
                    .inflight
                    .iter()
                    .map(|n| cap.saturating_sub(n.load(Ordering::Relaxed)))
                    .collect(),
                None => vec![usize::MAX; self.executors.len()],
            };
            // Per-tenant virtual shares: in-flight count (bumped per
            // grant so one pass stays fair) and remaining quota.
            struct Share {
                inflight: u64,
                weight: u64,
                quota: usize,
            }
            let mut shares: HashMap<TenantId, Share> = HashMap::new();
            for &(_, _, t) in parked.iter() {
                shares.entry(t).or_insert_with(|| {
                    let st = self.tenant_state(t);
                    let inflight = st.inflight.load(Ordering::Relaxed);
                    Share {
                        inflight: inflight as u64,
                        weight: u64::from(st.weight),
                        quota: st
                            .max_inflight
                            .map_or(usize::MAX, |q| q.saturating_sub(inflight)),
                    }
                });
            }
            let mut woken = vec![false; parked.len()];
            let mut considered: HashSet<TenantId> = HashSet::new();
            loop {
                // One candidate per tenant (its oldest unwoken task with
                // a satisfiable pin); among them, the smallest weighted
                // share wins the next freed slot.
                considered.clear();
                let mut best: Option<(usize, usize)> = None; // (pos, slot)
                for (pos, &(_, pin, t)) in parked.iter().enumerate() {
                    if woken[pos] || !considered.insert(t) {
                        continue;
                    }
                    let share = &shares[&t];
                    if share.quota == 0 {
                        continue;
                    }
                    let slot = match pin {
                        Some(i) => (budget[i] > 0).then_some(i),
                        None => budget.iter().position(|&b| b > 0),
                    };
                    let Some(slot) = slot else { continue };
                    let beats_best = best.is_none_or(|(bpos, _)| {
                        let b = &shares[&parked[bpos].2];
                        share.inflight * b.weight < b.inflight * share.weight
                    });
                    if beats_best {
                        best = Some((pos, slot));
                    }
                }
                let Some((pos, slot)) = best else { break };
                woken[pos] = true;
                budget[slot] -= 1;
                let share = shares.get_mut(&parked[pos].2).expect("seeded above");
                share.inflight += 1;
                share.quota -= 1;
                requeue.push(parked[pos].0);
            }
            let mut woken = woken.iter();
            parked.retain(|_| !*woken.next().expect("one flag per entry"));
        }
        if requeue.is_empty() {
            return false;
        }
        self.ready.lock().extend(requeue);
        true
    }

    /// Ready tasks currently parked by the backpressure cap or a tenant
    /// quota.
    pub fn parked_tasks(&self) -> usize {
        self.parked.lock().len()
    }

    /// Attempts of `tenant` currently dispatched and unresolved, as
    /// tracked by the dispatcher. Zero for tenants that never submitted.
    pub fn tenant_inflight(&self, tenant: TenantId) -> usize {
        self.tenants
            .read()
            .get(&tenant)
            .map_or(0, |st| st.inflight.load(Ordering::Relaxed))
    }

    /// Tenants that have submitted work, in no particular order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.read().keys().copied().collect()
    }
}

/// A submission handle bound to one tenant: every call through it is
/// stamped with that tenant's id and accounted against its quota and
/// weight. Create via [`DataFlowKernel::tenant`]; clones share the
/// identity. Apps themselves stay tenant-neutral — one registered app
/// can be called by any number of tenants.
#[derive(Clone)]
pub struct TenantHandle {
    dfk: Arc<DataFlowKernel>,
    id: TenantId,
}

impl TenantHandle {
    /// The tenant this handle submits as.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The kernel this handle submits to.
    pub fn dfk(&self) -> &Arc<DataFlowKernel> {
        &self.dfk
    }

    /// Invoke an app as this tenant (the handle-based spelling of
    /// `app.invoke().tenant(id).call(deps)`).
    pub fn call<A: AppArgs, R: TaskValue>(&self, app: &App<A, R>, deps: A::Deps) -> AppFuture<R> {
        app.invoke().tenant(self.id).call(deps)
    }

    /// This tenant's dispatched-and-unresolved attempt count.
    pub fn inflight(&self) -> usize {
        self.dfk.tenant_inflight(self.id)
    }
}

impl std::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TenantHandle({})", self.id)
    }
}
