//! Executor choice: load snapshots, the scheduler call, and the cap and
//! quota checks that decide between dispatching and parking.

use super::tenancy::TenantState;
use super::DataFlowKernel;
use crate::datamap::DataRef;
use crate::registry::RegisteredApp;
use crate::scheduler::ExecutorSnapshot;
use std::sync::atomic::Ordering;

impl DataFlowKernel {
    /// The configured executor index an app is pinned to, if any.
    pub(super) fn pinned_index(&self, app: &RegisteredApp) -> Option<usize> {
        app.options.executor.as_ref().map(|label| {
            *self
                .label_index
                .get(label)
                .expect("validated at registration")
        })
    }

    /// Current per-executor load and capacity, in configuration order.
    /// `tenant_outstanding` starts zeroed; tenant-aware callers fill it
    /// per task (`fill_tenant_outstanding`).
    pub(super) fn executor_snapshots(&self) -> impl Iterator<Item = ExecutorSnapshot> + '_ {
        self.executors
            .iter()
            .enumerate()
            .map(|(index, e)| ExecutorSnapshot {
                index,
                outstanding: self.inflight[index].load(Ordering::Relaxed),
                capacity: e.capacity(),
                tenant_outstanding: 0,
                resident_bytes: 0,
                transfer_cost: 0.0,
                draining: e.scaling().is_some_and(|s| s.draining_blocks() > 0),
            })
    }

    /// [`Self::executor_snapshots`], collected.
    pub(super) fn snapshot_executors(&self) -> Vec<ExecutorSnapshot> {
        self.executor_snapshots().collect()
    }

    /// Stamp the routing task's tenant's per-executor in-flight counts
    /// onto the snapshots the scheduler is about to see.
    fn fill_tenant_outstanding(snapshots: &mut [ExecutorSnapshot], tenant: &TenantState) {
        for s in snapshots.iter_mut() {
            s.tenant_outstanding = tenant.per_exec[s.index].load(Ordering::Relaxed);
        }
    }

    /// Stamp the routing task's data-locality view onto the snapshots:
    /// how many declared input bytes each executor already holds, and
    /// what moving the rest there would cost. Always overwrites both
    /// fields — snapshots persist across a batch's tasks, so a stale
    /// value from the previous task would corrupt the next decision (in
    /// particular, the zero-input JSQ fallback relies on every
    /// `transfer_cost` being exactly zero).
    fn fill_data_locality(&self, snapshots: &mut [ExecutorSnapshot], inputs: &[DataRef]) {
        if inputs.is_empty() {
            for s in snapshots.iter_mut() {
                s.resident_bytes = 0;
                s.transfer_cost = 0.0;
            }
            return;
        }
        let total: u64 = inputs.iter().map(|d| d.bytes).sum();
        for s in snapshots.iter_mut() {
            let resident = self.data_map.resident_bytes(inputs, s.index);
            s.resident_bytes = resident;
            s.transfer_cost = self
                .transfer_model
                .cost_secs(total.saturating_sub(resident));
        }
    }

    /// Route one ready task: honor the pin if present, otherwise ask the
    /// scheduler, offering only executors under the backpressure cap.
    /// Returns `None` when the task's tenant is over its in-flight quota
    /// or no eligible executor has capacity — the caller parks the task.
    /// On success the snapshot, the shared in-flight counter, and the
    /// tenant's counters are charged for the assignment.
    ///
    /// A `retry` is routed the same way with the cap and the quota lifted
    /// (see `route_retry`), so it is never refused.
    pub(super) fn route(
        &self,
        snapshots: &mut [ExecutorSnapshot],
        pinned: Option<usize>,
        tenant: &TenantState,
        inputs: &[DataRef],
        retry: bool,
    ) -> Option<usize> {
        if !retry
            && tenant
                .max_inflight
                .is_some_and(|q| tenant.inflight.load(Ordering::Relaxed) >= q)
        {
            return None;
        }
        let cap = self.max_inflight.filter(|_| !retry);
        let over = |s: &ExecutorSnapshot| cap.is_some_and(|c| s.outstanding >= c);
        // Withhold draining executors only while a non-draining
        // alternative exists — a fully draining pool still takes work
        // (the drain completes when its held tasks finish, and new work
        // routed there simply extends it; better than parking forever).
        let any_draining = snapshots.iter().any(|s| s.draining);
        let all_draining = any_draining && snapshots.iter().all(|s| s.draining);
        let avoid = |s: &ExecutorSnapshot| over(s) || (s.draining && !all_draining);
        let idx = match pinned {
            Some(i) => {
                // Pins override drain avoidance: the app must run there.
                if over(&snapshots[i]) {
                    return None;
                }
                i
            }
            None if cap.is_none() && self.executors.len() == 1 => 0,
            None => {
                let seq = self.exec_seq.fetch_add(1, Ordering::Relaxed);
                Self::fill_tenant_outstanding(snapshots, tenant);
                self.fill_data_locality(snapshots, inputs);
                if snapshots.iter().any(&avoid) {
                    // Slow path: some executor is saturated or draining,
                    // so offer the scheduler only the eligible subset.
                    let candidates: Vec<ExecutorSnapshot> =
                        snapshots.iter().filter(|s| !avoid(s)).copied().collect();
                    if candidates.is_empty() {
                        return None;
                    }
                    let pos = self.scheduler.assign(&candidates, seq);
                    candidates[pos].index
                } else {
                    // Fast path (also the no-cap case): nothing is over
                    // cap or draining, so no filtered copy is needed.
                    let pos = self.scheduler.assign(snapshots, seq);
                    snapshots[pos].index
                }
            }
        };
        snapshots[idx].outstanding += 1;
        self.charge(tenant, idx, inputs);
        Some(idx)
    }

    /// Route a failed task's next attempt. Retries deliberately bypass
    /// the backpressure cap and the tenant quota — the attempt already
    /// holds graph-level resources and parking it would stall retry
    /// semantics — but unpinned retries still follow the scheduler, and
    /// still avoid draining executors when a non-draining one exists, so
    /// a saturated executor is not retried into by default.
    pub(super) fn route_retry(
        &self,
        pinned: Option<usize>,
        tenant: &TenantState,
        inputs: &[DataRef],
    ) -> usize {
        self.route(&mut self.snapshot_executors(), pinned, tenant, inputs, true)
            .expect("with no cap and no quota every route finds an executor")
    }
}
