//! The dispatch plane: the ready queue with its single drainer, and the
//! batch launch that memo-checks, routes, parks and submits.

use super::commit::Event;
use super::record::TaskRecord;
use super::DataFlowKernel;
use crate::app::ArgSlot;
use crate::error::TaskError;
use crate::executor::{TaskOutcome, TaskSpec};
use crate::memo::memo_key;
use crate::types::{TaskId, TaskState};
use bytes::Bytes;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

impl DataFlowKernel {
    /// A task's dependencies are all met: deposit it on the ready queue and
    /// make sure a drainer is running. If another thread currently holds
    /// the dispatch slot (e.g. a completing parent fanning out to many
    /// children), the deposit simply rides along in its batch.
    pub(super) fn schedule_launch(self: &Arc<Self>, id: TaskId) {
        self.ready.lock().push(id);
        self.drain_ready();
    }

    /// Become the dispatcher if nobody is, and drain the ready queue into
    /// per-executor batches until it stays empty.
    pub(super) fn drain_ready(self: &Arc<Self>) {
        loop {
            if self.ready.lock().is_empty() {
                return;
            }
            if self
                .dispatching
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                // The current holder re-checks the queue after releasing
                // the flag, so our deposit cannot be stranded.
                return;
            }
            self.drain_holding_flag();
        }
    }

    /// Drain with the dispatch flag held; releases the flag on exit.
    pub(super) fn drain_holding_flag(self: &Arc<Self>) {
        loop {
            let batch: Vec<TaskId> = std::mem::take(&mut *self.ready.lock());
            if batch.is_empty() {
                break;
            }
            self.launch_batch(batch);
        }
        self.dispatching.store(false, Ordering::SeqCst);
    }

    /// Build specs for a batch of ready tasks, route them per the
    /// configured scheduler (parking over-cap tasks), group them per
    /// executor, and submit each group through one
    /// [`crate::executor::Executor::submit_batch`] call.
    fn launch_batch(self: &Arc<Self>, ids: Vec<TaskId>) {
        let mut memoized: Vec<Event> = Vec::new();
        let mut any_parked = false;
        let mut per_exec: Vec<Vec<TaskSpec>> = vec![Vec::new(); self.executors.len()];
        // One load snapshot per batch, updated as tasks are assigned, so
        // the scheduler sees the load its own picks create and a wide
        // batch is split rather than routed wholesale.
        let mut snapshots = self.snapshot_executors();

        for id in ids {
            let launched = {
                let mut shard = self.table.shard(id).lock();
                let Some(rec) = shard.get_mut(&id) else {
                    continue;
                };
                if rec.state.is_terminal() {
                    continue;
                }
                debug_assert_eq!(rec.unresolved, 0, "launch with unresolved deps");
                // A task that parked before is here because `unpark_ready`
                // took its entry off the list.
                rec.parked = false;

                if rec.args_bytes.is_none() {
                    let total: usize = rec
                        .slots
                        .iter()
                        .map(|s| match s {
                            ArgSlot::Ready(b) => b.len(),
                            ArgSlot::Pending(_) => 0,
                        })
                        .sum();
                    let mut buf = Vec::with_capacity(total);
                    for slot in &rec.slots {
                        match slot {
                            ArgSlot::Ready(b) => buf.extend_from_slice(b),
                            ArgSlot::Pending(_) => unreachable!("unresolved slot at launch"),
                        }
                    }
                    rec.args_bytes = Some(Bytes::from(buf));
                    rec.slots = Vec::new(); // free per-arg buffers
                }

                let hit = if self.memo.enabled_for(&rec.app) {
                    let key = memo_key(&rec.app, rec.args_bytes.as_ref().expect("just built"));
                    rec.memo_key = Some(key);
                    self.memo.lookup(key)
                } else {
                    None
                };
                match hit {
                    Some(bytes) => {
                        memoized.push(Event::Settle {
                            id,
                            state: TaskState::Memoized,
                            result: Ok(bytes),
                        });
                        None
                    }
                    None => {
                        let pinned = self.pinned_index(&rec.app);
                        let tenant = self.tenant_state(rec.tenant);
                        match self.route(&mut snapshots, pinned, &tenant, &rec.hints.inputs, false)
                        {
                            Some(idx) => {
                                let spec = self.dispatch(rec, idx);
                                Some((spec, idx, self.task_event(rec, TaskState::Launched)))
                            }
                            None => {
                                self.park(rec, pinned);
                                any_parked = true;
                                None
                            }
                        }
                    }
                }
            };
            if let Some((spec, idx, event)) = launched {
                if let Some(event) = event {
                    self.emit(|| event);
                }
                per_exec[idx].push(spec);
            }
        }

        // Memo hits settle outside all shard locks, as one batch: firing
        // their futures resolves dependent edges, whose newly ready
        // children join the queue we are draining.
        if !memoized.is_empty() {
            self.settle(memoized);
        }

        if any_parked {
            // Close the race with a completion that freed capacity between
            // our route() check and the park: re-offer whatever fits now.
            // (The drain loop that called us re-checks the ready queue.)
            self.unpark_ready();
        }

        for (idx, batch) in per_exec.into_iter().enumerate() {
            if !batch.is_empty() {
                self.submit_group(idx, batch);
            }
        }
    }

    /// Mark `rec` launched on executor `idx`, whose in-flight slots
    /// routing just charged, and build the attempt's spec. Called with the
    /// task's shard lock held.
    pub(super) fn dispatch(&self, rec: &mut TaskRecord, idx: usize) -> TaskSpec {
        rec.executor_idx = Some(idx);
        rec.charged = Some(idx);
        rec.state = TaskState::Launched;
        rec.launched_at = Some(Instant::now());
        self.arm_walltime(rec);
        rec.spec(rec.attempt)
    }

    /// Submit one per-executor group. A refused group comes back as
    /// lost-task outcomes for every member, through the same `settle` as
    /// an executor's own (a retry that is refused again recurses, bounded
    /// by the retry budget).
    pub(super) fn submit_group(self: &Arc<Self>, idx: usize, batch: Vec<TaskSpec>) {
        let executor = &self.executors[idx];
        let manifest: Vec<(TaskId, u32)> = batch.iter().map(|s| (s.id, s.attempt)).collect();
        let outcome = if batch.len() == 1 {
            let mut batch = batch;
            executor.submit(batch.pop().expect("len checked"))
        } else {
            executor.submit_batch(batch)
        };
        if let Err(e) = outcome {
            let reason: Arc<str> = e.to_string().into();
            self.settle(
                manifest
                    .into_iter()
                    .map(|(id, attempt)| {
                        let lost = TaskError::ExecutorLost(Arc::clone(&reason));
                        Event::Outcome(TaskOutcome::new(id, attempt, Err(lost)))
                    })
                    .collect(),
            );
        }
    }
}
