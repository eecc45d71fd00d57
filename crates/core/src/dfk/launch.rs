//! The dispatch plane: the ready queue with its single drainer, and the
//! batch launch that memo-checks, routes, parks and submits.

use super::commit::Event;
use super::record::{exec_idx, TaskRecord};
use super::{DataFlowKernel, COLLECT_BATCH_CAP};
use crate::error::TaskError;
use crate::executor::{TaskOutcome, TaskSpec};
use crate::memo::memo_key;
use crate::scheduler::ExecutorSnapshot;
use crate::types::{TaskId, TaskState};
use bytes::Bytes;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// The drainer's working buffers: whoever holds the `dispatching` flag
/// holds these too, and they keep their capacity — up to
/// [`COLLECT_BATCH_CAP`] entries — from one drain to the next.
#[derive(Default)]
pub(super) struct LaunchScratch {
    /// The ready ids being launched; swapped with the ready queue, so
    /// depositors push into what the last drain left behind.
    batch: Vec<TaskId>,
    /// Specs to submit, per executor.
    per_exec: Vec<Vec<TaskSpec>>,
    /// The batch's load snapshot.
    snapshots: Vec<ExecutorSnapshot>,
    /// The batch's memo hits.
    memoized: Vec<Event>,
}

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
        {
            let mut scratch = self.launch_scratch.lock();
            loop {
                std::mem::swap(&mut *self.ready.lock(), &mut scratch.batch);
                if scratch.batch.is_empty() {
                    break;
                }
                self.launch_batch(&mut scratch);
            }
        }
        self.dispatching.store(false, Ordering::SeqCst);
    }

    /// Build specs for `scratch.batch`'s ready tasks, route them per the
    /// configured scheduler (parking over-cap tasks), group them per
    /// executor, and submit each group through one
    /// [`crate::executor::Executor::submit_batch`] call.
    fn launch_batch(self: &Arc<Self>, scratch: &mut LaunchScratch) {
        let mut any_parked = false;
        scratch.per_exec.resize_with(self.executors.len(), Vec::new);
        // One load snapshot per batch, updated as tasks are assigned, so
        // the scheduler sees the load its own picks create and a wide
        // batch is split rather than routed wholesale.
        scratch.snapshots.clear();
        scratch.snapshots.extend(self.executor_snapshots());

        for id in scratch.batch.drain(..) {
            let launched = {
                let mut shard = self.table.shard(id).lock();
                // No record: the task ended while it sat on the queue (a
                // walltime expiry while parked, the shutdown sweep).
                let Some(rec) = shard.get_mut(&id) else {
                    continue;
                };
                debug_assert_eq!(rec.unresolved, 0, "launch with unresolved deps");
                // A task that parked before is here because `unpark_ready`
                // took its entry off the list.
                rec.parked = false;

                if rec.args_bytes.is_none() {
                    // Taken, so the per-argument buffers go when this does.
                    let slots = std::mem::take(&mut rec.slots);
                    rec.args_bytes = Some(match &slots[..] {
                        // One argument: its buffer is the argument buffer.
                        [only] => only.ready().clone(),
                        many => {
                            let total = many.iter().map(|s| s.ready().len()).sum();
                            let mut buf = Vec::with_capacity(total);
                            many.iter().for_each(|s| buf.extend_from_slice(s.ready()));
                            Bytes::from(buf)
                        }
                    });
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
                        scratch.memoized.push(Event::Settle {
                            id,
                            state: TaskState::Memoized,
                            result: Ok(bytes),
                        });
                        None
                    }
                    None => {
                        let pinned = self.pinned_index(&rec.app);
                        let tenant = self.tenant_state(rec.tenant);
                        let snapshots = &mut scratch.snapshots;
                        match self.route(snapshots, pinned, &tenant, rec.inputs(), false) {
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
                scratch.per_exec[idx].push(spec);
            }
        }

        // Memo hits settle outside all shard locks, as one batch: firing
        // their futures resolves dependent edges, whose newly ready
        // children join the queue we are draining.
        if !scratch.memoized.is_empty() {
            self.settle(scratch.memoized.drain(..));
        }

        if any_parked {
            // Close the race with a completion that freed capacity between
            // our route() check and the park: re-offer whatever fits now.
            // (The drain loop that called us re-checks the ready queue.)
            self.unpark_ready();
        }

        for (idx, group) in scratch.per_exec.iter_mut().enumerate() {
            if !group.is_empty() {
                self.submit_group(idx, group);
            }
        }
        // Both are empty now and keep their buffers — unless a burst grew
        // one past anything a steady state needs.
        if scratch.batch.capacity() > COLLECT_BATCH_CAP {
            scratch.batch = Vec::new();
        }
        if scratch.memoized.capacity() > COLLECT_BATCH_CAP {
            scratch.memoized = Vec::new();
        }
    }

    /// Mark `rec` launched on executor `idx`, whose in-flight slots
    /// routing just charged, and build the attempt's spec. Called with the
    /// task's shard lock held.
    pub(super) fn dispatch(&self, rec: &mut TaskRecord, idx: usize) -> TaskSpec {
        rec.executor_idx = Some(exec_idx(idx));
        rec.charged = rec.executor_idx;
        rec.state = TaskState::Launched;
        rec.launched_at = Some(Instant::now());
        self.arm_walltime(rec);
        rec.spec(rec.attempt)
    }

    /// Submit one per-executor group, leaving `group` empty. A refused
    /// group comes back as lost-task outcomes for every member, through
    /// the same `settle` as an executor's own (a retry that is refused
    /// again recurses, bounded by the retry budget).
    pub(super) fn submit_group(self: &Arc<Self>, idx: usize, group: &mut Vec<TaskSpec>) {
        let executor = &self.executors[idx];
        // Who was in the group, should it be refused: on the stack for a
        // group of one, which then also keeps `group`'s buffer.
        let (one, many);
        let (outcome, manifest): (_, &[(TaskId, u32)]) = if group.len() == 1 {
            let spec = group.pop().expect("len checked");
            one = [(spec.id, spec.attempt)];
            (executor.submit(spec), &one)
        } else {
            many = group.iter().map(|s| (s.id, s.attempt)).collect::<Vec<_>>();
            (executor.submit_batch(std::mem::take(group)), &many)
        };
        if let Err(e) = outcome {
            let reason: Arc<str> = e.to_string().into();
            self.settle(manifest.iter().map(|&(id, attempt)| {
                let lost = TaskError::ExecutorLost(Arc::clone(&reason));
                Event::Outcome(TaskOutcome::new(id, attempt, Err(lost)))
            }));
        }
    }
}
