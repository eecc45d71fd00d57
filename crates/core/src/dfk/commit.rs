//! The commit plane: the one path by which a task ends.
//!
//! Everything that can end an attempt or a task — an executor outcome, a
//! walltime expiry, a refused submission, a memo hit, a failed
//! dependency, a submission that cannot run, the shutdown sweep — is an
//! [`Event`] handed to [`DataFlowKernel::settle`]. `settle` runs
//! [`DataFlowKernel::transition`] on each event's record under its shard
//! lock, which changes the record and *describes* everything else that
//! must happen in an [`Effects`] value, and then [`DataFlowKernel::apply`]
//! carries the effects out with no shard lock held. `transition` is the
//! only code that assigns a terminal [`TaskState`] or returns an
//! in-flight charge; `apply` is the only code that assigns a task's
//! future.
//!
//! A record is resident in the task table exactly while its task is
//! non-terminal: the pass that commits the terminal state takes the record
//! out of its shard in the same critical section, and drops it once the
//! futures have fired. An event for a task with no record — it ended, or
//! never existed — is absorbed unchanged.
//!
//! State × event, for a resident record ("release" returns the executor,
//! tenant and hedge slots the task holds and drops its park entry):
//!
//! | event | next state | effects |
//! |---|---|---|
//! | `Outcome`, attempt neither the primary's nor the hedge's | unchanged | none (stale) |
//! | `Outcome(Err)` of the hedge | unchanged, hedge forgotten | hedge slot released |
//! | `Outcome(Ok)` of primary or hedge | `Done` | release, cancel the other attempt, service sample, output recorded in the data map, checkpoint frame if memoizable, monitor event, fire |
//! | `Outcome(Err)` of the primary, retries left | `Launched` on a fresh attempt number | release, cancel the hedge (and the primary on a walltime expiry), fresh charge via `route_retry`, walltime armed, `Retry` monitor event, spec to resubmit |
//! | `Outcome(Err)` of the primary, no retries left | `Failed` | release, cancel the hedge (and the primary on a walltime expiry), monitor event, fire |
//! | `Settle { state, result }` | `state` (`Memoized`, `DepFail` or `Failed`) | release, monitor event, fire |

use super::record::{TaskRecord, TABLE_SHARDS};
use super::{DataFlowKernel, COLLECT_BATCH_CAP};
use crate::error::TaskError;
use crate::executor::{TaskOutcome, TaskSpec};
use crate::future::FutureState;
use crate::monitor::MonitorEvent;
use crate::registry::AppId;
use crate::types::{TaskId, TaskState};
use bytes::Bytes;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

#[cfg(test)]
mod quiescence;
#[cfg(test)]
mod tests;

/// Something that may end an attempt, or the task.
pub(super) enum Event {
    /// An attempt's result, from an executor or synthesized for it (the
    /// walltime watcher, a refused submit).
    Outcome(TaskOutcome),
    /// End the task in `state` with `result`, whatever it was doing.
    Settle {
        id: TaskId,
        state: TaskState,
        result: Result<Bytes, TaskError>,
    },
}

impl Event {
    fn task(&self) -> TaskId {
        match self {
            Event::Outcome(outcome) => outcome.id,
            Event::Settle { id, .. } => *id,
        }
    }
}

/// What one pass of transitions asks `apply` to do once the shard locks
/// are dropped.
#[derive(Default)]
pub(super) struct Effects {
    /// Futures of the tasks that ended, each with the result to assign.
    /// Its length is the live-count delta.
    fire: Vec<(Arc<FutureState>, Result<Bytes, TaskError>)>,
    /// Checkpoint frames of memoizable `Done` tasks.
    checkpoints: Vec<(u64, Bytes)>,
    /// Terminal and retry events for the monitor.
    events: Vec<MonitorEvent>,
    /// Next attempts to submit, with the executor each was routed to.
    retries: Vec<(TaskSpec, usize)>,
    /// Attempts to stop, the losers of settled hedge races and expired
    /// primaries: (executor, task, attempt).
    cancels: Vec<(usize, TaskId, u32)>,
    /// Observed per-item service times.
    samples: Vec<(AppId, Duration)>,
    /// Tasks that ended or retried while parked: their park entries go
    /// before any future fires, so nothing re-queues them.
    unparked: Vec<TaskId>,
    /// Records of the tasks that ended, out of the table already; freed
    /// after their futures fire.
    retired: Vec<TaskRecord>,
}

/// What one pass works in: the events grouped by table shard, and the
/// effects they ask for. A pass takes one from the kernel's spares (or
/// makes one) and returns it, so a steady stream of passes reuses the
/// same buffers, and so do the passes nested in or concurrent with them.
/// A pass of more than [`COLLECT_BATCH_CAP`] events does not return its
/// own, which bounds what the spares hold.
#[derive(Default)]
pub(super) struct PassScratch {
    by_shard: [Vec<Event>; TABLE_SHARDS],
    fx: Effects,
}

impl DataFlowKernel {
    /// Feed `events` through the commit plane, then whatever dependency
    /// failures they set off.
    pub(super) fn settle(self: &Arc<Self>, events: impl IntoIterator<Item = Event>) {
        self.settle_pass(events);
        self.settle_deferred();
    }

    /// Commit the dependency failures waiting on `deferred`.
    ///
    /// A failed task's dependents fail without running, and theirs after
    /// them. The edge callback that learns of a failed parent
    /// (`dependency_resolved`) runs inside `apply`'s future assignment, so
    /// settling the child from there would recurse once per level of the
    /// graph. It deposits the child's `Settle` on `deferred` instead, and
    /// one thread at a time drains that queue here — the ready queue's
    /// single-drainer pattern: a depositor that finds the flag taken
    /// leaves, because the holder re-checks the queue after releasing it.
    /// A cascade through a chain of any length therefore runs as a loop
    /// on one stack frame.
    pub(super) fn settle_deferred(self: &Arc<Self>) {
        loop {
            if self.deferred.lock().is_empty() {
                return;
            }
            if self
                .settling
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                return;
            }
            loop {
                let batch = std::mem::take(&mut *self.deferred.lock());
                if batch.is_empty() {
                    break;
                }
                self.settle_pass(batch);
            }
            self.settling.store(false, Ordering::SeqCst);
        }
    }

    /// One pass: group events by table shard, preserving arrival order
    /// within a shard so a stale duplicate behind an accepted outcome
    /// finds the record gone; take each touched shard's lock exactly once,
    /// retiring every record whose transition ended its task; apply the
    /// collected effects. No events, no pass.
    fn settle_pass(self: &Arc<Self>, events: impl IntoIterator<Item = Event>) {
        let mut events = events.into_iter().peekable();
        if events.peek().is_none() {
            return;
        }
        let mut scratch = self.pass_scratch.lock().pop().unwrap_or_default();
        let PassScratch { by_shard, fx } = &mut *scratch;
        let mut count = 0;
        for event in events {
            count += 1;
            by_shard[event.task().shard(TABLE_SHARDS)].push(event);
        }
        for (shard, group) in self.table.shards.iter().zip(by_shard) {
            if group.is_empty() {
                continue;
            }
            let mut shard = shard.lock();
            for event in group.drain(..) {
                let id = event.task();
                let Some(rec) = shard.get_mut(&id) else {
                    continue;
                };
                self.transition(rec, event, fx);
                if rec.state.is_terminal() {
                    fx.retired.push(self.table.retire(&mut shard, id));
                }
            }
        }
        self.apply(fx);
        // Buffers a burst grew past anything the collector hands over (one
        // giant frame, the shutdown sweep) are let go, not kept.
        if count <= COLLECT_BATCH_CAP {
            self.pass_scratch.lock().push(scratch);
        }
    }

    /// Advance one record by one event, under its shard lock. See the
    /// module table.
    pub(super) fn transition(&self, rec: &mut TaskRecord, event: Event, fx: &mut Effects) {
        if rec.state.is_terminal() {
            return;
        }
        let id = rec.id();
        let (state, result) = match event {
            Event::Settle { state, result, .. } => (state, result),
            Event::Outcome(outcome) => {
                let is_hedge = rec.hedge_attempt == Some(outcome.attempt);
                if !is_hedge && rec.attempt != outcome.attempt {
                    // Stale: a retry, a walltime expiry or a cancelled
                    // hedge already superseded this attempt.
                    return;
                }
                if is_hedge && outcome.result.is_err() {
                    // A failed hedge never settles the task — the primary
                    // is still in flight and resolves it on its own.
                    // Drop the speculation (a later pass may re-hedge).
                    rec.hedge_attempt = None;
                    self.release_charges(rec, false);
                    return;
                }
                // Settle the hedge race before anything else: this
                // outcome's attempt wins, the other (if in flight) is
                // cancelled and its late outcome will fail the attempt
                // filter above.
                if let Some(h) = rec.hedge_attempt.take() {
                    if is_hedge {
                        if let Some(i) = rec.charged {
                            fx.cancels.push((i.into(), id, rec.attempt));
                        }
                        // Adopt the winning attempt: the terminal record,
                        // monitor event, and future all speak for it.
                        rec.attempt = h;
                        rec.executor_idx = rec.hedge_charged.or(rec.executor_idx);
                    } else if let Some(i) = rec.hedge_charged {
                        fx.cancels.push((i.into(), id, h));
                    }
                }
                match outcome.result {
                    Ok(bytes) => {
                        // Feed the service-time observation planes:
                        // worker-stamped execution time when the
                        // executor reports it, dispatch-to-completion
                        // wall time otherwise. Recorded per logical item
                        // — a fused chunk's duration divided by its
                        // length — so the ring reflects one item's cost
                        // for sizing and hedging regardless of fusion.
                        let service = match (outcome.started, outcome.finished) {
                            (Some(s), Some(f)) if f >= s => Some(f - s),
                            _ => rec.launched_at.map(|l| l.elapsed()),
                        };
                        if let Some(d) = service {
                            fx.samples.push((rec.app.id, d / rec.items));
                        }
                        (TaskState::Done, Ok(bytes))
                    }
                    Err(e) => {
                        // An expired attempt is still running or queued
                        // somewhere: cancel it as a hedge loser is, so it
                        // does not keep a worker the retry could use.
                        if matches!(e, TaskError::WalltimeExceeded) {
                            if let Some(i) = rec.charged {
                                fx.cancels.push((i.into(), id, rec.attempt));
                            }
                        }
                        // A lost manager takes its staged files down with
                        // it: drop every residency claim for the executor
                        // so readers stop being attracted to copies that
                        // no longer exist. Coarse (the whole executor, not
                        // one manager's share) but conservatively correct
                        // — the penalty is a re-stage, not a mis-route.
                        if matches!(e, TaskError::ExecutorLost(_)) {
                            if let Some(idx) = rec.executor_idx {
                                self.data_map.forget_executor(idx.into());
                            }
                        }
                        if rec.retries_left == 0 {
                            (TaskState::Failed, Err(e))
                        } else {
                            self.release(rec, fx);
                            rec.retries_left -= 1;
                            rec.attempt = rec.next_attempt();
                            let tenant = self.tenant_state(rec.tenant);
                            let idx = self.route_retry(
                                self.pinned_index(&rec.app),
                                &tenant,
                                rec.inputs(),
                            );
                            let spec = self.dispatch(rec, idx);
                            if self.monitor.is_some() {
                                fx.events.push(MonitorEvent::Retry {
                                    task: id,
                                    attempt: spec.attempt,
                                    reason: e.to_string(),
                                    at: self.started_at.elapsed(),
                                });
                            }
                            fx.retries.push((spec, idx));
                            return;
                        }
                    }
                }
            }
        };

        debug_assert!(state.is_terminal());
        self.release(rec, fx);
        rec.state = state;
        if state == TaskState::Done {
            // A completed task's declared output now lives where it ran:
            // stage-in completions are what populate the placement
            // registry (memo hits skip this — they produced nothing
            // anywhere new).
            if let (Some(output), Some(idx)) = (rec.output(), rec.executor_idx) {
                self.data_map.record(output, idx.into());
            }
            if let (Some(key), Ok(bytes)) = (rec.memo_key, &result) {
                fx.checkpoints.push((key, bytes.clone()));
            }
        }
        fx.events.extend(self.task_event(rec, state));
        fx.fire.push((Arc::clone(&rec.future), result));
    }

    /// The event resolves whatever attempts are in flight: return their
    /// slots (a retry charges a fresh one via `route_retry`). A task that
    /// was parked when the event arrived (walltime expiry under
    /// backpressure, a failed dependency, the shutdown sweep) holds no
    /// charge, but its park entry must go, or a later unpark would
    /// re-launch a task this pass settles.
    fn release(&self, rec: &mut TaskRecord, fx: &mut Effects) {
        self.release_charges(rec, true);
        if std::mem::take(&mut rec.parked) {
            fx.unparked.push(rec.id());
        }
    }

    /// Carry out one pass's effects, no shard lock held, leaving `fx`
    /// empty with its capacity.
    fn apply(self: &Arc<Self>, fx: &mut Effects) {
        debug_assert!(
            fx.retired.len() == fx.fire.len()
                && fx
                    .retired
                    .iter()
                    .zip(&fx.fire)
                    .all(|(rec, (future, _))| rec.state.is_terminal()
                        && Arc::ptr_eq(&rec.future, future)),
            "a retired record was not terminal, or did not fire exactly once"
        );
        if !fx.unparked.is_empty() {
            self.parked
                .lock()
                .retain(|(id, _, _)| !fx.unparked.contains(id));
            fx.unparked.clear();
        }
        debug_assert!(
            {
                let parked = self.parked.lock();
                parked.is_empty() || {
                    let fired: HashSet<TaskId> = fx.fire.iter().map(|(f, _)| f.task_id()).collect();
                    !parked.iter().any(|(id, _, _)| fired.contains(id))
                }
            },
            "a park entry survived its task's terminal commit"
        );

        // Cancel the losing halves of settled hedge races and the attempts
        // walltime expired. Advisory: an executor that cannot cancel
        // simply runs the attempt to completion and its outcome is
        // discarded by the attempt filter.
        for (idx, id, attempt) in fx.cancels.drain(..) {
            self.executors[idx].cancel(id, attempt);
        }

        // Observed service times feed hedging thresholds and the
        // predictive strategy's Little's-law estimate.
        for (app, d) in fx.samples.drain(..) {
            self.stats.record(app, d);
        }

        // One writer-locked checkpoint append for the whole pass.
        if !fx.checkpoints.is_empty() {
            self.memo.record_batch(&fx.checkpoints);
            fx.checkpoints.clear();
        }

        // One live-counter update; wake wait_for_all at zero.
        let finished = fx.fire.len();
        if finished > 0 {
            let live = self.live.fetch_sub(finished, Ordering::AcqRel);
            debug_assert!(live >= finished, "more futures to fire than live tasks");
            if live == finished {
                // Last live tasks: take the lock so a waiter between its
                // atomic check and its wait cannot miss the notification.
                let _guard = self.done_lock.lock();
                self.all_done.notify_all();
            }
        }

        // One monitor call for everything the pass produced.
        if let Some(m) = &self.monitor {
            if !fx.events.is_empty() {
                m.on_batch(&fx.events);
                fx.events.clear();
            }
        }

        // Re-submit retries per executor as one batch each.
        if !fx.retries.is_empty() {
            let mut per_exec: Vec<Vec<TaskSpec>> = vec![Vec::new(); self.executors.len()];
            for (spec, idx) in fx.retries.drain(..) {
                per_exec[idx].push(spec);
            }
            for (idx, batch) in per_exec.iter_mut().enumerate() {
                if !batch.is_empty() {
                    self.submit_group(idx, batch);
                }
            }
        }

        // Assign the futures last: this fires the dependent tasks' edge
        // callbacks and wakes user threads blocked in result(). Holding
        // the dispatch flag across the cascade collects every child the
        // whole pass unblocks into one ready-queue drain — the fan-out
        // batching point.
        let gated = self
            .dispatching
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        for (future, result) in fx.fire.drain(..) {
            future.set(result);
        }
        // Whoever waited on these tasks is running again: free their
        // records now, off that path.
        fx.retired.clear();
        // The pass may have freed capacity parked tasks were waiting on:
        // a released charge, freed tenant quota, or — the subtle case — a
        // parked task that was woken into a memo hit and so never
        // consumed the slot its wakeup was granted for. Without this
        // re-offer that slot stays free while its siblings stay parked
        // forever (cheap no-op when nothing is parked).
        self.unpark_ready();
        if gated {
            self.drain_holding_flag();
        }
        self.drain_ready();
    }
}
