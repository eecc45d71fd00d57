//! Straggler hedging: speculative duplicates for attempts that outlive
//! their app's observed p99.

use super::commit::Event;
use super::record::{exec_idx, TaskRecord};
use super::DataFlowKernel;
use crate::error::TaskError;
use crate::executor::{TaskOutcome, TaskSpec};
use crate::monitor::MonitorEvent;
use crate::types::{TaskId, TaskState};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

impl DataFlowKernel {
    /// One hedge-watcher pass: launch speculative duplicates for launched
    /// attempts older than `multiplier ×` their app's observed p99.
    /// Returns the number of hedges launched. Public so tests can drive
    /// the watcher synchronously.
    pub fn run_hedge_once(self: &Arc<Self>) -> usize {
        let Some(hedge) = self.strategy_cfg.hedge.clone() else {
            return 0;
        };
        let now = Instant::now();
        // Pass 1: find candidates under each shard lock, no submission.
        // Only unfinished tasks have records, so this walks what is live.
        let mut candidates: Vec<(TaskId, Duration)> = Vec::new();
        for shard in &self.table.shards {
            let shard = shard.lock();
            for (&id, rec) in shard.iter() {
                if rec.state != TaskState::Launched
                    || rec.hedge_attempt.is_some()
                    || rec.charged.is_none()
                {
                    continue;
                }
                let Some(launched) = rec.launched_at else {
                    continue;
                };
                let age = now.saturating_duration_since(launched);
                if age < hedge.min_age {
                    continue;
                }
                let Some(p99) = self.stats.quantile_for(rec.app.id, 0.99, hedge.min_samples) else {
                    continue;
                };
                // Service samples are per logical item, so a fused chunk
                // is a straggler only past `multiplier × p99 × items`.
                let threshold = hedge.multiplier * p99.as_secs_f64() * rec.items as f64;
                if age.as_secs_f64() > threshold {
                    candidates.push((id, age));
                }
            }
        }
        // Pass 2: per candidate, stamp the hedge under the shard lock
        // (the record is gone if the task ended since pass 1), then
        // submit outside it.
        let mut launched = 0;
        for (id, age) in candidates {
            let stamped = {
                let mut shard = self.table.shard(id).lock();
                shard.get_mut(&id).and_then(|rec| self.stamp_hedge(rec))
            };
            let Some((spec, idx)) = stamped else {
                continue;
            };
            let attempt = spec.attempt;
            // Announced before the submit, as `Launched` is: the attempt
            // can finish (and be logged `Done`) before `submit` returns.
            self.emit(|| MonitorEvent::Hedge {
                task: id,
                attempt,
                executor: Some(self.executors[idx].label().to_string()),
                age,
                at: self.started_at.elapsed(),
            });
            match self.executors[idx].submit(spec) {
                Ok(()) => launched += 1,
                // A refused hedge is a failed one: the commit plane drops
                // the speculation and returns its slot, and the primary,
                // still in flight, resolves the task on its own.
                Err(e) => {
                    let lost = TaskError::ExecutorLost(e.to_string().into());
                    let refused = TaskOutcome::new(id, attempt, Err(lost));
                    self.settle([Event::Outcome(refused)]);
                }
            }
        }
        launched
    }

    /// Stamp a speculative attempt on a launched, unhedged record and
    /// charge its executor slot; `None` when the primary has finished (or
    /// been hedged) since the candidate scan. Called with the task's
    /// shard lock held.
    pub(super) fn stamp_hedge(&self, rec: &mut TaskRecord) -> Option<(TaskSpec, usize)> {
        if rec.state != TaskState::Launched || rec.hedge_attempt.is_some() {
            return None;
        }
        let primary_idx = usize::from(rec.charged?);
        // Prefer a different executor (least loaded); fall back to the
        // primary's when it is the only one.
        let idx = self
            .inflight
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != primary_idx)
            .min_by_key(|(_, n)| n.load(Ordering::Relaxed))
            .map_or(primary_idx, |(i, _)| i);
        let attempt = rec.next_attempt();
        rec.hedge_attempt = Some(attempt);
        rec.hedge_charged = Some(exec_idx(idx));
        self.inflight[idx].fetch_add(1, Ordering::Relaxed);
        Some((rec.spec(attempt), idx))
    }
}
