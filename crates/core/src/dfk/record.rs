//! The task record and the sharded table that holds them.

use super::SubmitOptions;
use crate::app::ArgSlot;
use crate::datamap::{DataHints, DataRef};
use crate::executor::TaskSpec;
use crate::future::FutureState;
use crate::registry::RegisteredApp;
use crate::types::{ResourceSpec, TaskId, TaskState, TenantId};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of lock shards in the task table. A power of two so the shard of
/// a task is a mask of its id; 16 shards keep contention negligible well
/// past the thread counts a single client drives.
pub const TABLE_SHARDS: usize = 16;

/// An executor's index as a record stores it: records sit inline in the
/// table's buckets, so the three a record holds take 4 bytes each instead
/// of an `Option<usize>`'s 16. Widen with `usize::from`.
pub(super) type ExecIdx = u16;

/// Narrow an executor index for a record.
pub(super) fn exec_idx(idx: usize) -> ExecIdx {
    ExecIdx::try_from(idx).expect("a kernel runs fewer than 65,536 executors")
}

/// One task's bookkeeping in the dynamic task graph.
pub(super) struct TaskRecord {
    pub(super) app: Arc<RegisteredApp>,
    /// Argument slots; `Pending` entries flip to `Ready` as parents finish.
    pub(super) slots: Vec<ArgSlot>,
    /// Count of still-pending argument slots.
    pub(super) unresolved: usize,
    /// Terminal values are assigned only by `commit::transition`.
    pub(super) state: TaskState,
    /// Concatenated argument buffer, built at first launch.
    pub(super) args_bytes: Option<Bytes>,
    /// The primary attempt's number.
    pub(super) attempt: u32,
    /// Highest attempt number issued for this task, primary or hedge.
    last_attempt: u32,
    pub(super) retries_left: u32,
    /// Executor the task was last dispatched to (monitor labeling).
    pub(super) executor_idx: Option<ExecIdx>,
    /// Executor whose in-flight slot (and the tenant's) this task
    /// currently holds; `Some` from routing until the charge is released
    /// by `release_charges` — exactly once per dispatched attempt, on any
    /// accepted outcome or terminal commit.
    pub(super) charged: Option<ExecIdx>,
    /// Attempt number of an in-flight speculative duplicate (straggler
    /// hedge), if one was launched. Whichever of the primary and the
    /// hedge finishes first wins; the other is cancelled and its late
    /// outcome discarded by the attempt filter.
    pub(super) hedge_attempt: Option<u32>,
    /// Executor in-flight slot the hedge holds (executor counter only —
    /// hedges are accounting-invisible to tenant quotas). Released
    /// exactly once by `release_charges`.
    pub(super) hedge_charged: Option<ExecIdx>,
    /// When the current attempt was dispatched; feeds the hedge
    /// watcher's age check and the service-time fallback when an
    /// executor does not stamp `started`/`finished`.
    pub(super) launched_at: Option<Instant>,
    /// Logical workflow the task belongs to.
    pub(super) tenant: TenantId,
    /// Logical items fused into this task (1 normally; the chunk length
    /// for `app.map` fused chunks). Scales walltime budgets and hedge
    /// thresholds, divides service-time samples, and expands monitor
    /// counts back to logical items.
    pub(super) items: u32,
    /// True exactly while an entry for this task sits in the kernel's
    /// parked list, or is about to be dropped from it: set with the entry
    /// under the shard lock (`park`), cleared when `launch_batch` picks
    /// the task up again after `unpark_ready` removed the entry, or when
    /// `transition` schedules the entry's removal.
    pub(super) parked: bool,
    /// Attempt number a walltime deadline is armed for; parking and
    /// dispatch both arm, this dedups so one attempt arms at most once.
    pub(super) deadline_attempt: Option<u32>,
    pub(super) memo_key: Option<u64>,
    /// Declared data inputs/output (`Invocation::hints`); inputs steer the
    /// `DataAware` router toward executors already holding the bytes, the
    /// output is recorded in the kernel's `DataMap` on completion. Boxed,
    /// and `None` when nothing was declared: records sit inline in the
    /// table's buckets, so every byte here is paid per bucket.
    hints: Option<Box<DataHints>>,
    pub(super) future: Arc<FutureState>,
}

impl TaskRecord {
    /// A `Pending` record that has been neither routed nor launched.
    pub(super) fn new(
        app: Arc<RegisteredApp>,
        slots: Vec<ArgSlot>,
        retries_left: u32,
        opts: SubmitOptions,
        future: Arc<FutureState>,
    ) -> Self {
        TaskRecord {
            app,
            unresolved: slots
                .iter()
                .filter(|s| matches!(s, ArgSlot::Pending(_)))
                .count(),
            slots,
            state: TaskState::Pending,
            args_bytes: None,
            attempt: 0,
            last_attempt: 0,
            retries_left,
            executor_idx: None,
            charged: None,
            hedge_attempt: None,
            hedge_charged: None,
            launched_at: None,
            tenant: opts.tenant,
            items: opts.items.max(1),
            parked: false,
            deadline_attempt: None,
            memo_key: None,
            hints: (!opts.hints.inputs.is_empty() || opts.hints.output.is_some())
                .then(|| Box::new(opts.hints)),
            future,
        }
    }

    pub(super) fn id(&self) -> TaskId {
        self.future.task_id()
    }

    /// The data objects the task declared it reads.
    pub(super) fn inputs(&self) -> &[DataRef] {
        self.hints.as_deref().map_or(&[], |h| &h.inputs)
    }

    /// The data object the task declared it produces.
    pub(super) fn output(&self) -> Option<DataRef> {
        self.hints.as_deref().and_then(|h| h.output)
    }

    /// A fresh attempt number: past every one this task has used, so the
    /// late outcome of any earlier attempt — a cancelled or failed hedge
    /// included — can never pass for the new one.
    pub(super) fn next_attempt(&mut self) -> u32 {
        self.last_attempt += 1;
        self.last_attempt
    }

    /// The walltime budget of one attempt. The app's walltime is per
    /// item: a fused chunk's budget scales with its length so 1000 fused
    /// items are not held to one item's deadline.
    pub(super) fn walltime(&self) -> Option<Duration> {
        self.app.options.walltime.map(|w| w * self.items)
    }

    /// The spec an executor receives for `attempt` of this task.
    pub(super) fn spec(&self, attempt: u32) -> TaskSpec {
        TaskSpec {
            id: self.id(),
            app: Arc::clone(&self.app),
            args: self
                .args_bytes
                .clone()
                .expect("launch assembles the arguments before any attempt is dispatched"),
            resources: ResourceSpec {
                walltime: self.walltime(),
                ..ResourceSpec::default()
            },
            attempt,
            tenant: self.tenant,
            items: self.items,
        }
    }
}

/// One lock shard of the table: the records of the tasks still going on.
pub(super) type Shard = HashMap<TaskId, TaskRecord>;

/// The terminal states, in the order of [`TaskTable`]'s counters.
const TERMINAL: [TaskState; 4] = [
    TaskState::Done,
    TaskState::Failed,
    TaskState::Memoized,
    TaskState::DepFail,
];

/// The sharded task table. Ids are allocated from an atomic counter;
/// records live in the shard their id hashes to, so two tasks contend only
/// when they share a shard. A record is resident exactly while its task is
/// non-terminal: `admit` inserts it, the terminal commit retires it, and
/// what remains of a finished task is one count in `terminal`.
pub(super) struct TaskTable {
    pub(super) shards: Vec<Mutex<Shard>>,
    next_id: AtomicU64,
    /// Tasks retired in each [`TERMINAL`] state.
    terminal: [AtomicUsize; 4],
}

impl TaskTable {
    pub(super) fn new() -> Self {
        TaskTable {
            shards: (0..TABLE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_id: AtomicU64::new(0),
            terminal: Default::default(),
        }
    }

    pub(super) fn alloc_id(&self) -> TaskId {
        TaskId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// The shard holding `id`'s record.
    pub(super) fn shard(&self, id: TaskId) -> &Mutex<Shard> {
        &self.shards[id.shard(TABLE_SHARDS)]
    }

    /// Tasks ever submitted (ids are never reused, so this outlives the
    /// records themselves).
    pub(super) fn len(&self) -> usize {
        self.next_id.load(Ordering::Relaxed) as usize
    }

    /// Take the record of `id`, which just reached a terminal state, out
    /// of its locked `shard` and count that state. The caller drops the
    /// record once nothing waits on it. A shard left mostly empty gives
    /// its bucket array back, so a burst of concurrently live tasks does
    /// not pin its high-water mark for the life of the kernel.
    pub(super) fn retire(&self, shard: &mut Shard, id: TaskId) -> TaskRecord {
        let rec = shard.remove(&id).expect("a retired record is resident");
        let slot = TERMINAL
            .iter()
            .position(|&s| s == rec.state)
            .expect("only terminal records retire");
        self.terminal[slot].fetch_add(1, Ordering::Relaxed);
        if shard.capacity() > 1024 && shard.len() * 8 < shard.capacity() {
            shard.shrink_to(shard.len() * 2);
        }
        rec
    }

    /// Histogram of task states: the resident records plus the retired
    /// counts. States nobody is in are absent.
    pub(super) fn state_counts(&self) -> HashMap<TaskState, usize> {
        let retired = TERMINAL.iter().zip(&self.terminal);
        let mut counts: HashMap<TaskState, usize> = retired
            .map(|(&state, n)| (state, n.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect();
        for shard in &self.shards {
            for rec in shard.lock().values() {
                *counts.entry(rec.state).or_insert(0) += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AppOptions, AppRegistry};
    use crate::types::AppKind;

    /// A burst does not pin its high-water bucket array: a shard that
    /// held 100,000 records at once is small again when they have ended,
    /// and the histogram still knows all of them.
    #[test]
    fn an_emptied_shard_gives_its_buckets_back() {
        let app = AppRegistry::new().register(
            "t",
            AppKind::Native,
            "()",
            Arc::new(|_: &[u8]| Ok(Vec::new())),
            AppOptions::default(),
        );
        let table = TaskTable::new();
        let ids: Vec<TaskId> = (0..100_000)
            .map(|i| TaskId(i * TABLE_SHARDS as u64))
            .collect();
        let mut shard = table.shard(ids[0]).lock();
        for &id in &ids {
            let future = FutureState::new(id);
            let rec = TaskRecord::new(
                Arc::clone(&app),
                Vec::new(),
                0,
                SubmitOptions::default(),
                future,
            );
            shard.insert(id, rec);
        }
        assert!(shard.capacity() >= 100_000);
        for (n, &id) in ids.iter().enumerate() {
            shard.get_mut(&id).unwrap().state = if n % 4 == 0 {
                TaskState::Failed
            } else {
                TaskState::Done
            };
            assert_eq!(table.retire(&mut shard, id).id(), id);
        }
        assert!(shard.is_empty());
        assert!(shard.capacity() < 2_048, "capacity {}", shard.capacity());
        drop(shard);
        assert_eq!(
            table.state_counts(),
            [(TaskState::Done, 75_000), (TaskState::Failed, 25_000)].into()
        );
    }

    /// Records sit inline in the buckets, so a burst of live tasks pays
    /// for every byte of one, in every bucket the burst grew.
    #[test]
    fn a_record_stays_small() {
        let size = std::mem::size_of::<TaskRecord>();
        assert!(size <= 168, "TaskRecord is {size} bytes");
    }
}
