//! Load-aware task routing across executors (§4.1, §4.3).
//!
//! The paper's DataFlowKernel "brings tasks and executors together": when a
//! task's dependencies resolve it must be placed on one of the configured
//! executors. The original text picks "at random"; that is fine when all
//! executors are interchangeable, but in a multi-site configuration (§4.3)
//! one slow or saturated executor silently absorbs the same share of work
//! as a fast one. This module makes the placement decision pluggable.
//!
//! A [`Scheduler`] sees a per-executor [`ExecutorSnapshot`] (in-flight
//! load and capacity) and picks a destination for each ready task. The
//! batch dispatcher consults it task by task while updating the snapshot
//! locally, so a single wide batch is *split* across executors by policy
//! rather than routed wholesale.
//!
//! Four built-in policies, plus [`SchedulerPolicy::Custom`] for a
//! user-supplied [`Scheduler`] (select via [`SchedulerPolicy`] on the
//! config builder):
//!
//! - [`SchedulerPolicy::RandomHash`] — the paper's behavior and the
//!   default: a seeded counter-hash spreads tasks uniformly, lock-free.
//! - [`SchedulerPolicy::LeastOutstanding`] — join-shortest-queue on the
//!   dispatched-but-unfinished count; adapts to skewed executor speeds
//!   without any configuration.
//! - [`SchedulerPolicy::WeightedFair`] — tenant-aware placement for the
//!   multi-tenant kernel: spread the routing task's *own tenant* evenly
//!   (its per-executor in-flight count arrives via
//!   [`ExecutorSnapshot::tenant_outstanding`]), falling back to total
//!   queue depth on ties. Cross-tenant fairness — per-tenant
//!   `max_inflight` quotas and the weighted-deficit unparking order —
//!   lives in the kernel's admission plane (`dfk/tenancy.rs`); this policy is
//!   the placement half of the pair.
//! - [`SchedulerPolicy::DataAware`] — locality-weighted placement for
//!   data-heavy workflows: score each candidate as estimated transfer
//!   seconds for the task's non-resident declared inputs (from the
//!   kernel's `DataMap` + `TransferModel`, see [`crate::datamap`]) plus
//!   `alpha` seconds per queued task; tasks with no declared inputs fall
//!   back to join-shortest-queue.
//!
//! Placement composes with **backpressure**: the kernel can cap in-flight
//! tasks per executor (`ConfigBuilder::max_inflight_per_executor`). The
//! dispatcher only offers under-cap executors to the scheduler; when none
//! qualifies the task parks and is re-queued as completions free capacity
//! (see `crates/core/src/dfk/launch.rs`, `launch_batch`). Per-tenant quotas park
//! the same way, without blocking other tenants.

use std::sync::Arc;

/// One executor's state as seen by the scheduler at assignment time.
///
/// Snapshots are taken once per dispatch batch and updated locally as
/// tasks are assigned, so policies observe the load their own earlier
/// picks created.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorSnapshot {
    /// Position of this executor in the kernel's configuration order.
    /// The dispatcher may offer a *subset* of executors (backpressure
    /// filtering, pinning), so this need not equal the slice index.
    pub index: usize,
    /// Tasks dispatched to this executor and not yet completed.
    pub outstanding: usize,
    /// Worker slots currently provisioned (see `Executor::capacity`).
    /// Zero means unknown; policies treat it as one slot.
    pub capacity: usize,
    /// In-flight tasks of the *routing task's tenant* on this executor.
    /// Filled per task by the dispatcher; zero for single-tenant kernels
    /// and on paths that do not track tenancy (then tenant-aware policies
    /// degrade to their tie-breaker).
    pub tenant_outstanding: usize,
    /// Bytes of the *routing task's declared inputs* already resident on
    /// this executor (staged files, cached large outputs). Filled per
    /// task by the dispatcher from the kernel's `DataMap`; zero when the
    /// task declares no inputs.
    pub resident_bytes: u64,
    /// Estimated seconds to move the routing task's *non-resident* input
    /// bytes to this executor (the kernel's `TransferModel` applied to
    /// declared minus resident bytes). Zero when the task declares no
    /// inputs — which is how data-aware policies detect "nothing to
    /// weigh" and fall back to pure load balancing.
    pub transfer_cost: f64,
    /// True when the executor is being gracefully retired by the
    /// elasticity drain plane. The dispatcher withholds draining
    /// executors from the candidate set whenever any non-draining
    /// alternative exists, so policies normally never see this set; it is
    /// surfaced for custom schedulers that want to reason about it on the
    /// pinned/fallback paths where draining candidates do appear.
    pub draining: bool,
}

/// A placement policy: given candidate executors, choose one.
///
/// Implementations must be cheap — `assign` runs once per task on the
/// dispatch hot path — and stateless across calls: per-task entropy comes
/// in through `seq`, a kernel-wide counter that increments per assignment.
pub trait Scheduler: Send + Sync {
    /// Policy name, for monitoring and debug output.
    fn name(&self) -> &str;

    /// Choose among `candidates` (guaranteed non-empty): returns an index
    /// **into the slice**, not an executor index — the dispatcher maps it
    /// back through [`ExecutorSnapshot::index`].
    fn assign(&self, candidates: &[ExecutorSnapshot], seq: u64) -> usize;
}

/// Built-in policy selector, part of the kernel configuration.
#[derive(Clone, Default, Debug)]
pub enum SchedulerPolicy {
    /// Seeded uniform hash — the paper's random placement (default).
    #[default]
    RandomHash,
    /// Join-shortest-queue over in-flight counts.
    LeastOutstanding,
    /// Tenant-aware spread: each tenant's tasks join their own shortest
    /// queue (see [`WeightedFair`]).
    WeightedFair,
    /// Locality-weighted placement: minimize estimated transfer seconds
    /// plus `alpha` seconds per queued task (see [`DataAware`]).
    DataAware {
        /// Queue-depth weight in seconds per outstanding task. Use
        /// [`SchedulerPolicy::data_aware`] for the tuned default.
        alpha: f64,
    },
    /// A user-supplied policy.
    Custom(Arc<dyn Scheduler>),
}

impl SchedulerPolicy {
    /// [`SchedulerPolicy::DataAware`] with the tuned default weight:
    /// 5 ms of estimated transfer time per queued task, i.e. an executor
    /// may be one task deeper for every 5 ms of transfer it saves. Large
    /// inputs (tens of MB over a WAN) dominate and pin readers to their
    /// data; small or absent inputs leave the score to queue depth.
    pub fn data_aware() -> SchedulerPolicy {
        SchedulerPolicy::DataAware { alpha: 0.005 }
    }

    /// Materialize the policy. `seed` feeds the hashing policy so
    /// placement is reproducible for a given config seed.
    pub fn build(&self, seed: u64) -> Arc<dyn Scheduler> {
        match self {
            SchedulerPolicy::RandomHash => Arc::new(RandomHash { seed }),
            SchedulerPolicy::LeastOutstanding => Arc::new(LeastOutstanding),
            SchedulerPolicy::WeightedFair => Arc::new(WeightedFair),
            SchedulerPolicy::DataAware { alpha } => Arc::new(DataAware { alpha: *alpha }),
            SchedulerPolicy::Custom(s) => Arc::clone(s),
        }
    }
}

impl std::fmt::Debug for dyn Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// SplitMix64: the statistically solid single-u64 mixer behind
/// [`RandomHash`] (and the kernel's historical executor choice).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's placement: "an executor is picked at random" (§4.1), here
/// as a seeded counter-hash so the choice is reproducible yet lock-free.
pub struct RandomHash {
    /// Config seed; two kernels with the same seed place identically.
    pub seed: u64,
}

impl Scheduler for RandomHash {
    fn name(&self) -> &str {
        "random_hash"
    }

    fn assign(&self, candidates: &[ExecutorSnapshot], seq: u64) -> usize {
        (splitmix64(self.seed.wrapping_add(seq)) % candidates.len() as u64) as usize
    }
}

/// Join-shortest-queue: the executor with the fewest in-flight tasks.
/// Ties break toward the earlier candidate, which is stable and — because
/// the dispatcher bumps the local snapshot after every pick — still
/// spreads an idle-start batch evenly.
pub struct LeastOutstanding;

impl Scheduler for LeastOutstanding {
    fn name(&self) -> &str {
        "least_outstanding"
    }

    fn assign(&self, candidates: &[ExecutorSnapshot], _seq: u64) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.outstanding)
            .map(|(i, _)| i)
            .expect("candidates non-empty")
    }
}

/// Tenant-aware join-shortest-queue: place each task on the executor
/// where its *own tenant* has the fewest tasks in flight, breaking ties
/// by total queue depth, then by candidate order. A tenant's work
/// therefore spreads across the pool even while another tenant's backlog
/// piles onto one executor — per-executor hot spots created by one
/// workflow do not distort another workflow's placement.
///
/// This is the placement half of the multi-tenant fairness plane; the
/// admission half (per-tenant `max_inflight` quotas, weighted-deficit
/// unparking) is policy-independent and lives in the kernel. Placement
/// never changes *what* runs — only *where* — so results under
/// `WeightedFair` are observationally identical to `RandomHash`
/// (proven by `proptest_tenancy`).
pub struct WeightedFair;

impl Scheduler for WeightedFair {
    fn name(&self) -> &str {
        "weighted_fair"
    }

    fn assign(&self, candidates: &[ExecutorSnapshot], _seq: u64) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| (s.tenant_outstanding, s.outstanding))
            .map(|(i, _)| i)
            .expect("candidates non-empty")
    }
}

/// Locality-weighted join-shortest-queue: score each candidate as
/// `transfer_cost + alpha * outstanding` — estimated seconds to move the
/// task's non-resident input bytes there, plus `alpha` seconds of queue
/// penalty per in-flight task — and take the minimum. An executor
/// already holding a task's 100 MB reference input wins unless its queue
/// is `transfer_cost / alpha` tasks deeper than an empty peer, so
/// locality attracts readers to their data without ever starving load
/// balancing.
///
/// When the task declares no inputs every `transfer_cost` is zero and
/// the policy delegates to [`LeastOutstanding`] outright — not just
/// numerically equivalent but the same code path, so zero-input DAGs are
/// observationally identical under both policies (proven by
/// `proptest_locality`).
pub struct DataAware {
    /// Seconds of transfer cost one queued task is "worth".
    pub alpha: f64,
}

impl Scheduler for DataAware {
    fn name(&self) -> &str {
        "data_aware"
    }

    fn assign(&self, candidates: &[ExecutorSnapshot], seq: u64) -> usize {
        if candidates.iter().all(|s| s.transfer_cost == 0.0) {
            return LeastOutstanding.assign(candidates, seq);
        }
        candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let sa = a.transfer_cost + self.alpha * a.outstanding as f64;
                let sb = b.transfer_cost + self.alpha * b.outstanding as f64;
                sa.partial_cmp(&sb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.outstanding.cmp(&b.outstanding))
            })
            .map(|(i, _)| i)
            .expect("candidates non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snaps(loads: &[(usize, usize)]) -> Vec<ExecutorSnapshot> {
        loads
            .iter()
            .enumerate()
            .map(|(index, &(outstanding, capacity))| ExecutorSnapshot {
                index,
                outstanding,
                capacity,
                tenant_outstanding: 0,
                resident_bytes: 0,
                transfer_cost: 0.0,
                draining: false,
            })
            .collect()
    }

    #[test]
    fn random_hash_is_seed_deterministic_and_covers_all() {
        let a = RandomHash { seed: 7 };
        let b = RandomHash { seed: 7 };
        let c = snaps(&[(0, 1), (0, 1), (0, 1)]);
        let mut seen = [false; 3];
        for seq in 0..64 {
            let pick = a.assign(&c, seq);
            assert_eq!(pick, b.assign(&c, seq), "same seed, same placement");
            seen[pick] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 draws must hit all 3 executors");
    }

    #[test]
    fn least_outstanding_joins_shortest_queue() {
        let jsq = LeastOutstanding;
        assert_eq!(jsq.assign(&snaps(&[(5, 1), (2, 1), (9, 1)]), 0), 1);
        // Ties break to the earliest candidate.
        assert_eq!(jsq.assign(&snaps(&[(3, 1), (3, 1)]), 0), 0);
    }

    #[test]
    fn policy_builder_maps_names() {
        for (policy, name) in [
            (SchedulerPolicy::RandomHash, "random_hash"),
            (SchedulerPolicy::LeastOutstanding, "least_outstanding"),
            (SchedulerPolicy::WeightedFair, "weighted_fair"),
            (SchedulerPolicy::data_aware(), "data_aware"),
        ] {
            assert_eq!(policy.build(0).name(), name);
        }
    }

    #[test]
    fn data_aware_prefers_resident_data() {
        let da = DataAware { alpha: 0.005 };
        // Executor 0 holds the 80 MB input (cost 0); executor 1 would
        // have to fetch it (10 ms). Even 1 queued task on 0 is cheaper
        // than the move.
        let mut c = snaps(&[(1, 8), (0, 8)]);
        c[0].transfer_cost = 0.0;
        c[0].resident_bytes = 80_000_000;
        c[1].transfer_cost = 0.010;
        assert_eq!(da.assign(&c, 0), 0);
        // ... until the queue imbalance outweighs the transfer: at
        // alpha=5ms, 3 extra tasks (15 ms) > 10 ms of transfer.
        let mut c = snaps(&[(3, 8), (0, 8)]);
        c[0].transfer_cost = 0.0;
        c[1].transfer_cost = 0.010;
        assert_eq!(da.assign(&c, 0), 1);
    }

    #[test]
    fn data_aware_zero_inputs_matches_least_outstanding() {
        let da = DataAware { alpha: 0.005 };
        let jsq = LeastOutstanding;
        for loads in [
            vec![(5, 1), (2, 1), (9, 1)],
            vec![(3, 1), (3, 1)],
            vec![(0, 4), (0, 2), (0, 8), (0, 1)],
        ] {
            let c = snaps(&loads);
            for seq in 0..8 {
                assert_eq!(da.assign(&c, seq), jsq.assign(&c, seq));
            }
        }
    }

    #[test]
    fn data_aware_score_ties_break_on_queue_depth() {
        let da = DataAware { alpha: 0.005 };
        // Equal scores (0.010 vs 0.005 + 0.005*1): the shallower queue
        // wins so a locality tie never piles onto the busier executor.
        let mut c = snaps(&[(0, 1), (1, 1)]);
        c[0].transfer_cost = 0.010;
        c[1].transfer_cost = 0.005;
        assert_eq!(da.assign(&c, 0), 0);
    }

    #[test]
    fn weighted_fair_prefers_own_tenants_shortest_queue() {
        let wf = WeightedFair;
        // Executor 1 is globally busiest but has none of *this* tenant's
        // tasks; the tenant-aware policy still picks it.
        let mut c = snaps(&[(2, 1), (9, 1), (4, 1)]);
        c[0].tenant_outstanding = 3;
        c[1].tenant_outstanding = 0;
        c[2].tenant_outstanding = 1;
        assert_eq!(wf.assign(&c, 0), 1);
        // Tenant-count ties break on total outstanding.
        let mut c = snaps(&[(5, 1), (2, 1)]);
        c[0].tenant_outstanding = 1;
        c[1].tenant_outstanding = 1;
        assert_eq!(wf.assign(&c, 0), 1);
    }
}
