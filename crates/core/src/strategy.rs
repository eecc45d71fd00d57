//! The elasticity strategy engine (§3.6, §4.4).
//!
//! "Parsl implements a cloud-like elasticity model in which resource blocks
//! are provisioned/deprovisioned in response to workload pressure", driven
//! by an extensible strategy with a `parallelism` knob describing "how
//! aggressively the resources should grow and shrink in response to waiting
//! tasks".
//!
//! Three planes, all selected through [`StrategyMode`] on the config:
//!
//! - [`SimpleStrategy`] is the paper's reactive threshold controller: target
//!   `ceil(outstanding × parallelism)` worker slots, convert to blocks,
//!   clamp to `[min_blocks, max_blocks]`.
//! - [`PredictiveStrategy`] is a queue-model controller: Little's law
//!   (`L = λW`) turns the arrival-rate EWMA and the observed service-time
//!   median into a worker demand, a hysteresis band suppresses flapping,
//!   and scale-in is expressed as [`ScalingDecision::Drain`] so victim
//!   blocks finish their held tasks before release instead of being
//!   cancelled under running work.
//! - [`StrategyMode::Custom`] plugs any user [`Strategy`] in via config
//!   alone — no kernel edits.
//!
//! Every strategy sees a [`LoadSignal`] — outstanding/running depth, the
//! arrival-rate EWMA, observed service-time quantiles, and the parked
//! backlog — and answers with a [`ScalingDecision`]. The strategy loop in
//! the DataFlowKernel invokes [`Strategy::decide`] once per executor every
//! `interval`.

use crate::executor::BlockScaling;
use std::sync::Arc;
use std::time::Duration;

/// The load context a [`Strategy`] decides from — one executor's view,
/// assembled by the kernel's strategy loop each tick.
#[derive(Debug, Clone, Copy)]
pub struct LoadSignal {
    /// Position of the executor in the kernel's configuration order.
    pub executor: usize,
    /// Tasks charged to this executor and not yet terminal (dispatched or
    /// queued inside it).
    pub outstanding: usize,
    /// Tasks the executor itself still reports in flight (its own
    /// submit-to-outcome window; a subset of `outstanding` timing-wise).
    pub running: usize,
    /// Kernel-wide task arrival rate, tasks/second, as an exponentially
    /// weighted moving average over strategy ticks.
    pub arrival_rate: f64,
    /// Observed median service time across recently completed tasks, when
    /// enough samples exist.
    pub service_p50: Option<Duration>,
    /// Observed 99th-percentile service time, when enough samples exist.
    pub service_p99: Option<Duration>,
    /// Tasks parked by backpressure/quotas, kernel-wide: demand that has
    /// arrived but is not yet charged to any executor.
    pub parked: usize,
}

impl Default for LoadSignal {
    fn default() -> Self {
        LoadSignal {
            executor: 0,
            outstanding: 0,
            running: 0,
            arrival_rate: 0.0,
            service_p50: None,
            service_p99: None,
            parked: 0,
        }
    }
}

impl LoadSignal {
    /// A signal carrying only a queue depth — the legacy shape, convenient
    /// for tests and for strategies that ignore the richer fields.
    pub fn outstanding(outstanding: usize) -> Self {
        LoadSignal {
            outstanding,
            ..Default::default()
        }
    }
}

/// What the strategy decided for one executor on one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingDecision {
    /// Capacity matches the target.
    Hold,
    /// Request `blocks` more blocks.
    Out {
        /// Blocks to add.
        blocks: usize,
    },
    /// Release `blocks` blocks immediately. Running tasks on the victims
    /// are cancelled and retried — the paper's behavior, kept for
    /// [`SimpleStrategy`] compatibility.
    In {
        /// Blocks to remove.
        blocks: usize,
    },
    /// Gracefully retire `blocks` blocks: the kernel stops routing to
    /// them, their held tasks finish, then the resources are released.
    /// No task is ever cancelled by a drain.
    Drain {
        /// Blocks to retire.
        blocks: usize,
    },
}

/// Pluggable strategy: given load, choose a scaling action.
///
/// "Parsl provides an extensible strategy interface by which users can
/// implement their own elasticity logic." Plug one in with
/// [`StrategyConfig::custom`]; the kernel needs no edits.
pub trait Strategy: Send + Sync {
    /// Strategy name, for monitoring and debug output.
    fn name(&self) -> &str {
        "custom"
    }

    /// Decide for one executor from its current [`LoadSignal`].
    fn decide(&self, signal: &LoadSignal, scaling: &dyn BlockScaling) -> ScalingDecision;
}

/// Which controller drives elasticity, part of [`StrategyConfig`].
/// Mirrors [`crate::scheduler::SchedulerPolicy`]: built-ins are data,
/// arbitrary logic plugs in through `Custom`.
#[derive(Clone, Default)]
pub enum StrategyMode {
    /// No scaling; the kernel never touches block pools (default).
    #[default]
    Off,
    /// The reactive threshold controller ([`SimpleStrategy`]).
    Simple {
        /// Workers targeted per outstanding task, in `(0, 1]` typically.
        /// 1.0 = one worker slot per waiting task (most aggressive).
        parallelism: f64,
    },
    /// The Little's-law queue-model controller ([`PredictiveStrategy`]).
    Predictive(PredictiveConfig),
    /// A user-supplied strategy.
    Custom(Arc<dyn Strategy>),
}

impl StrategyMode {
    /// Materialize the strategy, or `None` for [`StrategyMode::Off`].
    pub fn build(&self) -> Option<Arc<dyn Strategy>> {
        match self {
            StrategyMode::Off => None,
            StrategyMode::Simple { parallelism } => {
                Some(Arc::new(SimpleStrategy::new(*parallelism)))
            }
            StrategyMode::Predictive(cfg) => Some(Arc::new(PredictiveStrategy::new(cfg.clone()))),
            StrategyMode::Custom(s) => Some(Arc::clone(s)),
        }
    }
}

impl std::fmt::Debug for StrategyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyMode::Off => f.write_str("Off"),
            StrategyMode::Simple { parallelism } => {
                write!(f, "Simple {{ parallelism: {parallelism} }}")
            }
            StrategyMode::Predictive(cfg) => write!(f, "Predictive({cfg:?})"),
            StrategyMode::Custom(s) => write!(f, "Custom({})", s.name()),
        }
    }
}

/// Straggler-hedging knobs, part of [`StrategyConfig`]. When set, the
/// kernel watches launched tasks and submits a speculative duplicate
/// attempt for any task running longer than `multiplier × observed p99`
/// of its app's service time; the first terminal result wins, the loser
/// is cancelled and filtered by attempt stamping.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Hedge once a task's age exceeds this multiple of the app's p99.
    pub multiplier: f64,
    /// Never hedge before this many completed samples exist for the app
    /// (a p99 over 3 points is noise).
    pub min_samples: usize,
    /// Absolute floor on task age before hedging, whatever the p99 says.
    pub min_age: Duration,
    /// How often the hedge watcher scans in-flight tasks.
    pub check_interval: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            multiplier: 3.0,
            min_samples: 20,
            min_age: Duration::from_millis(50),
            check_interval: Duration::from_millis(25),
        }
    }
}

/// Strategy configuration, part of [`crate::config::Config`].
///
/// Build one with the mode constructors and chain the knobs:
///
/// ```
/// use parsl_core::strategy::{PredictiveConfig, StrategyConfig};
/// use std::time::Duration;
///
/// let cfg = StrategyConfig::predictive(PredictiveConfig::default())
///     .interval(Duration::from_millis(100));
/// assert!(cfg.enabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StrategyConfig {
    /// Which controller runs (off by default).
    pub mode: StrategyMode,
    /// Evaluation period of the strategy loop.
    pub interval: Duration,
    /// Straggler hedging; `None` disables it.
    pub hedge: Option<HedgeConfig>,
}

impl StrategyConfig {
    /// Default evaluation period when none is set explicitly.
    pub const DEFAULT_INTERVAL: Duration = Duration::from_secs(5);

    fn with_mode(mode: StrategyMode) -> Self {
        StrategyConfig {
            mode,
            interval: Self::DEFAULT_INTERVAL,
            hedge: None,
        }
    }

    /// No scaling (the default).
    pub fn off() -> Self {
        Self::with_mode(StrategyMode::Off)
    }

    /// The reactive threshold controller with the given aggressiveness.
    pub fn simple(parallelism: f64) -> Self {
        Self::with_mode(StrategyMode::Simple { parallelism })
    }

    /// The Little's-law queue-model controller.
    pub fn predictive(cfg: PredictiveConfig) -> Self {
        Self::with_mode(StrategyMode::Predictive(cfg))
    }

    /// A user-supplied strategy, pluggable via config alone.
    pub fn custom(strategy: Arc<dyn Strategy>) -> Self {
        Self::with_mode(StrategyMode::Custom(strategy))
    }

    /// Set the evaluation period.
    pub fn interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Enable straggler hedging.
    pub fn hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Whether any controller is active.
    pub fn enabled(&self) -> bool {
        !matches!(self.mode, StrategyMode::Off)
    }
}

/// The default target-tracking strategy described in the module docs.
#[derive(Debug, Clone)]
pub struct SimpleStrategy {
    /// See [`StrategyMode::Simple`].
    pub parallelism: f64,
}

impl SimpleStrategy {
    /// Strategy with the given aggressiveness.
    pub fn new(parallelism: f64) -> Self {
        assert!(parallelism > 0.0, "parallelism must be positive");
        SimpleStrategy { parallelism }
    }

    /// Target block count for a load level.
    pub fn target_blocks(&self, outstanding: usize, scaling: &dyn BlockScaling) -> usize {
        let wpb = scaling.workers_per_block().max(1);
        let target_workers = (outstanding as f64 * self.parallelism).ceil() as usize;
        let blocks = target_workers.div_ceil(wpb);
        blocks.clamp(scaling.min_blocks(), scaling.max_blocks())
    }
}

impl Strategy for SimpleStrategy {
    fn name(&self) -> &str {
        "simple"
    }

    fn decide(&self, signal: &LoadSignal, scaling: &dyn BlockScaling) -> ScalingDecision {
        let target = self.target_blocks(signal.outstanding, scaling);
        let current = scaling.block_count();
        use std::cmp::Ordering::*;
        match target.cmp(&current) {
            Equal => ScalingDecision::Hold,
            Greater => ScalingDecision::Out {
                blocks: target - current,
            },
            Less => ScalingDecision::In {
                blocks: current - target,
            },
        }
    }
}

/// Tuning for [`PredictiveStrategy`].
#[derive(Debug, Clone)]
pub struct PredictiveConfig {
    /// Target worker utilization ρ in `(0, 1]`: provisioned slots are
    /// sized so sustained load keeps them this busy, leaving `1 - ρ`
    /// headroom against burst variance.
    pub target_utilization: f64,
    /// Hysteresis band width: scale-in only triggers once current
    /// capacity exceeds `demand × (1 + hysteresis)` blocks, so the pool
    /// does not flap across a block boundary.
    pub hysteresis: f64,
    /// Service-time prior used until the monitor has real samples
    /// (calibrated workloads in `simcluster/src/model.rs` run ~1 task/s/worker).
    pub default_service: Duration,
    /// When true (default), scale-in is expressed as
    /// [`ScalingDecision::Drain`] — graceful retirement. When false it
    /// falls back to the abrupt [`ScalingDecision::In`] path.
    pub drain: bool,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig {
            target_utilization: 0.75,
            hysteresis: 0.25,
            default_service: Duration::from_secs(1),
            drain: true,
        }
    }
}

/// Little's-law predictive controller.
///
/// Steady-state concurrency demand is `L = λW`: the arrival-rate EWMA
/// times the observed median service time. Dividing by the target
/// utilization ρ converts that to provisioned slots with headroom, and any
/// backlog beyond the steady-state level (`outstanding + parked − λW`)
/// adds one slot per excess task so an already-arrived burst clears at
/// full parallelism rather than at the arrival rate:
///
/// ```text
/// demand = λ·W / ρ  +  max(outstanding + parked − λ·W, 0)
/// ```
///
/// The demand converts to blocks and a hysteresis band suppresses
/// flapping: below the band scale out to meet it, above the band retire
/// the excess — by graceful [`ScalingDecision::Drain`] — inside it hold.
#[derive(Debug, Clone)]
pub struct PredictiveStrategy {
    /// Tuning knobs.
    pub cfg: PredictiveConfig,
}

impl PredictiveStrategy {
    /// Strategy with the given tuning; validates the utilization target.
    pub fn new(cfg: PredictiveConfig) -> Self {
        assert!(
            cfg.target_utilization > 0.0 && cfg.target_utilization <= 1.0,
            "target_utilization must be in (0, 1]"
        );
        assert!(cfg.hysteresis >= 0.0, "hysteresis must be non-negative");
        PredictiveStrategy { cfg }
    }

    /// Worker-slot demand for a load signal (the formula above).
    pub fn target_workers(&self, signal: &LoadSignal) -> f64 {
        let service = signal
            .service_p50
            .unwrap_or(self.cfg.default_service)
            .as_secs_f64();
        let littles = signal.arrival_rate * service;
        let backlog = (signal.outstanding + signal.parked) as f64 - littles;
        littles / self.cfg.target_utilization + backlog.max(0.0)
    }

    /// Demand converted to blocks, clamped to the pool window.
    pub fn target_blocks(&self, signal: &LoadSignal, scaling: &dyn BlockScaling) -> usize {
        let wpb = scaling.workers_per_block().max(1);
        let workers = self.target_workers(signal).ceil() as usize;
        workers
            .div_ceil(wpb)
            .clamp(scaling.min_blocks(), scaling.max_blocks())
    }
}

impl Strategy for PredictiveStrategy {
    fn name(&self) -> &str {
        "predictive"
    }

    fn decide(&self, signal: &LoadSignal, scaling: &dyn BlockScaling) -> ScalingDecision {
        let wpb = scaling.workers_per_block().max(1);
        let demand = self.target_workers(signal);
        let floor = (demand.ceil() as usize)
            .div_ceil(wpb)
            .clamp(scaling.min_blocks(), scaling.max_blocks());
        let ceiling = ((demand * (1.0 + self.cfg.hysteresis)).ceil() as usize)
            .div_ceil(wpb)
            .clamp(scaling.min_blocks(), scaling.max_blocks())
            .max(floor);
        let current = scaling.block_count();
        if current < floor {
            ScalingDecision::Out {
                blocks: floor - current,
            }
        } else if current > ceiling {
            let blocks = current - ceiling;
            if self.cfg.drain {
                ScalingDecision::Drain { blocks }
            } else {
                ScalingDecision::In { blocks }
            }
        } else {
            ScalingDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct FakeScaling {
        blocks: AtomicUsize,
        draining: AtomicUsize,
        wpb: usize,
        min: usize,
        max: usize,
    }

    impl FakeScaling {
        fn new(blocks: usize, wpb: usize, min: usize, max: usize) -> Self {
            FakeScaling {
                blocks: AtomicUsize::new(blocks),
                draining: AtomicUsize::new(0),
                wpb,
                min,
                max,
            }
        }
    }

    impl BlockScaling for FakeScaling {
        fn block_count(&self) -> usize {
            self.blocks.load(Ordering::SeqCst)
        }
        fn workers_per_block(&self) -> usize {
            self.wpb
        }
        fn scale_out(&self, n: usize) -> usize {
            self.blocks.fetch_add(n, Ordering::SeqCst);
            n
        }
        fn scale_in(&self, n: usize) -> usize {
            self.blocks.fetch_sub(n, Ordering::SeqCst);
            n
        }
        fn drain(&self, n: usize) -> usize {
            self.draining.fetch_add(n, Ordering::SeqCst);
            self.blocks.fetch_sub(n, Ordering::SeqCst);
            n
        }
        fn draining_blocks(&self) -> usize {
            self.draining.load(Ordering::SeqCst)
        }
        fn min_blocks(&self) -> usize {
            self.min
        }
        fn max_blocks(&self) -> usize {
            self.max
        }
    }

    #[test]
    fn scales_out_under_load() {
        let s = SimpleStrategy::new(1.0);
        let sc = FakeScaling::new(1, 5, 0, 10);
        // 20 outstanding tasks / 5 workers per block => 4 blocks.
        assert_eq!(
            s.decide(&LoadSignal::outstanding(20), &sc),
            ScalingDecision::Out { blocks: 3 }
        );
    }

    #[test]
    fn scales_in_when_idle() {
        let s = SimpleStrategy::new(1.0);
        let sc = FakeScaling::new(4, 5, 1, 10);
        // 1 outstanding task => 1 block (min respected).
        assert_eq!(
            s.decide(&LoadSignal::outstanding(1), &sc),
            ScalingDecision::In { blocks: 3 }
        );
        // Completely idle => min_blocks.
        assert_eq!(
            s.decide(&LoadSignal::outstanding(0), &sc),
            ScalingDecision::In { blocks: 3 }
        );
    }

    #[test]
    fn holds_at_target() {
        let s = SimpleStrategy::new(1.0);
        let sc = FakeScaling::new(4, 5, 0, 10);
        assert_eq!(
            s.decide(&LoadSignal::outstanding(20), &sc),
            ScalingDecision::Hold
        );
    }

    #[test]
    fn clamps_to_max() {
        let s = SimpleStrategy::new(1.0);
        let sc = FakeScaling::new(2, 5, 0, 3);
        assert_eq!(
            s.decide(&LoadSignal::outstanding(1000), &sc),
            ScalingDecision::Out { blocks: 1 }
        );
    }

    #[test]
    fn parallelism_scales_aggressiveness() {
        let half = SimpleStrategy::new(0.5);
        let sc = FakeScaling::new(0, 5, 0, 100);
        // 20 tasks × 0.5 = 10 workers => 2 blocks.
        assert_eq!(half.target_blocks(20, &sc), 2);
        let full = SimpleStrategy::new(1.0);
        assert_eq!(full.target_blocks(20, &sc), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parallelism_rejected() {
        let _ = SimpleStrategy::new(0.0);
    }

    #[test]
    fn holds_pinned_at_max_under_unbounded_load() {
        // Already at the ceiling: any extra load must not scale out.
        let s = SimpleStrategy::new(1.0);
        let sc = FakeScaling::new(3, 5, 0, 3);
        assert_eq!(
            s.decide(&LoadSignal::outstanding(usize::MAX / 8), &sc),
            ScalingDecision::Hold
        );
        assert_eq!(s.target_blocks(usize::MAX / 8, &sc), 3);
    }

    #[test]
    fn holds_pinned_at_min_when_idle() {
        // Already at the floor: zero load must not scale in below it.
        let s = SimpleStrategy::new(1.0);
        let sc = FakeScaling::new(2, 5, 2, 10);
        assert_eq!(
            s.decide(&LoadSignal::outstanding(0), &sc),
            ScalingDecision::Hold
        );
        assert_eq!(s.target_blocks(0, &sc), 2);
    }

    #[test]
    fn exact_block_boundary_does_not_overshoot() {
        let s = SimpleStrategy::new(1.0);
        let sc = FakeScaling::new(2, 5, 0, 10);
        // Exactly 2 blocks' worth of work: hold.
        assert_eq!(
            s.decide(&LoadSignal::outstanding(10), &sc),
            ScalingDecision::Hold
        );
        // One task past the boundary tips exactly one block out.
        assert_eq!(
            s.decide(&LoadSignal::outstanding(11), &sc),
            ScalingDecision::Out { blocks: 1 }
        );
        // One under stays within 2 blocks: hold (9 → ceil(9/5) = 2).
        assert_eq!(
            s.decide(&LoadSignal::outstanding(9), &sc),
            ScalingDecision::Hold
        );
    }

    #[test]
    fn min_equals_max_freezes_the_pool() {
        // A degenerate [n, n] window can never move.
        let s = SimpleStrategy::new(1.0);
        let sc = FakeScaling::new(4, 5, 4, 4);
        assert_eq!(
            s.decide(&LoadSignal::outstanding(0), &sc),
            ScalingDecision::Hold
        );
        assert_eq!(
            s.decide(&LoadSignal::outstanding(10_000), &sc),
            ScalingDecision::Hold
        );
    }

    #[test]
    fn zero_workers_per_block_treated_as_one() {
        // Misconfigured provider reporting 0 slots per block must not
        // divide by zero; it degrades to one slot per block.
        let s = SimpleStrategy::new(1.0);
        let sc = FakeScaling::new(0, 0, 0, 8);
        assert_eq!(s.target_blocks(5, &sc), 5);
        assert_eq!(
            s.decide(&LoadSignal::outstanding(5), &sc),
            ScalingDecision::Out { blocks: 5 }
        );
    }

    // -- StrategyMode / StrategyConfig ------------------------------------

    #[test]
    fn mode_builder_materializes_each_controller() {
        assert!(StrategyMode::Off.build().is_none());
        assert_eq!(
            StrategyMode::Simple { parallelism: 1.0 }
                .build()
                .unwrap()
                .name(),
            "simple"
        );
        assert_eq!(
            StrategyMode::Predictive(PredictiveConfig::default())
                .build()
                .unwrap()
                .name(),
            "predictive"
        );
        struct Never;
        impl Strategy for Never {
            fn name(&self) -> &str {
                "never"
            }
            fn decide(&self, _: &LoadSignal, _: &dyn BlockScaling) -> ScalingDecision {
                ScalingDecision::Hold
            }
        }
        let custom = StrategyConfig::custom(Arc::new(Never));
        assert_eq!(custom.mode.build().unwrap().name(), "never");
        assert!(custom.enabled());
    }

    #[test]
    fn config_defaults_are_off() {
        let cfg = StrategyConfig::default();
        assert!(!cfg.enabled());
        assert!(cfg.hedge.is_none());
        assert_eq!(cfg.interval, Duration::ZERO);
        // The constructors set the conventional interval.
        assert_eq!(
            StrategyConfig::off().interval,
            StrategyConfig::DEFAULT_INTERVAL
        );
    }

    #[test]
    fn config_builder_chains() {
        let cfg = StrategyConfig::simple(0.5)
            .interval(Duration::from_millis(100))
            .hedge(HedgeConfig::default());
        assert!(cfg.enabled());
        assert_eq!(cfg.interval, Duration::from_millis(100));
        assert!(cfg.hedge.is_some());
        assert!(matches!(cfg.mode, StrategyMode::Simple { parallelism } if parallelism == 0.5));
    }

    // -- PredictiveStrategy ------------------------------------------------

    /// Signal for a steady flow: λ tasks/s at a given service time.
    fn steady(rate: f64, service_ms: u64, outstanding: usize) -> LoadSignal {
        LoadSignal {
            arrival_rate: rate,
            service_p50: Some(Duration::from_millis(service_ms)),
            service_p99: Some(Duration::from_millis(service_ms * 2)),
            outstanding,
            ..Default::default()
        }
    }

    #[test]
    fn predictive_littles_law_sizes_steady_state() {
        let p = PredictiveStrategy::new(PredictiveConfig {
            target_utilization: 1.0,
            hysteresis: 0.0,
            ..Default::default()
        });
        // λ=10/s × W=1s = 10 workers; outstanding matches steady state so
        // no backlog term.
        let sig = steady(10.0, 1000, 10);
        assert_eq!(p.target_workers(&sig).round() as usize, 10);
        let sc = FakeScaling::new(1, 5, 0, 10);
        assert_eq!(p.decide(&sig, &sc), ScalingDecision::Out { blocks: 1 });
    }

    #[test]
    fn predictive_headroom_divides_by_utilization() {
        let p = PredictiveStrategy::new(PredictiveConfig {
            target_utilization: 0.5,
            hysteresis: 0.0,
            ..Default::default()
        });
        // Same steady flow, ρ=0.5 => twice the slots.
        let sig = steady(10.0, 1000, 10);
        assert_eq!(p.target_workers(&sig).round() as usize, 20);
    }

    #[test]
    fn predictive_backlog_adds_full_parallelism() {
        let p = PredictiveStrategy::new(PredictiveConfig {
            target_utilization: 1.0,
            hysteresis: 0.0,
            ..Default::default()
        });
        // A one-shot burst: arrivals have stopped (λ≈0) but 40 tasks wait.
        // Demand degrades to outstanding, like SimpleStrategy(1.0).
        let sig = LoadSignal {
            outstanding: 40,
            service_p50: Some(Duration::from_secs(1)),
            ..Default::default()
        };
        assert_eq!(p.target_workers(&sig).round() as usize, 40);
        let sc = FakeScaling::new(2, 5, 0, 10);
        assert_eq!(p.decide(&sig, &sc), ScalingDecision::Out { blocks: 6 });
    }

    #[test]
    fn predictive_counts_parked_demand() {
        let p = PredictiveStrategy::new(PredictiveConfig {
            target_utilization: 1.0,
            hysteresis: 0.0,
            ..Default::default()
        });
        // Parked tasks are arrived-but-unrouted demand: they must attract
        // capacity even though no executor reports them outstanding.
        let sig = LoadSignal {
            parked: 15,
            ..Default::default()
        };
        assert_eq!(p.target_workers(&sig).round() as usize, 15);
    }

    #[test]
    fn predictive_drains_excess_gracefully() {
        let p = PredictiveStrategy::new(PredictiveConfig {
            target_utilization: 1.0,
            hysteresis: 0.0,
            ..Default::default()
        });
        let sc = FakeScaling::new(4, 5, 0, 10);
        // Load collapsed to 3 tasks => 1 block; 3 excess blocks drain.
        assert_eq!(
            p.decide(&LoadSignal::outstanding(3), &sc),
            ScalingDecision::Drain { blocks: 3 }
        );
        // With drain disabled the legacy abrupt path is used.
        let abrupt = PredictiveStrategy::new(PredictiveConfig {
            target_utilization: 1.0,
            hysteresis: 0.0,
            drain: false,
            ..Default::default()
        });
        assert_eq!(
            abrupt.decide(&LoadSignal::outstanding(3), &sc),
            ScalingDecision::In { blocks: 3 }
        );
    }

    #[test]
    fn predictive_hysteresis_suppresses_flapping() {
        let p = PredictiveStrategy::new(PredictiveConfig {
            target_utilization: 1.0,
            hysteresis: 0.5,
            ..Default::default()
        });
        // Demand = 8 workers = 2 blocks; band ceiling = ceil(12/5) = 3
        // blocks. 3 provisioned blocks sit inside the band: hold, no flap.
        let sig = LoadSignal {
            outstanding: 8,
            service_p50: Some(Duration::from_secs(1)),
            ..Default::default()
        };
        let sc = FakeScaling::new(3, 5, 0, 10);
        assert_eq!(p.decide(&sig, &sc), ScalingDecision::Hold);
        // A fourth block exceeds even the widened band: drain exactly the
        // excess above the ceiling.
        let sc = FakeScaling::new(4, 5, 0, 10);
        assert_eq!(p.decide(&sig, &sc), ScalingDecision::Drain { blocks: 1 });
    }

    #[test]
    fn predictive_respects_pool_window() {
        let p = PredictiveStrategy::new(PredictiveConfig {
            target_utilization: 1.0,
            hysteresis: 0.0,
            ..Default::default()
        });
        // Idle but floored at 2 blocks: hold.
        let sc = FakeScaling::new(2, 5, 2, 10);
        assert_eq!(
            p.decide(&LoadSignal::outstanding(0), &sc),
            ScalingDecision::Hold
        );
        // Saturated but capped at 3 blocks: out only to the cap.
        let sc = FakeScaling::new(1, 5, 0, 3);
        assert_eq!(
            p.decide(&LoadSignal::outstanding(10_000), &sc),
            ScalingDecision::Out { blocks: 2 }
        );
    }

    #[test]
    fn predictive_uses_default_service_without_samples() {
        let p = PredictiveStrategy::new(PredictiveConfig {
            target_utilization: 1.0,
            hysteresis: 0.0,
            default_service: Duration::from_secs(2),
            drain: true,
        });
        // No observed quantiles yet: λ=5/s × prior 2s = 10 workers.
        let sig = LoadSignal {
            arrival_rate: 5.0,
            outstanding: 10,
            ..Default::default()
        };
        assert_eq!(p.target_workers(&sig).round() as usize, 10);
    }

    #[test]
    #[should_panic(expected = "target_utilization")]
    fn predictive_rejects_bad_utilization() {
        let _ = PredictiveStrategy::new(PredictiveConfig {
            target_utilization: 0.0,
            ..Default::default()
        });
    }

    #[test]
    fn drain_decision_uses_drain_path_on_fake_pool() {
        // The FakeScaling drain() bookkeeping: a Drain decision routed
        // through BlockScaling::drain retires blocks and records them.
        let sc = FakeScaling::new(4, 5, 0, 10);
        assert_eq!(sc.drain(2), 2);
        assert_eq!(sc.block_count(), 2);
        assert_eq!(sc.draining_blocks(), 2);
    }
}
