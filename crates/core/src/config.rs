//! Configuration: the separation of code and configuration (§3.5).
//!
//! "Parsl separates program logic from execution configuration, with the
//! latter described by a Python object so that developers can easily
//! introspect permissible options, validate settings, and retrieve/edit
//! configurations." The Rust rendering is one builder: `validate()` checks
//! the settings and yields the [`Config`], `build()` goes on to start a
//! [`DataFlowKernel`] from it.

use crate::datamap::TransferModel;
use crate::dfk::DataFlowKernel;
use crate::error::ParslError;
use crate::executor::Executor;
use crate::monitor::MonitorSink;
use crate::scheduler::SchedulerPolicy;
use crate::strategy::StrategyConfig;
use crate::types::TenantId;
use std::path::PathBuf;
use std::sync::Arc;

/// Fairness settings for one tenant (logical workflow) sharing the
/// kernel. Tenants not configured here run with `TenantConfig::default()`
/// — weight 1, no quota.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Relative share of the pool when tenants contend; the
    /// weighted-deficit unparking order serves the tenant with the
    /// smallest in-flight/weight ratio first. Must be at least 1.
    pub weight: u32,
    /// Cap on this tenant's tasks in flight across *all* executors;
    /// ready tasks beyond it park until the tenant's completions free
    /// quota (`None` = unbounded).
    pub max_inflight: Option<usize>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            max_inflight: None,
        }
    }
}

/// Full DataFlowKernel configuration.
pub struct Config {
    /// One or more executors; with several and no per-app hint, tasks are
    /// distributed randomly (§4.1 "multi-site execution").
    pub executors: Vec<Arc<dyn Executor>>,
    /// Default retry budget per task (0 = no retries, Parsl's default).
    pub retries: u32,
    /// DFK-wide memoization default (per-app options override).
    pub memoize: bool,
    /// Write-through checkpoint file for successful results.
    pub checkpoint_file: Option<PathBuf>,
    /// Checkpoint files from previous runs to pre-load.
    pub load_checkpoints: Vec<PathBuf>,
    /// Elasticity strategy settings.
    pub strategy: StrategyConfig,
    /// Event sink for task state transitions and worker counts.
    pub monitor: Option<Arc<dyn MonitorSink>>,
    /// Seed for the hashing schedulers (reproducible placement).
    pub seed: u64,
    /// How unpinned tasks are routed across executors (§4.1; the default
    /// reproduces the paper's random placement).
    pub scheduler: SchedulerPolicy,
    /// Per-executor in-flight cap: tasks beyond it park on the ready
    /// queue instead of dispatching (`None` = unbounded).
    pub max_inflight_per_executor: Option<usize>,
    /// Per-tenant fairness settings (weight, quota); tenants absent here
    /// run with the defaults (weight 1, no quota).
    pub tenants: Vec<(TenantId, TenantConfig)>,
    /// Cost model converting non-resident input bytes into seconds for
    /// the `DataAware` scheduler (defaults mirror the data manager's
    /// simulated WAN: 1 ms latency, 8 GB/s).
    pub transfer_model: TransferModel,
}

impl Config {
    /// Start building a config.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }
}

impl std::fmt::Debug for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Config")
            .field(
                "executors",
                &self
                    .executors
                    .iter()
                    .map(|e| e.label().to_string())
                    .collect::<Vec<_>>(),
            )
            .field("retries", &self.retries)
            .field("memoize", &self.memoize)
            .field("checkpoint_file", &self.checkpoint_file)
            .field("strategy", &self.strategy)
            .field("scheduler", &self.scheduler)
            .field("max_inflight_per_executor", &self.max_inflight_per_executor)
            .finish()
    }
}

/// Builder for [`Config`] and, through [`ConfigBuilder::build`], for the
/// kernel itself — what [`DataFlowKernel::builder`] returns. Holds the
/// config under construction, starting from the defaults.
pub struct ConfigBuilder(Config);

impl Default for ConfigBuilder {
    fn default() -> Self {
        ConfigBuilder(Config {
            executors: Vec::new(),
            retries: 0,
            memoize: false,
            checkpoint_file: None,
            load_checkpoints: Vec::new(),
            strategy: StrategyConfig::default(),
            monitor: None,
            seed: 0,
            scheduler: SchedulerPolicy::default(),
            max_inflight_per_executor: None,
            tenants: Vec::new(),
            transfer_model: TransferModel::default(),
        })
    }
}

impl ConfigBuilder {
    /// Add an executor.
    pub fn executor(self, e: impl Executor + 'static) -> Self {
        self.executor_arc(Arc::new(e))
    }

    /// Add an already-shared executor.
    pub fn executor_arc(mut self, e: Arc<dyn Executor>) -> Self {
        self.0.executors.push(e);
        self
    }

    /// Set the default retry budget.
    pub fn retries(mut self, retries: u32) -> Self {
        self.0.retries = retries;
        self
    }

    /// Enable/disable memoization by default.
    pub fn memoize(mut self, on: bool) -> Self {
        self.0.memoize = on;
        self
    }

    /// Write successful results through to this checkpoint file.
    pub fn checkpoint_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.0.checkpoint_file = Some(path.into());
        self
    }

    /// Pre-load results from a previous run's checkpoint file.
    pub fn load_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.0.load_checkpoints.push(path.into());
        self
    }

    /// Configure elasticity.
    pub fn strategy(mut self, s: StrategyConfig) -> Self {
        self.0.strategy = s;
        self
    }

    /// Attach a monitoring sink.
    pub fn monitor(mut self, sink: Arc<dyn MonitorSink>) -> Self {
        self.0.monitor = Some(sink);
        self
    }

    /// Seed the hashing schedulers (placement is reproducible per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }

    /// Select the task-routing policy (default:
    /// [`SchedulerPolicy::RandomHash`], the paper's behavior).
    pub fn scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.0.scheduler = policy;
        self
    }

    /// Cap tasks in flight per executor; ready tasks beyond the cap park
    /// until completions free capacity.
    pub fn max_inflight_per_executor(mut self, cap: usize) -> Self {
        self.0.max_inflight_per_executor = Some(cap);
        self
    }

    /// Configure one tenant's fairness settings (weight and/or quota).
    /// Unconfigured tenants run with [`TenantConfig::default`].
    pub fn tenant(mut self, id: TenantId, cfg: TenantConfig) -> Self {
        self.0.tenants.push((id, cfg));
        self
    }

    /// Set the transfer-cost model the `DataAware` scheduler uses to
    /// price moving a task's non-resident input bytes to a candidate
    /// executor (default: 1 ms latency, 8 GB/s — the data manager's
    /// simulated WAN).
    pub fn transfer_model(mut self, model: TransferModel) -> Self {
        self.0.transfer_model = model;
        self
    }

    /// Validate, start executors and service threads, and return the
    /// running kernel.
    pub fn build(self) -> Result<Arc<DataFlowKernel>, ParslError> {
        DataFlowKernel::new(self.validate()?)
    }

    /// Validate and produce the [`Config`] without starting anything.
    pub fn validate(self) -> Result<Config, ParslError> {
        let config = self.0;
        if config.executors.is_empty() {
            return Err(ParslError::Config(
                "at least one executor is required".into(),
            ));
        }
        if config.max_inflight_per_executor == Some(0) {
            return Err(ParslError::Config(
                "max_inflight_per_executor must be at least 1 \
                 (a cap of 0 could never dispatch anything)"
                    .into(),
            ));
        }
        let mut labels = std::collections::HashSet::new();
        for e in &config.executors {
            if !labels.insert(e.label().to_string()) {
                return Err(ParslError::Config(format!(
                    "duplicate executor label {:?}",
                    e.label()
                )));
            }
        }
        let mut tenant_ids = std::collections::HashSet::new();
        for (id, cfg) in &config.tenants {
            if !tenant_ids.insert(*id) {
                return Err(ParslError::Config(format!(
                    "duplicate tenant config for {id}"
                )));
            }
            if cfg.weight == 0 {
                return Err(ParslError::Config(format!(
                    "{id}: weight must be at least 1"
                )));
            }
            if cfg.max_inflight == Some(0) {
                return Err(ParslError::Config(format!(
                    "{id}: max_inflight must be at least 1 \
                     (a quota of 0 could never dispatch anything)"
                )));
            }
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ImmediateExecutor;

    #[test]
    fn builder_requires_an_executor() {
        assert!(Config::builder().validate().is_err());
    }

    #[test]
    fn duplicate_labels_rejected() {
        let r = Config::builder()
            .executor(ImmediateExecutor::with_label("x"))
            .executor(ImmediateExecutor::with_label("x"))
            .validate();
        assert!(r.is_err());
    }

    #[test]
    fn defaults() {
        let c = Config::builder()
            .executor(ImmediateExecutor::new())
            .validate()
            .unwrap();
        assert_eq!(c.retries, 0);
        assert!(!c.memoize);
        assert!(!c.strategy.enabled());
        assert!(c.checkpoint_file.is_none());
        assert!(matches!(c.scheduler, SchedulerPolicy::RandomHash));
        assert!(c.max_inflight_per_executor.is_none());
    }

    #[test]
    fn zero_inflight_cap_rejected() {
        // A cap of 0 would park every task forever; build() must refuse.
        let r = Config::builder()
            .executor(ImmediateExecutor::new())
            .max_inflight_per_executor(0)
            .validate();
        assert!(r.is_err());
    }

    #[test]
    fn tenant_configs_validated() {
        let base = || Config::builder().executor(ImmediateExecutor::new());
        // Zero weight and zero quota are both unusable.
        assert!(base()
            .tenant(
                TenantId(1),
                TenantConfig {
                    weight: 0,
                    max_inflight: None
                }
            )
            .validate()
            .is_err());
        assert!(base()
            .tenant(
                TenantId(1),
                TenantConfig {
                    weight: 1,
                    max_inflight: Some(0)
                }
            )
            .validate()
            .is_err());
        // Duplicate tenant ids are a config error.
        assert!(base()
            .tenant(TenantId(1), TenantConfig::default())
            .tenant(TenantId(1), TenantConfig::default())
            .validate()
            .is_err());
        // A valid config flows through.
        let c = base()
            .tenant(
                TenantId(2),
                TenantConfig {
                    weight: 3,
                    max_inflight: Some(8),
                },
            )
            .validate()
            .unwrap();
        assert_eq!(c.tenants.len(), 1);
        assert_eq!(c.tenants[0].0, TenantId(2));
        assert_eq!(c.tenants[0].1.weight, 3);
    }

    #[test]
    fn scheduler_and_backpressure_settings_flow_through() {
        let c = Config::builder()
            .executor(ImmediateExecutor::new())
            .scheduler(SchedulerPolicy::LeastOutstanding)
            .max_inflight_per_executor(3)
            .validate()
            .unwrap();
        assert!(matches!(c.scheduler, SchedulerPolicy::LeastOutstanding));
        assert_eq!(c.max_inflight_per_executor, Some(3));
    }

    #[test]
    fn transfer_model_flows_through() {
        let c = Config::builder()
            .executor(ImmediateExecutor::new())
            .scheduler(SchedulerPolicy::data_aware())
            .transfer_model(TransferModel {
                latency: std::time::Duration::from_millis(20),
                bandwidth: 1_000_000,
            })
            .validate()
            .unwrap();
        assert_eq!(c.transfer_model.bandwidth, 1_000_000);
        // Default mirrors the data manager's simulated WAN.
        let d = Config::builder()
            .executor(ImmediateExecutor::new())
            .validate()
            .unwrap();
        assert_eq!(d.transfer_model.bandwidth, 8_000_000_000);
    }
}
