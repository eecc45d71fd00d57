//! Small shared types: task identifiers, states, and resource requests.

use std::fmt;
use std::time::Duration;

/// Unique identifier of a task within one DataFlowKernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl TaskId {
    /// Index of the task-table shard this id maps to, for `shards` a power
    /// of two. Ids are allocated sequentially, so consecutive tasks land on
    /// consecutive shards and a wide fan-out spreads across all locks.
    pub fn shard(self, shards: usize) -> usize {
        debug_assert!(shards.is_power_of_two());
        (self.0 as usize) & (shards - 1)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task-{}", self.0)
    }
}

/// Identity of the logical workflow (tenant) a task belongs to.
///
/// One DataFlowKernel can serve many concurrent workflows sharing one
/// executor pool; the tenant id is stamped on every task at submission
/// (via [`crate::dfk::DataFlowKernel::tenant`] or
/// `app.invoke().tenant(t)`) and travels with it through routing,
/// parking, retries, executor wire frames, and monitor events. Plain
/// `App::call` submissions run under [`TenantId::DEFAULT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The ambient tenant used when no tenant is specified.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Lifecycle of a task in the dependency graph (§4.1).
///
/// ```text
/// Pending ──deps resolved──▶ Launched ──executor──▶ Running ──▶ Done
///    │                          │                      │
///    │                          └──────failure─────────┴──▶ Failed
///    │                                  (retries resubmit to Launched)
///    ├── memo/checkpoint hit ──▶ Memoized
///    └── upstream failure ─────▶ DepFail
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Waiting on dependencies.
    Pending,
    /// Dependencies met; handed to an executor.
    Launched,
    /// The executor reported the task started on a worker.
    Running,
    /// Finished successfully.
    Done,
    /// Finished unsuccessfully (after any retries).
    Failed,
    /// Result served from the memoization table or a checkpoint.
    Memoized,
    /// Never ran because a dependency failed.
    DepFail,
}

impl TaskState {
    /// True for states a task can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Done | TaskState::Failed | TaskState::Memoized | TaskState::DepFail
        )
    }

    /// True if the task produced a usable result.
    pub fn is_success(self) -> bool {
        matches!(self, TaskState::Done | TaskState::Memoized)
    }
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskState::Pending => "pending",
            TaskState::Launched => "launched",
            TaskState::Running => "running",
            TaskState::Done => "done",
            TaskState::Failed => "failed",
            TaskState::Memoized => "memoized",
            TaskState::DepFail => "dep_fail",
        };
        f.write_str(s)
    }
}

/// Per-task resource request, used for placement and accounting.
///
/// Mirrors §4.2.3: tasks may need "a fraction of a node through to multiple
/// nodes"; executors that bin-pack can consult this.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSpec {
    /// Worker slots the task occupies (1 = one worker).
    pub cores: u32,
    /// Memory hint in MB (0 = unspecified).
    pub mem_mb: u64,
    /// Kill the task if it runs longer than this.
    pub walltime: Option<Duration>,
}

impl Default for ResourceSpec {
    fn default() -> Self {
        ResourceSpec {
            cores: 1,
            mem_mb: 0,
            walltime: None,
        }
    }
}

/// What kind of app a task runs; affects the execution kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// A pure in-language function (Parsl `@python_app`).
    Native,
    /// A shell command rendered by the app body (Parsl `@bash_app`).
    Bash,
    /// An internally generated data-staging task (§4.5).
    Staging,
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AppKind::Native => "native",
            AppKind::Bash => "bash",
            AppKind::Staging => "staging",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states() {
        assert!(TaskState::Done.is_terminal());
        assert!(TaskState::Failed.is_terminal());
        assert!(TaskState::Memoized.is_terminal());
        assert!(TaskState::DepFail.is_terminal());
        assert!(!TaskState::Pending.is_terminal());
        assert!(!TaskState::Launched.is_terminal());
        assert!(!TaskState::Running.is_terminal());
    }

    #[test]
    fn success_states() {
        assert!(TaskState::Done.is_success());
        assert!(TaskState::Memoized.is_success());
        assert!(!TaskState::Failed.is_success());
        assert!(!TaskState::DepFail.is_success());
    }

    #[test]
    fn tenant_default_and_display() {
        assert_eq!(TenantId::default(), TenantId::DEFAULT);
        assert_eq!(TenantId(7).to_string(), "tenant-7");
    }

    #[test]
    fn default_resources_are_one_core() {
        let r = ResourceSpec::default();
        assert_eq!(r.cores, 1);
        assert_eq!(r.walltime, None);
    }
}
