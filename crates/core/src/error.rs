//! Error taxonomy: app-level, task-level, and API-level failures.

use crate::types::TaskId;
use std::fmt;
use std::sync::Arc;

wire::codec! {
    /// A failure raised *by the app body itself* — the Rust analogue of a
    /// Python exception inside a `@python_app` / `@bash_app` function.
    ///
    /// Wire-encodable so executors can ship it back over the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum AppError {
        /// The app returned an application-defined error.
        Failure(String),
        /// The app body panicked; the panic was caught by the execution kernel.
        Panic(String),
        /// A bash app's command exited nonzero (Parsl treats nonzero return
        /// codes as task failure).
        BashExit {
            /// The command's exit code, or -1 if killed by a signal.
            code: i32,
            /// The rendered command line.
            command: String,
        },
        /// The bash command could not be spawned at all.
        BashSpawn(String),
        /// Arguments or results failed to (de)serialize.
        Serialization(String),
    }
}

impl AppError {
    /// Convenience constructor for application-defined failures.
    pub fn msg(m: impl Into<String>) -> Self {
        AppError::Failure(m.into())
    }
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Failure(m) => write!(f, "app failed: {m}"),
            AppError::Panic(m) => write!(f, "app panicked: {m}"),
            AppError::BashExit { code, command } => {
                write!(f, "bash app exited with code {code}: {command}")
            }
            AppError::BashSpawn(m) => write!(f, "bash app could not start: {m}"),
            AppError::Serialization(m) => write!(f, "serialization error: {m}"),
        }
    }
}

impl std::error::Error for AppError {}

/// Why a task did not produce a result. This is what an [`crate::AppFuture`]
/// reports after retries are exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The app body failed on its final attempt.
    App(AppError),
    /// A task this one depends on failed, so this task never ran. Parsl
    /// wraps the upstream failure; we record the upstream task and reason.
    DependencyFailed {
        /// The dependency that failed.
        failed_task: TaskId,
        /// Rendered description of the failure at the root of the
        /// cascade, shared by every task it took down.
        reason: Arc<str>,
    },
    /// The executor lost the worker/manager running the task (heartbeat
    /// expiry, killed node) and retries were exhausted or disabled.
    ExecutorLost(Arc<str>),
    /// The task exceeded its configured walltime.
    WalltimeExceeded,
    /// The DataFlowKernel was shut down before the task could run.
    Shutdown,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::App(e) => write!(f, "{e}"),
            TaskError::DependencyFailed {
                failed_task,
                reason,
            } => {
                write!(f, "dependency {failed_task} failed: {reason}")
            }
            TaskError::ExecutorLost(m) => write!(f, "executor lost task: {m}"),
            TaskError::WalltimeExceeded => write!(f, "task walltime exceeded"),
            TaskError::Shutdown => write!(f, "DataFlowKernel shut down"),
        }
    }
}

impl std::error::Error for TaskError {}

impl From<AppError> for TaskError {
    fn from(e: AppError) -> Self {
        TaskError::App(e)
    }
}

/// Errors surfaced by the public API (`result()`, configuration, I/O).
#[derive(Debug)]
pub enum ParslError {
    /// The task failed; see the inner error.
    Task(TaskError),
    /// The task result bytes could not be decoded into the requested type.
    Decode(wire::Error),
    /// Configuration problem (no executors, unknown label, bad options).
    Config(String),
    /// Checkpoint file I/O failed.
    Checkpoint(std::io::Error),
    /// A blocking wait timed out.
    Timeout,
}

impl fmt::Display for ParslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParslError::Task(e) => write!(f, "task failed: {e}"),
            ParslError::Decode(e) => write!(f, "result decode failed: {e}"),
            ParslError::Config(m) => write!(f, "configuration error: {m}"),
            ParslError::Checkpoint(e) => write!(f, "checkpoint I/O failed: {e}"),
            ParslError::Timeout => write!(f, "wait timed out"),
        }
    }
}

impl std::error::Error for ParslError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParslError::Task(e) => Some(e),
            ParslError::Decode(e) => Some(e),
            ParslError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TaskError> for ParslError {
    fn from(e: TaskError) -> Self {
        ParslError::Task(e)
    }
}

impl From<wire::Error> for ParslError {
    fn from(e: wire::Error) -> Self {
        ParslError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = AppError::BashExit {
            code: 2,
            command: "grep x y".into(),
        };
        assert!(e.to_string().contains("code 2"));
        let t = TaskError::DependencyFailed {
            failed_task: TaskId(3),
            reason: "boom".into(),
        };
        assert!(t.to_string().contains("task-3"));
        let p = ParslError::Task(t);
        assert!(p.to_string().contains("boom"));
    }

    #[test]
    fn conversions_compose() {
        let app = AppError::msg("bad input");
        let task: TaskError = app.into();
        let parsl: ParslError = task.into();
        assert!(matches!(parsl, ParslError::Task(TaskError::App(_))));
    }
}
