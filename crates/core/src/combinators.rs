//! Synchronization constructs: `join_all` and `barrier`.
//!
//! The paper's future work (§7) names "constructs for delivering
//! parallelism such as maps and additional synchronization primitives such
//! as barriers"; reduce-style stages (Figure 5) also need joins wider than
//! an app's argument list. These combinators build those patterns on the
//! same dependency machinery as ordinary apps — each one is a real task in
//! the graph, so monitoring, memoization policy, and failure propagation
//! all apply. The map construct is [`crate::app::App::map`] (fusion).

use crate::app::{ArgSlot, TaskValue};
use crate::dfk::{DataFlowKernel, SubmitOptions};
use crate::error::AppError;
use crate::future::{AppFuture, FutureState};
use crate::registry::{AppId, AppOptions, RegisteredApp};
use crate::types::AppKind;
use std::any::TypeId;
use std::sync::Arc;

/// What a combinator app's body depends on, and so which calls can share
/// one registration (`DataFlowKernel::combinator_app`). The reducers of
/// `App::map_reduce` capture the caller's closure and have no key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CombinatorKey {
    /// `join_all` over `n` futures of one element type.
    Join(usize, TypeId),
    /// `barrier` over `n` futures.
    Barrier(usize),
    /// The fused-chunk twin of an app (`App::map`).
    FusedMap(AppId),
}

/// Decode a task argument buffer holding exactly `n` concatenated
/// T-encodings — the arguments of a task whose `n` slots all hold a `T`.
pub(crate) fn decode_concat<T: TaskValue>(bytes: &[u8], n: usize) -> Result<Vec<T>, AppError> {
    let mut de = wire::Deserializer::new(bytes);
    (0..n)
        .map(|_| serde::Deserialize::deserialize(&mut de))
        .collect::<Result<Vec<T>, wire::Error>>()
        .and_then(|out| match de.remaining() {
            0 => Ok(out),
            _ => Err(wire::Error::TrailingBytes),
        })
        .map_err(|e| AppError::Serialization(e.to_string()))
}

/// Wait for every future and collect the values in order:
/// `Vec<AppFuture<T>> → AppFuture<Vec<T>>`.
///
/// If any input fails, the join fails with a dependency error, like any
/// task whose parent failed.
///
/// ```
/// use parsl_core::prelude::*;
/// use parsl_core::combinators::join_all;
///
/// let dfk = DataFlowKernel::builder().executor(ImmediateExecutor::new()).build().unwrap();
/// let sq = dfk.python_app("sq", |x: u64| x * x);
/// let futs: Vec<_> = (1..=20u64).map(|i| parsl_core::call!(sq, i)).collect();
/// let all = join_all(&dfk, futs);
/// assert_eq!(all.result().unwrap().iter().sum::<u64>(), 2870);
/// dfk.shutdown();
/// ```
pub fn join_all<T: TaskValue>(
    dfk: &Arc<DataFlowKernel>,
    futures: Vec<AppFuture<T>>,
) -> AppFuture<Vec<T>> {
    let n = futures.len();
    let elem = std::any::type_name::<T>();
    let app = dfk.combinator_app(CombinatorKey::Join(n, TypeId::of::<T>()), || {
        dfk.register_erased(
            &format!("_parsl_join_{n}"),
            AppKind::Native,
            &format!("join[{elem}; {n}]"),
            // Re-encode the `n` concatenated T-encodings as a Vec<T>.
            Arc::new(move |bytes: &[u8]| {
                let out: Vec<T> = decode_concat(bytes, n)?;
                wire::to_bytes(&out).map_err(|e| AppError::Serialization(e.to_string()))
            }),
            AppOptions::default(),
        )
    });
    let parents = futures.iter().map(AppFuture::state);
    AppFuture::from_state(submit_over(dfk, app, parents, SubmitOptions::default()))
}

/// Synchronization barrier: resolves (to `()`) once every input future has
/// resolved successfully; fails if any input fails.
pub fn barrier<T: TaskValue>(
    dfk: &Arc<DataFlowKernel>,
    futures: Vec<AppFuture<T>>,
) -> AppFuture<()> {
    let n = futures.len();
    let app = dfk.combinator_app(CombinatorKey::Barrier(n), || {
        dfk.register_erased(
            &format!("_parsl_barrier_{n}"),
            AppKind::Native,
            &format!("barrier[{n}]"),
            // Inputs already resolved or we would not be running; values
            // are discarded, and `()` encodes as no bytes.
            Arc::new(|_: &[u8]| Ok(Vec::new())),
            AppOptions::default(),
        )
    });
    let parents = futures.iter().map(AppFuture::state);
    AppFuture::from_state(submit_over(dfk, app, parents, SubmitOptions::default()))
}

/// Submit `app` with one argument slot waiting on each of `parents`.
pub(crate) fn submit_over<'a>(
    dfk: &Arc<DataFlowKernel>,
    app: Arc<RegisteredApp>,
    parents: impl IntoIterator<Item = &'a Arc<FutureState>>,
    opts: SubmitOptions,
) -> Arc<FutureState> {
    let slots = parents
        .into_iter()
        .map(|st| ArgSlot::Pending(Arc::clone(st)))
        .collect();
    dfk.submit(app, slots, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn dfk() -> Arc<DataFlowKernel> {
        DataFlowKernel::builder()
            .executor(ImmediateExecutor::new())
            .build()
            .unwrap()
    }

    #[test]
    fn join_preserves_order() {
        let dfk = dfk();
        let id = dfk.python_app("id", |x: u32| x);
        let futs: Vec<_> = (0..25u32).map(|i| crate::call!(id, i)).collect();
        let all = join_all(&dfk, futs);
        assert_eq!(all.result().unwrap(), (0..25).collect::<Vec<u32>>());
        dfk.shutdown();
    }

    #[test]
    fn join_of_nothing_is_empty() {
        let dfk = dfk();
        let all: AppFuture<Vec<u32>> = join_all(&dfk, Vec::new());
        assert_eq!(all.result().unwrap(), Vec::<u32>::new());
        dfk.shutdown();
    }

    #[test]
    fn join_fails_if_any_input_fails() {
        let dfk = dfk();
        let ok = dfk.python_app("ok", |x: u32| x);
        let bad = dfk.python_app_fallible("bad", || -> Result<u32, AppError> {
            Err(AppError::msg("x"))
        });
        let futs = vec![
            crate::call!(ok, 1u32),
            crate::call!(bad),
            crate::call!(ok, 3u32),
        ];
        let all = join_all(&dfk, futs);
        assert!(matches!(
            all.result(),
            Err(ParslError::Task(TaskError::DependencyFailed { .. }))
        ));
        dfk.shutdown();
    }

    #[test]
    fn barrier_waits_for_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dfk = dfk();
        static DONE: AtomicUsize = AtomicUsize::new(0);
        DONE.store(0, Ordering::SeqCst);
        let work = dfk.python_app("work", |x: u32| {
            DONE.fetch_add(1, Ordering::SeqCst);
            x
        });
        let futs: Vec<_> = (0..10u32).map(|i| crate::call!(work, i)).collect();
        let b = barrier(&dfk, futs);
        b.result().unwrap();
        assert_eq!(DONE.load(Ordering::SeqCst), 10);
        dfk.shutdown();
    }

    #[test]
    fn map_then_join_round_trip() {
        let dfk = dfk();
        let inc = dfk.python_app("inc", |x: i64| x + 1);
        let futs: Vec<_> = (0..50i64).map(|i| crate::call!(inc, i)).collect();
        let all = join_all(&dfk, futs);
        let expect: Vec<i64> = (1..=50).collect();
        assert_eq!(all.result().unwrap(), expect);
        dfk.shutdown();
    }
}
