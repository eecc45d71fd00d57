//! Apps: the decorator layer (§3.1.1).
//!
//! Parsl turns ordinary functions into *Apps* with `@python_app` and
//! `@bash_app`; invoking an app registers an asynchronous task and
//! immediately returns a future. The Rust rendering:
//!
//! ```
//! use parsl_core::prelude::*;
//!
//! let dfk = DataFlowKernel::builder().executor(ImmediateExecutor::new()).build().unwrap();
//! // @python_app
//! let hello = dfk.python_app("hello", |name: String| format!("Hello {name}"));
//! let f = hello.call((Dep::value("World".to_string()),));
//! assert_eq!(f.result().unwrap(), "Hello World");
//! // or with the call! macro sugar:
//! let f2 = parsl_core::call!(hello, "World".to_string());
//! assert_eq!(f2.result().unwrap(), "Hello World");
//! dfk.shutdown();
//! ```
//!
//! Passing an [`crate::AppFuture`] where a value is expected creates a
//! dependency edge; the DataFlowKernel launches the task only when every
//! future argument has resolved (§3.3).

use crate::dfk::{DataFlowKernel, SubmitOptions};
use crate::error::AppError;
use crate::future::AppFuture;
use crate::registry::RegisteredApp;
use bytes::Bytes;
use std::marker::PhantomData;
use std::sync::Arc;
use wire::{Decode, Encode};

/// Values that can cross the task boundary: wire-encodable, decodable,
/// sendable, owned. The Rust analogue of "any Python object that can be
/// pickled" (§3.2); immutability is automatic because arguments are passed
/// by value through serialization. Declare your own with [`wire::codec!`].
pub trait TaskValue: Encode + Decode + Send + 'static {}
impl<T: Encode + Decode + Send + 'static> TaskValue for T {}

/// One argument position: a concrete value or a future from another app.
pub enum Dep<T> {
    /// A literal value, serialized at submission time.
    Value(T),
    /// The output of another app; creates a dependency edge.
    Future(AppFuture<T>),
}

impl<T> Dep<T> {
    /// Wrap a concrete value.
    pub fn value(v: T) -> Self {
        Dep::Value(v)
    }

    /// Wrap a future (equivalent to `Dep::from(fut)`).
    pub fn future(f: AppFuture<T>) -> Self {
        Dep::Future(f)
    }
}

impl<T> From<T> for Dep<T> {
    fn from(v: T) -> Self {
        Dep::Value(v)
    }
}

impl<T> From<AppFuture<T>> for Dep<T> {
    fn from(f: AppFuture<T>) -> Self {
        Dep::Future(f)
    }
}

impl<T> From<&AppFuture<T>> for Dep<T> {
    fn from(f: &AppFuture<T>) -> Self {
        Dep::Future(f.clone())
    }
}

/// An argument slot as the DataFlowKernel stores it: already-encoded bytes,
/// or a reference to the future that will supply them.
pub enum ArgSlot {
    /// Wire-encoded value, ready to splice into the argument buffer —
    /// shared, not copied, when it is a parent task's result.
    Ready(Bytes),
    /// Waiting on the future of this task.
    Pending(Arc<crate::future::FutureState>),
}

impl ArgSlot {
    /// The encoded value of a slot that is known to be resolved.
    pub(crate) fn ready(&self) -> &Bytes {
        match self {
            ArgSlot::Ready(b) => b,
            ArgSlot::Pending(st) => unreachable!("slot still waits on {}", st.task_id()),
        }
    }
}

impl std::fmt::Debug for ArgSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgSlot::Ready(b) => write!(f, "Ready({} bytes)", b.len()),
            ArgSlot::Pending(st) => write!(f, "Pending({})", st.task_id()),
        }
    }
}

/// Encode an argument value. It encodes into this thread's reused
/// scratch buffer: a short value is copied inline into the `Bytes`, and a
/// long one takes the buffer itself, moved in without a copy. So a short
/// argument costs no heap allocation.
fn encode_arg<T: Encode>(v: &T) -> Result<Bytes, AppError> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.clear();
        v.encode(scratch)
            .map_err(|e| AppError::Serialization(e.to_string()))?;
        Ok(if scratch.len() <= bytes::INLINE_CAP {
            Bytes::copy_from_slice(scratch)
        } else {
            Bytes::from(std::mem::take(scratch))
        })
    })
}

/// Argument tuples accepted by apps: conversion from `Dep` tuples to arg
/// slots, and worker-side decoding. Implemented for tuples of arity 0–8.
pub trait AppArgs: Sized + Send + 'static {
    /// The `(Dep<T1>, ..., Dep<Tn>)` tuple callers pass to `App::call`.
    type Deps;

    /// Encode ready values and collect future references, in position
    /// order.
    fn into_slots(deps: Self::Deps) -> Result<Vec<ArgSlot>, AppError>;

    /// Decode the concatenated argument buffer back into the typed tuple
    /// (runs in the worker's execution kernel).
    fn decode(bytes: &[u8]) -> Result<Self, AppError>;

    /// Signature string used in the app's identity hash.
    fn signature() -> String;
}

impl AppArgs for () {
    type Deps = ();

    fn into_slots(_deps: ()) -> Result<Vec<ArgSlot>, AppError> {
        Ok(Vec::new())
    }

    fn decode(bytes: &[u8]) -> Result<Self, AppError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(AppError::Serialization(
                "expected empty argument buffer".into(),
            ))
        }
    }

    fn signature() -> String {
        "()".to_string()
    }
}

macro_rules! impl_app_args {
    ($($T:ident . $idx:tt),+) => {
        impl<$($T: TaskValue),+> AppArgs for ($($T,)+) {
            type Deps = ($(Dep<$T>,)+);

            fn into_slots(deps: Self::Deps) -> Result<Vec<ArgSlot>, AppError> {
                Ok(vec![$(
                    match deps.$idx {
                        Dep::Value(v) => ArgSlot::Ready(encode_arg(&v)?),
                        Dep::Future(f) => ArgSlot::Pending(Arc::clone(f.state())),
                    }
                ),+])
            }

            fn decode(bytes: &[u8]) -> Result<Self, AppError> {
                wire::from_bytes::<($($T,)+)>(bytes)
                    .map_err(|e| AppError::Serialization(e.to_string()))
            }

            fn signature() -> String {
                let mut s = String::from("(");
                $(
                    s.push_str(std::any::type_name::<$T>());
                    s.push(',');
                )+
                s.push(')');
                s
            }
        }
    };
}

impl_app_args!(T0.0);
impl_app_args!(T0.0, T1.1);
impl_app_args!(T0.0, T1.1, T2.2);
impl_app_args!(T0.0, T1.1, T2.2, T3.3);
impl_app_args!(T0.0, T1.1, T2.2, T3.3, T4.4);
impl_app_args!(T0.0, T1.1, T2.2, T3.3, T4.4, T5.5);
impl_app_args!(T0.0, T1.1, T2.2, T3.3, T4.4, T5.5, T6.6);
impl_app_args!(T0.0, T1.1, T2.2, T3.3, T4.4, T5.5, T6.6, T7.7);

/// Adapter from ordinary closures to the tuple-argument world: a
/// `Fn(T1, T2) -> R` closure is an `AppFn<(T1, T2), R>`. This is what lets
/// app registration look like decorating a plain function, as in Parsl:
/// `dfk.python_app("add", |a: i64, b: i64| a + b)`.
pub trait AppFn<A: AppArgs, R>: Send + Sync + 'static {
    /// Apply the function to the decoded argument tuple.
    fn invoke(&self, args: A) -> R;
}

impl<F, R> AppFn<(), R> for F
where
    F: Fn() -> R + Send + Sync + 'static,
{
    fn invoke(&self, _args: ()) -> R {
        self()
    }
}

macro_rules! impl_app_fn {
    ($($T:ident . $idx:tt),+) => {
        impl<F, R, $($T: TaskValue),+> AppFn<($($T,)+), R> for F
        where
            F: Fn($($T),+) -> R + Send + Sync + 'static,
        {
            fn invoke(&self, args: ($($T,)+)) -> R {
                (self)($(args.$idx),+)
            }
        }
    };
}

impl_app_fn!(T0.0);
impl_app_fn!(T0.0, T1.1);
impl_app_fn!(T0.0, T1.1, T2.2);
impl_app_fn!(T0.0, T1.1, T2.2, T3.3);
impl_app_fn!(T0.0, T1.1, T2.2, T3.3, T4.4);
impl_app_fn!(T0.0, T1.1, T2.2, T3.3, T4.4, T5.5);
impl_app_fn!(T0.0, T1.1, T2.2, T3.3, T4.4, T5.5, T6.6);
impl_app_fn!(T0.0, T1.1, T2.2, T3.3, T4.4, T5.5, T6.6, T7.7);

/// A typed handle to a registered app, bound to its DataFlowKernel.
///
/// Cloning is cheap; clones call the same registered function.
pub struct App<A: AppArgs, R: TaskValue> {
    dfk: Arc<DataFlowKernel>,
    registered: Arc<RegisteredApp>,
    _marker: PhantomData<fn(A) -> R>,
}

impl<A: AppArgs, R: TaskValue> Clone for App<A, R> {
    fn clone(&self) -> Self {
        App {
            dfk: Arc::clone(&self.dfk),
            registered: Arc::clone(&self.registered),
            _marker: PhantomData,
        }
    }
}

impl<A: AppArgs, R: TaskValue> App<A, R> {
    pub(crate) fn new(dfk: Arc<DataFlowKernel>, registered: Arc<RegisteredApp>) -> Self {
        App {
            dfk,
            registered,
            _marker: PhantomData,
        }
    }

    /// The app's registered name.
    pub fn name(&self) -> &str {
        &self.registered.name
    }

    /// Invoke the app asynchronously. Always returns a future immediately;
    /// submission problems (e.g. argument serialization failure or a shut
    /// down kernel) surface as the future's exception, mirroring how a
    /// Parsl app invocation never raises at the call site.
    ///
    /// Shorthand for `app.invoke().call(deps)`; per-call options (tenant,
    /// data hints) hang off the [`App::invoke`] builder.
    pub fn call(&self, deps: A::Deps) -> AppFuture<R> {
        self.invoke().call(deps)
    }

    /// Start building an invocation: chain per-call options, then
    /// [`Invocation::call`] with the arguments. This is *the* invocation
    /// API — `call` is sugar for the no-option build.
    ///
    /// ```
    /// use parsl_core::prelude::*;
    ///
    /// let dfk = DataFlowKernel::builder()
    ///     .executor(ImmediateExecutor::new())
    ///     .build()
    ///     .unwrap();
    /// let double = dfk.python_app("double", |x: i64| x * 2);
    /// let f = double.invoke().tenant(TenantId(7)).call((Dep::value(21i64),));
    /// assert_eq!(f.result().unwrap(), 42);
    /// dfk.shutdown();
    /// ```
    pub fn invoke(&self) -> Invocation<'_, A, R> {
        Invocation {
            app: self,
            opts: SubmitOptions::default(),
        }
    }

    /// The underlying registration (id, options, hash).
    pub fn registered(&self) -> &Arc<RegisteredApp> {
        &self.registered
    }

    /// The kernel this app is bound to (used by the fusion plane to
    /// submit fused chunks on the app's behalf).
    pub(crate) fn dfk(&self) -> &Arc<DataFlowKernel> {
        &self.dfk
    }
}

/// A pending invocation of an [`App`]: per-call options accumulate on
/// the builder, [`Invocation::call`] submits with the arguments. Created
/// by [`App::invoke`].
///
/// ```
/// use parsl_core::prelude::*;
///
/// let dfk = DataFlowKernel::builder()
///     .executor(ImmediateExecutor::new())
///     .build()
///     .unwrap();
/// let add = dfk.python_app("add", |a: i64, b: i64| a + b);
/// let f = add
///     .invoke()
///     .tenant(TenantId(1))
///     .hints(DataHints::default())
///     .call((Dep::value(20i64), Dep::value(22i64)));
/// assert_eq!(f.result().unwrap(), 42);
/// dfk.shutdown();
/// ```
#[must_use = "an Invocation does nothing until .call(args)"]
#[derive(Debug)]
pub struct Invocation<'a, A: AppArgs, R: TaskValue> {
    app: &'a App<A, R>,
    opts: SubmitOptions,
}

impl<A: AppArgs, R: TaskValue> Invocation<'_, A, R> {
    /// Submit under a tenant id (quota and fairness accounting);
    /// [`crate::types::TenantId::DEFAULT`] when unset.
    pub fn tenant(mut self, id: crate::types::TenantId) -> Self {
        self.opts.tenant = id;
        self
    }

    /// Declare data inputs/outputs for `DataAware` routing.
    pub fn hints(mut self, hints: crate::datamap::DataHints) -> Self {
        self.opts.hints = hints;
        self
    }

    /// Submit with the given arguments. Always returns a future
    /// immediately; submission problems surface as the future's
    /// exception.
    pub fn call(self, deps: A::Deps) -> AppFuture<R> {
        let app = self.app;
        let state = match A::into_slots(deps) {
            Ok(slots) => app
                .dfk
                .submit(Arc::clone(&app.registered), slots, self.opts),
            Err(e) => app.dfk.failed_submission(e),
        };
        AppFuture::from_state(state)
    }
}

impl<A: AppArgs, R: TaskValue> std::fmt::Debug for App<A, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "App({})", self.registered.name)
    }
}

/// Sugar for calling apps: wraps each argument with `Dep::from`, so values
/// and futures mix naturally.
///
/// ```
/// use parsl_core::prelude::*;
///
/// let dfk = DataFlowKernel::builder().executor(ImmediateExecutor::new()).build().unwrap();
/// let add = dfk.python_app("add", |a: i64, b: i64| a + b);
/// let inc = dfk.python_app("inc", |x: i64| x + 1);
/// let s = parsl_core::call!(add, 1i64, 2i64);
/// let t = parsl_core::call!(inc, 41);
/// assert_eq!(s.result().unwrap(), 3);
/// assert_eq!(t.result().unwrap(), 42);
/// dfk.shutdown();
/// ```
#[macro_export]
macro_rules! call {
    ($app:expr) => {
        $app.call(())
    };
    ($app:expr, $($arg:expr),+ $(,)?) => {
        $app.call(($($crate::app::Dep::from($arg),)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_args_roundtrip() {
        let slots = <() as AppArgs>::into_slots(()).unwrap();
        assert!(slots.is_empty());
        <() as AppArgs>::decode(&[]).unwrap();
        assert!(<() as AppArgs>::decode(&[1]).is_err());
    }

    #[test]
    fn tuple_args_encode_in_order() {
        let slots =
            <(u8, String) as AppArgs>::into_slots((Dep::value(7), Dep::value("x".into()))).unwrap();
        assert_eq!(slots.len(), 2);
        let mut buf = Vec::new();
        for s in &slots {
            match s {
                ArgSlot::Ready(b) => buf.extend_from_slice(b),
                ArgSlot::Pending(_) => panic!("no futures here"),
            }
        }
        let (a, b) = <(u8, String) as AppArgs>::decode(&buf).unwrap();
        assert_eq!(a, 7);
        assert_eq!(b, "x");
    }

    #[test]
    fn signatures_distinguish_types() {
        assert_ne!(
            <(u8,) as AppArgs>::signature(),
            <(u16,) as AppArgs>::signature()
        );
        assert_eq!(
            <(u8,) as AppArgs>::signature(),
            <(u8,) as AppArgs>::signature()
        );
    }

    #[test]
    fn dep_from_value_and_future() {
        let d: Dep<u32> = 5.into();
        assert!(matches!(d, Dep::Value(5)));
        let st = crate::future::FutureState::new(crate::types::TaskId(1));
        let fut: AppFuture<u32> = AppFuture::from_state(st);
        let d: Dep<u32> = fut.clone().into();
        assert!(matches!(d, Dep::Future(_)));
        let d: Dep<u32> = (&fut).into();
        assert!(matches!(d, Dep::Future(_)));
    }
}
