//! Chunked task fusion: pool-style `map` / `map_reduce` (§5.2, Figure 5).
//!
//! The paper's scaling experiments submit millions of *micro*-tasks whose
//! bodies run for microseconds; at that scale the per-task overhead — a
//! DFK record, a scheduler decision, a wire frame, a monitor event — costs
//! orders of magnitude more than the work itself. The fusion plane
//! amortizes it: [`App::map`] slices the input into chunks and submits
//! **one fused task per chunk**. The whole argument slice travels in a
//! single frame, the worker runs the chunk as a loop inside one task
//! slot, and the per-item results come back in one result frame. DFK,
//! scheduler, hub, memoizer, and monitor all pay ~1k task costs instead
//! of 1M.
//!
//! A map keeps no heap object per element. Elements are encoded back to
//! back into one buffer, cut into chunk frames, and stay inside frames
//! from there on: the worker walks its argument frame and writes its
//! result frame in place (`wire::items`), the client keeps each landed
//! result frame as it came, and [`MapHandle::results`] decodes every
//! element straight out of those frames. Only failed elements get an
//! entry of their own.
//!
//! Everything downstream still accounts in *logical items*: a fused spec
//! carries `items = chunk length`, so arrival rates, per-item service
//! samples, hedge thresholds, walltime budgets, and monitor rollups stay
//! calibrated (see `TaskSpec::items`).
//!
//! Failure attribution survives fusion. The fused body stops at the first
//! failing element and reports how far it got ([`FusedOutput`]); the
//! client fails **only that logical item**, then resubmits a fused chunk
//! for the unprocessed remainder (split-retry). A panic in one element
//! never takes down its chunk-mates.
//!
//! ```
//! use parsl_core::prelude::*;
//!
//! let dfk = DataFlowKernel::builder()
//!     .executor(ImmediateExecutor::new())
//!     .build()
//!     .unwrap();
//! let double = dfk.python_app("double", |x: i64| x * 2);
//! let handle = double.map(0..100i64);
//! let out: Vec<i64> = handle.results().into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(out, (0..100i64).map(|x| x * 2).collect::<Vec<_>>());
//!
//! // Tree-aggregated reduction over the same fused chunks:
//! let sum = double.map_reduce(0..100i64, 0, |a, b| a + b);
//! assert_eq!(sum.result().unwrap(), (0..100i64).map(|x| x * 2).sum::<i64>());
//! dfk.shutdown();
//! ```

use crate::app::{App, ArgSlot, TaskValue};
use crate::combinators::{decode_concat, submit_over, CombinatorKey};
use crate::datamap::DataHints;
use crate::dfk::{panic_message, DataFlowKernel, SubmitOptions};
use crate::error::{AppError, ParslError, TaskError};
use crate::future::{AppFuture, FutureState};
use crate::registry::{AppId, AppOptions, ErasedAppFn, RegisteredApp};
use crate::types::{AppKind, TenantId};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;
use wire::items::{self, Items};

/// Most items the auto-sizer puts in one chunk. It bounds how much work
/// one failed chunk can strand, not a chunk's bytes: 4,096 elements of
/// 20 KB make a frame larger than `wire::MAX_FRAME_LEN` (64 MiB), so a
/// map of large elements should set [`MapOptions::chunk_size`].
pub const MAX_CHUNK: usize = 4096;

/// Per-chunk service time the auto-sizer aims for when it has observed
/// per-item service samples: long enough to amortize per-task overhead,
/// short enough that elasticity and hedging still see progress.
const TARGET_CHUNK_TIME: Duration = Duration::from_millis(100);

/// Samples required before the auto-sizer trusts the service-time ring.
const MIN_SAMPLES: usize = 20;

/// Without service samples, split the input into about this many chunks
/// (1M items → ~1k fused tasks, the headline amortization).
const FALLBACK_CHUNKS: usize = 1024;

/// Tree-reduce fan-in for [`App::map_reduce`]: each reduce task combines
/// up to this many partials, so 1k chunk partials collapse in two levels
/// instead of a 1k-wide DFK join.
pub const REDUCE_FAN_IN: usize = 32;

/// Wire result of one fused map chunk: per-item encoded results up to the
/// first failure, plus that failure if any.
///
/// The fused task itself *succeeds* at the DFK level even when an element
/// fails — item-level failure is data, not task failure, so the kernel's
/// chunk-level retry/hedge machinery stays reserved for real task loss.
/// The element that failed is the one at index `ok.len()`; elements after
/// it were never attempted (the client resubmits them as a smaller fused
/// chunk).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FusedOutput {
    /// Wire-encoded per-item results, in input order, up to (excluding)
    /// the first failing element.
    pub ok: Vec<Vec<u8>>,
    /// The failure of element `ok.len()`, if any element failed.
    pub err: Option<AppError>,
}

/// Wrap an erased app body into its fused-chunk form: take an encoded
/// `Vec<Vec<u8>>` of per-item argument encodings, apply the inner body to
/// each in order, stop at the first failure, and return the encoding of
/// a [`FusedOutput`]. Both are written and walked in place
/// ([`wire::items`]); a malformed argument frame fails before any
/// element runs.
///
/// Exposed so spawned worker processes can rebuild the body for an
/// advertised `_parsl_fmap_*` app from its `fmap[{name}; {sig}]`
/// signature, exactly like the join/barrier combinators.
pub fn fused_map_body(inner: ErasedAppFn) -> ErasedAppFn {
    Arc::new(move |bytes: &[u8]| {
        let mut args = chunk_args(bytes, "fused chunk args")?;
        let n = args.remaining();
        // `ok`'s count is `n` unless an element fails; then it is
        // rewritten once the loop knows how many ran.
        let mut out = Vec::with_capacity(bytes.len() + 8);
        wire::encode_varint(n as u64, &mut out);
        let head = out.len();
        let (mut item, mut ran, mut err) = (Vec::new(), 0, None);
        while err.is_none() && args.next_into(&mut item).map_err(serialization)? {
            // Catch per element, not per chunk: a panicking element must
            // fail only its own logical item.
            match std::panic::catch_unwind(AssertUnwindSafe(|| (inner)(&item))) {
                Ok(Ok(bytes)) => {
                    items::push(&bytes, &mut out);
                    ran += 1;
                }
                Ok(Err(e)) => err = Some(e),
                Err(p) => err = Some(AppError::Panic(panic_message(p))),
            }
        }
        if ran < n {
            out.splice(..head, items::frame(ran, &[]));
        }
        wire::to_writer(&err, &mut out).map_err(serialization)?;
        Ok(out)
    })
}

fn serialization(e: wire::Error) -> AppError {
    AppError::Serialization(e.to_string())
}

/// Check a chunk's whole argument frame, then return a cursor over it.
fn chunk_args<'a>(bytes: &'a [u8], what: &str) -> Result<Items<'a>, AppError> {
    let bad = |e: wire::Error| AppError::Serialization(format!("{what}: {e}"));
    match items::check(bytes).map_err(bad)? {
        (_, []) => Items::new(bytes).map_err(bad),
        _ => Err(bad(wire::Error::TrailingBytes)),
    }
}

/// Check a chunk's whole `FusedOutput` frame against its `n` elements:
/// one result each, or results up to a failed element and its failure.
/// Returns how many succeeded and that failure.
fn chunk_output(frame: &[u8], n: usize) -> Result<(usize, Option<AppError>), TaskError> {
    let bad =
        |e: String| TaskError::App(AppError::Serialization(format!("fused chunk result: {e}")));
    let (ran, tail) = items::check(frame).map_err(|e| bad(e.to_string()))?;
    let err: Option<AppError> = wire::from_bytes(tail).map_err(|e| bad(e.to_string()))?;
    if ran > n || (ran < n && err.is_none()) {
        return Err(bad(format!("{ran} results for {n} elements")));
    }
    Ok((ran, err))
}

/// Per-call options for [`App::map`] / [`App::map_reduce`].
#[derive(Debug, Clone, Default)]
pub struct MapOptions {
    /// Items per fused chunk. When unset, auto-sized from the inner app's
    /// observed per-item service time (targeting ~100 ms of work per
    /// chunk, clamped to `[1, 4096]`); without enough samples, the input
    /// is split into ~1k chunks.
    pub chunk_size: Option<usize>,
    /// Tenant every fused chunk is charged to (one chunk = one quota
    /// slot, however many items it fuses).
    pub tenant: TenantId,
    /// Data hints inherited by every fused chunk.
    pub hints: DataHints,
}

/// A map's results, kept per chunk: no state per element except the
/// failed ones.
struct MapInner {
    /// Elements that encoded and are not resolved yet.
    remaining: usize,
    /// Checked `FusedOutput` frames, by the input index their first
    /// result answers. In order, their results are every element in
    /// input order that is neither failed nor lost.
    landed: BTreeMap<usize, Bytes>,
    /// Input ranges whose elements failed with their chunk, by start:
    /// the range's end and the error.
    lost: BTreeMap<usize, (usize, TaskError)>,
    /// Failed elements by input index: those that would not encode, and
    /// those that failed inside a chunk.
    failed: BTreeMap<usize, TaskError>,
}

struct MapState {
    len: usize,
    cell: Mutex<MapInner>,
    cond: Condvar,
}

impl MapState {
    /// Resolve the `n` elements of the chunk over input range `span`
    /// from its outcome. When an element failed mid-chunk, returns how
    /// many ran before it and the input range left to run.
    fn land(
        &self,
        outcome: &Result<Bytes, TaskError>,
        span: Range<usize>,
        n: usize,
    ) -> Option<(usize, Range<usize>)> {
        let checked = outcome
            .as_ref()
            .map_err(TaskError::clone)
            .and_then(|frame| Ok((frame, chunk_output(frame, n)?)));
        let mut inner = self.cell.lock();
        let mut rest = None;
        match checked {
            // Chunk-level failure (executor lost, walltime, shutdown,
            // malformed chunk args or result): every element inherits it.
            Err(e) => {
                inner.lost.insert(span.start, (span.end, e));
                inner.remaining -= n;
            }
            Ok((frame, (ran, err))) => {
                if ran > 0 {
                    inner.landed.insert(span.start, frame.clone());
                    inner.remaining -= ran;
                }
                // Element `ran` failed; everything past it never ran.
                if let Some(e) = err.filter(|_| ran < n) {
                    let at = nth_encoded(&inner.failed, span.start, ran);
                    inner.failed.insert(at, TaskError::App(e));
                    inner.remaining -= 1;
                    if ran + 1 < n {
                        rest = Some((ran, at + 1..span.end));
                    }
                }
            }
        }
        if inner.remaining == 0 {
            drop(inner);
            self.cond.notify_all();
        }
        rest
    }
}

/// Input index of the `k`-th element that encoded, counting from input
/// index `start`: `failed` holds the ones that did not.
fn nth_encoded<V>(failed: &BTreeMap<usize, V>, start: usize, k: usize) -> usize {
    let mut at = start + k;
    for &i in failed.range(start..).map(|(i, _)| i) {
        if i > at {
            break;
        }
        at += 1;
    }
    at
}

/// Handle to an in-flight [`App::map`]: per-item results land as fused
/// chunks complete; [`MapHandle::results`] blocks for all of them.
pub struct MapHandle<R> {
    state: Arc<MapState>,
    chunks: usize,
    chunk_size: usize,
    _marker: PhantomData<fn() -> R>,
}

impl<R: TaskValue> MapHandle<R> {
    /// Number of logical items in the map.
    pub fn len(&self) -> usize {
        self.state.len
    }

    /// True for a map over an empty iterator.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fused chunks submitted up front (split-retries not included).
    pub fn chunk_count(&self) -> usize {
        self.chunks
    }

    /// Items per fused chunk actually used (auto-sized or overridden).
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Non-blocking: has every logical item resolved?
    pub fn done(&self) -> bool {
        self.state.cell.lock().remaining == 0
    }

    /// Block until every item resolves or the deadline passes; true when
    /// complete.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.state.cell.lock();
        while inner.remaining > 0 {
            if self.state.cond.wait_until(&mut inner, deadline).timed_out() {
                return inner.remaining == 0;
            }
        }
        true
    }

    /// Block until every fused chunk (and split-retry) completes, then
    /// decode the per-item results in input order, walking each landed
    /// frame once.
    pub fn results(&self) -> Vec<Result<R, ParslError>> {
        let mut guard = self.state.cell.lock();
        while guard.remaining > 0 {
            self.state.cond.wait(&mut guard);
        }
        let inner = &*guard;
        let mut landed = inner.landed.values();
        let mut frame = Items::bare(&[], 0);
        let mut item = Vec::new();
        (0..self.state.len)
            .map(|i| {
                let lost = inner.lost.range(..=i).next_back();
                let lost = lost.filter(|(_, (end, _))| i < *end).map(|(_, (_, e))| e);
                if let Some(e) = inner.failed.get(&i).or(lost) {
                    return Err(ParslError::Task(e.clone()));
                }
                while frame.remaining() == 0 {
                    frame = Items::new(landed.next().expect("every element resolved"))?;
                }
                frame.next_into(&mut item)?;
                wire::from_bytes(&item).map_err(ParslError::Decode)
            })
            .collect()
    }
}

impl<R> std::fmt::Debug for MapHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapHandle")
            .field("items", &self.state.len)
            .field("remaining", &self.state.cell.lock().remaining)
            .field("chunks", &self.chunks)
            .field("chunk_size", &self.chunk_size)
            .finish()
    }
}

/// Encode every input into one buffer, back to back in chunk format: an
/// element that will not encode fails only itself, before any chunk is
/// cut. Returns the buffer, how many elements it holds, and the failures
/// by input index.
fn encode<T: TaskValue>(
    inputs: impl IntoIterator<Item = T>,
) -> (Vec<u8>, usize, BTreeMap<usize, AppError>) {
    let (mut body, mut count, mut failed) = (Vec::new(), 0, BTreeMap::new());
    let mut item = Vec::new();
    for (i, v) in inputs.into_iter().enumerate() {
        item.clear();
        // (T,) encodes as the concatenation of its fields, i.e. as T.
        match wire::to_writer(&v, &mut item) {
            Ok(()) => {
                items::push(&item, &mut body);
                count += 1;
            }
            Err(e) => {
                failed.insert(i, serialization(e));
            }
        }
    }
    (body, count, failed)
}

/// Cut `encode`'s buffer into chunk frames of `size` elements: each a
/// count and one copy of its elements' bytes, with the input range it
/// covers and its element count. The buffer is dropped here.
fn cut<V>(
    body: Vec<u8>,
    count: usize,
    size: usize,
    failed: &BTreeMap<usize, V>,
) -> Vec<(Bytes, Range<usize>, usize)> {
    let mut walk = Items::bare(&body, count);
    let mut chunks = Vec::with_capacity(count.div_ceil(size));
    let mut start = 0;
    while walk.remaining() > 0 {
        let n = walk.remaining().min(size);
        let elements = walk.skip(n).expect("encode wrote these elements");
        let end = nth_encoded(failed, start, n - 1) + 1;
        chunks.push((Bytes::from(items::frame(n, elements)), start..end, n));
        start = end;
    }
    chunks
}

/// What every chunk of one map shares.
struct MapRun {
    dfk: Arc<DataFlowKernel>,
    fused: Arc<RegisteredApp>,
    tenant: TenantId,
    hints: DataHints,
    state: Arc<MapState>,
}

/// Submit one fused chunk of `n` elements over input range `span`, and
/// arrange for its completion to resolve them — resubmitting the
/// unprocessed remainder when an element fails mid-chunk. The remainder
/// is strictly smaller than the chunk, so the recursion terminates even
/// if every element fails.
fn submit_chunk(run: &Arc<MapRun>, args: Bytes, span: Range<usize>, n: usize) {
    let fut = run.dfk.submit(
        Arc::clone(&run.fused),
        vec![ArgSlot::Ready(args.clone())],
        SubmitOptions {
            tenant: run.tenant,
            hints: run.hints.clone(),
            items: n as u32,
        },
    );
    let run = Arc::clone(run);
    fut.on_done(move |r| {
        if let Some((ran, span)) = run.state.land(r, span, n) {
            // A new count, then the raw tail of this chunk's own frame:
            // the bytes encoding the tail afresh would make.
            let mut walk = Items::new(&args).expect("a chunk's own frame");
            walk.skip(ran + 1).expect("a chunk's own frame");
            let rest = Bytes::from(items::frame(n - ran - 1, walk.rest()));
            submit_chunk(&run, rest, span, n - ran - 1);
        }
    });
}

/// Pick items-per-chunk from the inner app's observed per-item service
/// time (see module docs).
fn auto_chunk_size(dfk: &DataFlowKernel, inner: AppId, n: usize) -> usize {
    if let Some(p50) = dfk.service_quantile_for(inner, 0.5, MIN_SAMPLES) {
        if p50 > Duration::ZERO {
            let per_chunk = (TARGET_CHUNK_TIME.as_secs_f64() / p50.as_secs_f64()) as usize;
            return per_chunk.clamp(1, MAX_CHUNK);
        }
    }
    n.div_ceil(FALLBACK_CHUNKS).clamp(1, MAX_CHUNK)
}

/// The fused-chunk twin of `inner` on this kernel, registered by the first
/// `map` of `inner`. The signature encodes the inner app's identity so
/// spawned workers can rebuild the body (`builtin::resolve` parses
/// `fmap[{name}; {sig}]`); app options — memoization, retries, executor
/// pin, per-item walltime — are inherited (the kernel scales walltime by
/// `items`).
fn fused_twin(dfk: &Arc<DataFlowKernel>, inner: &Arc<RegisteredApp>) -> Arc<RegisteredApp> {
    dfk.combinator_app(CombinatorKey::FusedMap(inner.id), || {
        dfk.register_erased(
            &format!("_parsl_fmap_{}", inner.name),
            AppKind::Native,
            &format!("fmap[{}; {}]", inner.name, inner.signature),
            fused_map_body(Arc::clone(&inner.func)),
            inner.options.clone(),
        )
    })
}

impl<T: TaskValue, R: TaskValue> App<(T,), R> {
    /// Apply this app to every element through fused chunks: the
    /// PoolExecutor-style bulk interface. Returns immediately with a
    /// [`MapHandle`]; results arrive per chunk.
    ///
    /// Equivalent to calling the app once per element — same values, same
    /// per-item failure attribution — at ~1/chunk_size of the per-task
    /// overhead.
    pub fn map<I>(&self, inputs: I) -> MapHandle<R>
    where
        I: IntoIterator<Item = T>,
    {
        self.map_with(inputs, MapOptions::default())
    }

    /// [`App::map`] with explicit options (chunk size, tenant, hints).
    pub fn map_with<I>(&self, inputs: I, opts: MapOptions) -> MapHandle<R>
    where
        I: IntoIterator<Item = T>,
    {
        let dfk = Arc::clone(self.dfk());
        let inner = Arc::clone(self.registered());
        let (body, count, failed) = encode(inputs);
        let chunk_size = opts
            .chunk_size
            .unwrap_or_else(|| auto_chunk_size(&dfk, inner.id, count))
            .max(1);
        let chunks = cut(body, count, chunk_size, &failed);
        let chunk_count = chunks.len();
        let state = Arc::new(MapState {
            len: count + failed.len(),
            cell: Mutex::new(MapInner {
                remaining: count,
                landed: BTreeMap::new(),
                lost: BTreeMap::new(),
                failed: failed
                    .into_iter()
                    .map(|(i, e)| (i, TaskError::App(e)))
                    .collect(),
            }),
            cond: Condvar::new(),
        });
        if chunk_count > 0 {
            let run = Arc::new(MapRun {
                fused: fused_twin(&dfk, &inner),
                dfk,
                tenant: opts.tenant,
                hints: opts.hints,
                state: Arc::clone(&state),
            });
            for (args, span, n) in chunks {
                submit_chunk(&run, args, span, n);
            }
        }
        MapHandle {
            state,
            chunks: chunk_count,
            chunk_size,
            _marker: PhantomData,
        }
    }

    /// Map every element and reduce the outputs to one value through a
    /// tree of fused reduce tasks (fan-in [`REDUCE_FAN_IN`]) instead of a
    /// flat 1k-way join.
    ///
    /// Semantics: `inputs.map(app).reduce(reduce).unwrap_or(init)` — the
    /// reducer left-folds outputs in input order, chunk partials first,
    /// then up the tree. For an **associative** reducer the result is
    /// byte-identical to the flat fold; non-associative reducers see an
    /// unspecified grouping.
    ///
    /// Unlike [`App::map`], an element failure fails the whole reduction
    /// (its chunk fails, and dependency failure propagates up the tree) —
    /// there is no per-item result to salvage. The fold and reduce bodies
    /// capture the client closure, so this path requires in-process
    /// workers (threadpool / in-proc htex); spawned worker processes
    /// cannot rebuild an arbitrary reducer from its name.
    pub fn map_reduce<I, F>(&self, inputs: I, init: R, reduce: F) -> AppFuture<R>
    where
        I: IntoIterator<Item = T>,
        F: Fn(R, R) -> R + Send + Sync + 'static,
    {
        self.map_reduce_with(inputs, init, reduce, MapOptions::default())
    }

    /// [`App::map_reduce`] with explicit options.
    pub fn map_reduce_with<I, F>(
        &self,
        inputs: I,
        init: R,
        reduce: F,
        opts: MapOptions,
    ) -> AppFuture<R>
    where
        I: IntoIterator<Item = T>,
        F: Fn(R, R) -> R + Send + Sync + 'static,
    {
        let dfk = Arc::clone(self.dfk());
        let inner = Arc::clone(self.registered());
        let reduce: Arc<dyn Fn(R, R) -> R + Send + Sync> = Arc::new(reduce);
        let (body, count, mut failed) = encode(inputs);
        if let Some((_, e)) = failed.pop_first() {
            return AppFuture::from_shared_state(dfk.failed_submission(e));
        }
        if count == 0 {
            return AppFuture::ready(&init);
        }
        let chunk_size = opts
            .chunk_size
            .unwrap_or_else(|| auto_chunk_size(&dfk, inner.id, count))
            .max(1);
        let fold = dfk.register_erased(
            &format!("_parsl_fmapfold_{}", inner.name),
            AppKind::Native,
            &format!("fmapfold[{}; {}]", inner.name, inner.signature),
            fused_map_fold_body::<R>(Arc::clone(&inner.func), Arc::clone(&reduce)),
            inner.options.clone(),
        );
        let mut partials: Vec<Arc<FutureState>> = cut(body, count, chunk_size, &failed)
            .into_iter()
            .map(|(args, _, n)| {
                dfk.submit(
                    Arc::clone(&fold),
                    vec![ArgSlot::Ready(args)],
                    SubmitOptions {
                        tenant: opts.tenant,
                        hints: opts.hints.clone(),
                        items: n as u32,
                    },
                )
            })
            .collect();
        // Collapse the chunk partials through fused reduce levels. Each
        // level preserves input order, so the overall fold order matches
        // the flat left-fold.
        let mut reducers: std::collections::HashMap<usize, Arc<RegisteredApp>> =
            std::collections::HashMap::new();
        while partials.len() > 1 {
            let mut next = Vec::with_capacity(partials.len().div_ceil(REDUCE_FAN_IN));
            for group in partials.chunks(REDUCE_FAN_IN) {
                if group.len() == 1 {
                    next.push(Arc::clone(&group[0]));
                    continue;
                }
                let k = group.len();
                let app = reducers
                    .entry(k)
                    .or_insert_with(|| {
                        dfk.register_erased(
                            &format!("_parsl_freduce_{k}"),
                            AppKind::Native,
                            &format!("freduce[{}; {k}]", std::any::type_name::<R>()),
                            fused_reduce_body::<R>(Arc::clone(&reduce), k),
                            AppOptions::default(),
                        )
                    })
                    .clone();
                let level = SubmitOptions {
                    tenant: opts.tenant,
                    ..SubmitOptions::default()
                };
                next.push(submit_over(&dfk, app, group, level));
            }
            partials = next;
        }
        AppFuture::from_shared_state(partials.pop().expect("nonempty input has a root"))
    }
}

/// Fused map+fold chunk body: apply `inner` to each element and left-fold
/// the decoded outputs; the chunk's value is its partial. Any element
/// failure fails the chunk (map_reduce has no per-item results to save).
fn fused_map_fold_body<R: TaskValue>(
    inner: ErasedAppFn,
    reduce: Arc<dyn Fn(R, R) -> R + Send + Sync>,
) -> ErasedAppFn {
    Arc::new(move |bytes: &[u8]| {
        let mut args = chunk_args(bytes, "fused fold args")?;
        let mut item = Vec::new();
        let mut acc: Option<R> = None;
        while args.next_into(&mut item).map_err(serialization)? {
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| (inner)(&item)))
                .map_err(|p| AppError::Panic(panic_message(p)))??;
            let v: R = wire::from_bytes(&out)
                .map_err(|e| AppError::Serialization(format!("fused fold item: {e}")))?;
            acc = Some(match acc.take() {
                None => v,
                Some(a) => reduce(a, v),
            });
        }
        let acc = acc.ok_or_else(|| AppError::Serialization("empty fused fold chunk".into()))?;
        wire::to_bytes(&acc).map_err(serialization)
    })
}

/// Reduce-tree node body: left-fold `k` concatenated `R` partials.
fn fused_reduce_body<R: TaskValue>(
    reduce: Arc<dyn Fn(R, R) -> R + Send + Sync>,
    k: usize,
) -> ErasedAppFn {
    Arc::new(move |bytes: &[u8]| {
        let acc = decode_concat::<R>(bytes, k)?
            .into_iter()
            .reduce(|a, b| reduce(a, b))
            .ok_or_else(|| AppError::Serialization("empty reduce group".into()))?;
        wire::to_bytes(&acc).map_err(serialization)
    })
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
    fn fused_body_matches_per_item_execution() {
        let inner: ErasedAppFn = Arc::new(|bytes: &[u8]| {
            let (x,): (u64,) = wire::from_bytes(bytes).unwrap();
            wire::to_bytes(&(x * 3)).map_err(|e| AppError::Serialization(e.to_string()))
        });
        let fused = fused_map_body(Arc::clone(&inner));
        let items: Vec<Vec<u8>> = (0..5u64).map(|x| wire::to_bytes(&(x,)).unwrap()).collect();
        let out = fused(&wire::to_bytes(&items).unwrap()).unwrap();
        let out: FusedOutput = wire::from_bytes(&out).unwrap();
        assert!(out.err.is_none());
        assert_eq!(out.ok.len(), 5);
        for (i, b) in out.ok.iter().enumerate() {
            assert_eq!(wire::from_bytes::<u64>(b).unwrap(), i as u64 * 3);
        }
    }

    #[test]
    fn fused_body_stops_at_first_failure() {
        let inner: ErasedAppFn = Arc::new(|bytes: &[u8]| {
            let (x,): (u64,) = wire::from_bytes(bytes).unwrap();
            if x == 2 {
                panic!("boom at {x}");
            }
            wire::to_bytes(&x).map_err(|e| AppError::Serialization(e.to_string()))
        });
        let fused = fused_map_body(inner);
        let items: Vec<Vec<u8>> = (0..5u64).map(|x| wire::to_bytes(&(x,)).unwrap()).collect();
        let out = fused(&wire::to_bytes(&items).unwrap()).unwrap();
        let out: FusedOutput = wire::from_bytes(&out).unwrap();
        assert_eq!(out.ok.len(), 2);
        match out.err {
            Some(AppError::Panic(m)) => assert!(m.contains("boom at 2")),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn map_basic_values_and_order() {
        let dfk = dfk();
        let sq = dfk.python_app("sq", |x: u64| x * x);
        let handle = sq.map(0..100u64);
        assert_eq!(handle.len(), 100);
        let out: Vec<u64> = handle.results().into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        dfk.shutdown();
    }

    #[test]
    fn map_respects_explicit_chunk_size() {
        let dfk = dfk();
        let id = dfk.python_app("id", |x: u32| x);
        let handle = id.map_with(
            0..10u32,
            MapOptions {
                chunk_size: Some(3),
                ..MapOptions::default()
            },
        );
        // 10 items at chunk 3 → chunks of 3,3,3,1.
        assert_eq!(handle.chunk_count(), 4);
        assert_eq!(handle.chunk_size(), 3);
        let out: Vec<u32> = handle.results().into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(out, (0..10u32).collect::<Vec<_>>());
        dfk.shutdown();
    }

    #[test]
    fn auto_chunk_size_targets_1k_chunks_without_samples() {
        let dfk = dfk();
        let id = dfk.python_app("cold", |x: u64| x);
        assert_eq!(auto_chunk_size(&dfk, id.registered().id, 1_000_000), 977);
        assert_eq!(auto_chunk_size(&dfk, id.registered().id, 10), 1);
        assert_eq!(auto_chunk_size(&dfk, id.registered().id, 0), 1);
        // Enormous inputs still respect the frame-budget clamp.
        assert_eq!(auto_chunk_size(&dfk, id.registered().id, 100_000_000), 4096);
        dfk.shutdown();
    }

    #[test]
    fn auto_chunk_size_uses_observed_service_time() {
        let dfk = dfk();
        let slow = dfk.python_app("slowish", |x: u64| {
            std::thread::sleep(Duration::from_millis(2));
            x
        });
        for i in 0..25u64 {
            crate::call!(slow, i).result().unwrap();
        }
        dfk.wait_for_all();
        let sized = auto_chunk_size(&dfk, slow.registered().id, 1_000_000);
        // ~2 ms per item against a 100 ms chunk target → tens of items,
        // not the ~1k-item cold fallback.
        assert!(
            (10..=100).contains(&sized),
            "expected service-informed chunk, got {sized}"
        );
        dfk.shutdown();
    }

    #[test]
    fn map_reduce_matches_flat_fold() {
        let dfk = dfk();
        let double = dfk.python_app("double", |x: u64| x * 2);
        let sum = double.map_reduce_with(
            0..1000u64,
            0,
            |a, b| a + b,
            MapOptions {
                chunk_size: Some(7),
                ..MapOptions::default()
            },
        );
        assert_eq!(sum.result().unwrap(), (0..1000u64).map(|x| x * 2).sum());
        dfk.shutdown();
    }

    #[test]
    fn map_reduce_tree_is_byte_identical_to_flat_reduce_for_strings() {
        let dfk = dfk();
        let show = dfk.python_app("show", |x: u32| format!("{x},"));
        // Concatenation is associative but *not* commutative: any
        // misordering in the tree would scramble the bytes.
        let joined = show.map_reduce_with(
            0..200u32,
            String::new(),
            |a, b| a + &b,
            MapOptions {
                chunk_size: Some(3),
                ..MapOptions::default()
            },
        );
        let flat: String = (0..200u32).map(|x| format!("{x},")).collect();
        assert_eq!(joined.result().unwrap(), flat);
        dfk.shutdown();
    }

    #[test]
    fn map_reduce_of_nothing_is_init() {
        let dfk = dfk();
        let id = dfk.python_app("idr", |x: u64| x);
        let out = id.map_reduce(std::iter::empty(), 42u64, |a, b| a + b);
        assert_eq!(out.result().unwrap(), 42);
        dfk.shutdown();
    }

    #[test]
    fn map_reduce_propagates_element_failure() {
        let dfk = dfk();
        let picky = dfk.python_app_fallible("picky", |x: u64| {
            if x == 13 {
                Err(AppError::msg("unlucky"))
            } else {
                Ok(x)
            }
        });
        let sum = picky.map_reduce_with(
            0..100u64,
            0,
            |a, b| a + b,
            MapOptions {
                chunk_size: Some(10),
                ..MapOptions::default()
            },
        );
        assert!(sum.result().is_err());
        dfk.shutdown();
    }
}
