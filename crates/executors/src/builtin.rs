//! Builtin apps resolvable by name in spawned worker processes.
//!
//! Rust cannot ship closures over a socket the way Parsl pickles
//! functions, so a `parsl-worker` process resolves app *references*: the
//! interchange advertises `(id, name, signature)` ([`crate::proto::WireApp`])
//! and the worker binds its compiled-in body for `name` under the shipped
//! id. This mirrors Parsl's fast path of serializing functions by
//! reference — both sides must agree on the definition out of band.
//!
//! The table below covers the apps used by the TCP test suite and
//! benchmarks. A name the worker does not know simply stays unbound;
//! tasks referencing it fail with the registry's "app id not present"
//! error and surface to the DFK like any app failure.

use parsl_core::error::AppError;
use parsl_core::registry::ErasedAppFn;
use parsl_core::{AppArgs, TaskValue};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Wrap a typed body into the erased form, identically to the DFK's
/// `register_native` wrapper: decode args, catch panics, encode result.
fn erase<A, R>(body: impl Fn(A) -> Result<R, AppError> + Send + Sync + 'static) -> ErasedAppFn
where
    A: AppArgs,
    R: TaskValue,
{
    Arc::new(move |bytes: &[u8]| {
        let args = A::decode(bytes)?;
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| body(args)))
            .map_err(|p| AppError::Panic(panic_message(p)))??;
        wire::to_bytes(&out).map_err(|e| AppError::Serialization(e.to_string()))
    })
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A join body for element type `E`: decode `n` concatenated
/// `E`-encodings, re-encode as `Vec<E>` — the worker-side twin of the
/// closure `parsl_core::combinators::join_all` registers.
fn join_body<E: TaskValue>(n: usize) -> ErasedAppFn {
    Arc::new(move |bytes: &[u8]| {
        let serialization = |e: wire::Error| AppError::Serialization(e.to_string());
        let mut r = wire::Reader::new(bytes);
        let mut out: Vec<E> = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(E::decode(&mut r).map_err(serialization)?);
        }
        r.end().map_err(serialization)?;
        wire::to_bytes(&out).map_err(serialization)
    })
}

/// The DFK's combinators register dynamically named apps
/// (`_parsl_join_{n}`, `_parsl_barrier_{n}`) whose semantics are fully
/// determined by the advertised signature — `join[{elem}; {n}]` /
/// `barrier[{n}]`. Reconstruct the body from the signature for the
/// element types a worker can name statically.
fn resolve_combinator(name: &str, signature: &str) -> Option<ErasedAppFn> {
    if name.starts_with("_parsl_fmap_") {
        // A fused map chunk: `fmap[{inner_name}; {inner_sig}]`. Resolve
        // the inner body the same way any task would and wrap it in the
        // chunk-loop form the client used.
        let rest = signature.strip_prefix("fmap[")?.strip_suffix(']')?;
        let (inner_name, inner_sig) = rest.split_once("; ")?;
        let inner = resolve(inner_name, inner_sig)?;
        return Some(parsl_core::fusion::fused_map_body(inner));
    }
    if name.starts_with("_parsl_barrier_") {
        return Some(Arc::new(|_bytes: &[u8]| {
            wire::to_bytes(&()).map_err(|e| AppError::Serialization(e.to_string()))
        }));
    }
    if name.starts_with("_parsl_join_") {
        let inner = signature.strip_prefix("join[")?.strip_suffix(']')?;
        let (elem, n) = inner.rsplit_once("; ")?;
        let n: usize = n.parse().ok()?;
        return Some(match elem {
            "u8" => join_body::<u8>(n),
            "u16" => join_body::<u16>(n),
            "u32" => join_body::<u32>(n),
            "u64" => join_body::<u64>(n),
            "usize" => join_body::<usize>(n),
            "i8" => join_body::<i8>(n),
            "i16" => join_body::<i16>(n),
            "i32" => join_body::<i32>(n),
            "i64" => join_body::<i64>(n),
            "isize" => join_body::<isize>(n),
            "f32" => join_body::<f32>(n),
            "f64" => join_body::<f64>(n),
            "bool" => join_body::<bool>(n),
            "alloc::string::String" => join_body::<String>(n),
            "()" => join_body::<()>(n),
            _ => return None,
        });
    }
    None
}

/// Resolve a builtin body by app name and advertised signature; `None`
/// for names the worker does not know.
pub fn resolve(name: &str, signature: &str) -> Option<ErasedAppFn> {
    if let Some(f) = resolve_combinator(name, signature) {
        return Some(f);
    }
    Some(match name {
        // Identity; the benchmark workload (fig5).
        "noop" => erase(|(x,): (u64,)| Ok(x)),
        // Small arithmetic apps used by roundtrip tests.
        "double" => erase(|(x,): (u64,)| Ok(x * 2)),
        "add" => erase(|(a, b): (u64, u64)| Ok(a + b)),
        // Fan-out gate: a root task whose value unblocks dependents.
        "gate" => erase(|_: ()| Ok(0u64)),
        // Sleep then return; lets tests hold tasks in flight.
        "sleep_ms" => erase(|(ms, x): (u64, u64)| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(x)
        }),
        // Gated slow multiply for the SIGKILL fault test.
        "gated_sleep_mul" => erase(|(gate, ms, x): (u64, u64, u64)| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(gate + x * 3)
        }),
        // DAG node for the TCP-vs-inproc proptest; must match the
        // client-side registration byte for byte in behavior.
        "node" => erase(|(base, deps, fail): (u64, Vec<u64>, bool)| {
            if fail {
                return Err(AppError::msg("poisoned node"));
            }
            Ok(deps.into_iter().fold(base, u64::wrapping_add))
        }),
        // Deterministic failure, for error-propagation tests.
        "fail" => erase(|(_x,): (u64,)| Err::<u64, _>(AppError::msg("builtin failure"))),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_bodies_match_client_semantics() {
        let noop = resolve("noop", "(u64)->u64").unwrap();
        let out = noop(&wire::to_bytes(&(7u64,)).unwrap()).unwrap();
        assert_eq!(wire::from_bytes::<u64>(&out).unwrap(), 7);

        let node = resolve("node", "(u64, Vec<u64>, bool)->u64").unwrap();
        let out = node(&wire::to_bytes(&(10u64, vec![1u64, 2], false)).unwrap()).unwrap();
        assert_eq!(wire::from_bytes::<u64>(&out).unwrap(), 13);
        let err = node(&wire::to_bytes(&(10u64, Vec::<u64>::new(), true)).unwrap()).unwrap_err();
        assert!(err.to_string().contains("poisoned node"));

        assert!(resolve("nonexistent", "(u64)->u64").is_none());

        // Combinators reconstruct from the advertised signature.
        let join = resolve("_parsl_join_2", "join[u64; 2]").unwrap();
        let mut args = wire::to_bytes(&5u64).unwrap();
        args.extend(wire::to_bytes(&6u64).unwrap());
        let out = join(&args).unwrap();
        assert_eq!(wire::from_bytes::<Vec<u64>>(&out).unwrap(), vec![5, 6]);
        assert!(resolve("_parsl_join_2", "join[some::Exotic; 2]").is_none());
        let barrier = resolve("_parsl_barrier_3", "barrier[3]").unwrap();
        assert!(barrier(&[]).is_ok());
    }

    #[test]
    fn fused_map_reconstructs_from_signature() {
        use parsl_core::fusion::FusedOutput;
        let fmap = resolve("_parsl_fmap_double", "fmap[double; (u64)->u64]").unwrap();
        let items: Vec<Vec<u8>> = (1..=3u64).map(|x| wire::to_bytes(&(x,)).unwrap()).collect();
        let out = fmap(&wire::to_bytes(&items).unwrap()).unwrap();
        let out: FusedOutput = wire::from_bytes(&out).unwrap();
        assert!(out.err.is_none());
        let vals: Vec<u64> = out
            .ok
            .iter()
            .map(|b| wire::from_bytes::<u64>(b).unwrap())
            .collect();
        assert_eq!(vals, vec![2, 4, 6]);

        // A failing inner element is reported positionally, like the
        // client-side body does.
        let fmap = resolve("_parsl_fmap_fail", "fmap[fail; (u64)->u64]").unwrap();
        let items: Vec<Vec<u8>> = vec![wire::to_bytes(&(1u64,)).unwrap()];
        let out: FusedOutput =
            wire::from_bytes(&fmap(&wire::to_bytes(&items).unwrap()).unwrap()).unwrap();
        assert!(out.ok.is_empty());
        assert!(out.err.is_some());

        // Unknown inner app → the fused app stays unbound.
        assert!(resolve("_parsl_fmap_mystery", "fmap[mystery; (u64)->u64]").is_none());
    }
}
