//! The fabric: endpoint registry, routing, latency and fault injection.

use crate::addr::Addr;
use crate::endpoint::{Endpoint, Envelope, Inbox, InboxSender};
use crate::error::SendError;
use crate::latency::{DelayLine, Delivery};
use crate::stats::FabricStats;
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fabric-wide behaviour knobs.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// One-way delivery delay applied to every message. The paper measured
    /// 0.07 ms node-to-node RTT on Midway and 0.04 ms on Blue Waters; tests
    /// inject half the RTT here per direction when modelling those machines.
    pub latency: Duration,
    /// Probability in `[0, 1]` that any message is silently lost.
    pub loss_probability: f64,
    /// Seed for the loss RNG, for reproducible fault runs.
    pub seed: u64,
    /// Soft ceiling on one frame's payload size. Batching senders (the
    /// executors' `submit_batch` paths) chunk their task batches so a
    /// single frame stays within this budget — one oversized message would
    /// otherwise head-of-line-block everything behind it on a real
    /// transport. Advisory: the fabric itself never rejects a frame.
    pub max_frame_bytes: usize,
}

/// Default frame budget: 256 KiB, a few thousand small tasks per frame.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 256 * 1024;

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            latency: Duration::ZERO,
            loss_probability: 0.0,
            seed: 0,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

struct Binding {
    inbox: InboxSender,
    generation: u64,
    closed: Arc<AtomicBool>,
}

pub(crate) struct FabricInner {
    config: FabricConfig,
    endpoints: RwLock<HashMap<Addr, Binding>>,
    dead_links: RwLock<HashSet<(Addr, Addr)>>,
    stats: FabricStats,
    rng: Mutex<SmallRng>,
    delay: Option<DelayLine>,
    generation: AtomicU64,
}

impl FabricInner {
    pub(crate) fn route(&self, from: &Addr, to: &Addr, payload: Bytes) -> Result<(), SendError> {
        self.stats.record_sent(payload.len());
        if !self.dead_links.read().is_empty()
            && self.dead_links.read().contains(&(from.clone(), to.clone()))
        {
            self.stats.record_dropped();
            return Ok(());
        }
        if self.config.loss_probability > 0.0 {
            let roll: f64 = self.rng.lock().random();
            if roll < self.config.loss_probability {
                self.stats.record_dropped();
                return Ok(());
            }
        }
        let inbox = {
            let eps = self.endpoints.read();
            match eps.get(to) {
                Some(b) => Arc::clone(&b.inbox),
                None => return Err(SendError::PeerGone(to.clone())),
            }
        };
        let env = Envelope {
            from: from.clone(),
            payload,
        };
        match &self.delay {
            None => {
                if inbox.send(env).is_ok() {
                    self.stats.record_delivered();
                    Ok(())
                } else {
                    Err(SendError::PeerGone(to.clone()))
                }
            }
            Some(line) => {
                line.enqueue(
                    Instant::now() + self.config.latency,
                    Delivery {
                        env,
                        inbox,
                        stats: self.stats.clone(),
                    },
                );
                Ok(())
            }
        }
    }

    pub(crate) fn unbind(&self, addr: &Addr, generation: u64) {
        let mut eps = self.endpoints.write();
        if eps.get(addr).is_some_and(|b| b.generation == generation) {
            eps.remove(addr);
        }
    }
}

/// Handle to a message fabric. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// A fabric with zero latency and no loss — a perfect network.
    pub fn new() -> Self {
        Self::with_config(FabricConfig::default())
    }

    /// A fabric with explicit latency/loss behaviour.
    pub fn with_config(config: FabricConfig) -> Self {
        let delay = if config.latency > Duration::ZERO {
            Some(DelayLine::spawn())
        } else {
            None
        };
        let seed = config.seed;
        Fabric {
            inner: Arc::new(FabricInner {
                config,
                endpoints: RwLock::new(HashMap::new()),
                dead_links: RwLock::new(HashSet::new()),
                stats: FabricStats::new(),
                rng: Mutex::new(SmallRng::seed_from_u64(seed)),
                delay,
                generation: AtomicU64::new(0),
            }),
        }
    }

    /// Bind a new endpoint at `addr`.
    ///
    /// Fails if the address is already bound by a live endpoint.
    pub fn bind(&self, addr: Addr) -> Result<Endpoint, AddrInUse> {
        let (tx, inbox) = Inbox::new();
        let generation = self.inner.generation.fetch_add(1, Ordering::Relaxed);
        let closed = Arc::new(AtomicBool::new(false));
        {
            let mut eps = self.inner.endpoints.write();
            if eps.contains_key(&addr) {
                return Err(AddrInUse(addr));
            }
            eps.insert(
                addr.clone(),
                Binding {
                    inbox: tx,
                    generation,
                    closed: Arc::clone(&closed),
                },
            );
        }
        Ok(Endpoint::new(
            addr,
            inbox,
            generation,
            closed,
            Arc::clone(&self.inner),
        ))
    }

    /// Fault injection: abruptly kill the endpoint at `addr`.
    ///
    /// Future sends to it fail with [`SendError::PeerGone`]; its own sends
    /// fail with [`SendError::SelfClosed`]; once its inbox drains, `recv`
    /// reports closure. Models a crashed manager/worker (§4.3.1).
    pub fn kill(&self, addr: &Addr) {
        let mut eps = self.inner.endpoints.write();
        if let Some(b) = eps.remove(addr) {
            b.closed.store(true, Ordering::Release);
        }
    }

    /// Fault injection: silently eat all messages from `from` to `to`.
    pub fn drop_link(&self, from: &Addr, to: &Addr) {
        self.inner
            .dead_links
            .write()
            .insert((from.clone(), to.clone()));
    }

    /// Undo [`Fabric::drop_link`].
    pub fn restore_link(&self, from: &Addr, to: &Addr) {
        self.inner
            .dead_links
            .write()
            .remove(&(from.clone(), to.clone()));
    }

    /// True if `addr` is currently bound.
    pub fn is_bound(&self, addr: &Addr) -> bool {
        self.inner.endpoints.read().contains_key(addr)
    }

    /// Number of live endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.inner.endpoints.read().len()
    }

    /// The advisory per-frame payload budget batching senders chunk at.
    pub fn max_frame_bytes(&self) -> usize {
        self.inner.config.max_frame_bytes
    }

    /// Message counters for this fabric.
    pub fn stats(&self) -> FabricStats {
        self.inner.stats.clone()
    }
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("endpoints", &self.endpoint_count())
            .field("latency", &self.inner.config.latency)
            .field("loss", &self.inner.config.loss_probability)
            .finish()
    }
}

/// Error returned by [`Fabric::bind`] when the address is taken.
#[derive(Debug, Clone)]
pub struct AddrInUse(pub Addr);

impl std::fmt::Display for AddrInUse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "address {} already bound", self.0)
    }
}

impl std::error::Error for AddrInUse {}
