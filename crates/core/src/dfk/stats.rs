//! Workload observations: arrival rate and per-app service times.

use super::DataFlowKernel;
use crate::registry::AppId;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cap on service-time samples retained per app: a bounded ring so a
/// long run's quantiles track recent behaviour instead of averaging
/// over its whole history.
const SERVICE_RING: usize = 512;

/// EWMA smoothing for the arrival-rate estimate, applied once per
/// strategy tick.
const ARRIVAL_EWMA_ALPHA: f64 = 0.3;

/// Workload observations feeding the predictive strategy and the hedge
/// watcher: a submission counter (arrival rate), and per-app rings of
/// observed service times (quantiles).
pub(super) struct ServiceStats {
    /// Logical items ever submitted (bumped in `submit`).
    pub(super) arrivals: AtomicU64,
    /// EWMA arrival-rate state, updated once per strategy tick.
    rate: Mutex<RateState>,
    /// Per-app service-time sample rings, seconds.
    samples: RwLock<HashMap<AppId, Mutex<SampleRing>>>,
}

struct RateState {
    last_count: u64,
    last_at: Instant,
    rate: f64,
}

#[derive(Default)]
struct SampleRing {
    buf: Vec<f64>,
    next: usize,
}

impl SampleRing {
    fn push(&mut self, secs: f64) {
        if self.buf.len() < SERVICE_RING {
            self.buf.push(secs);
        } else {
            self.buf[self.next] = secs;
            self.next = (self.next + 1) % SERVICE_RING;
        }
    }
}

/// The `q`-quantile of `samples` (seconds); `None` when there are none.
fn quantile(mut samples: Vec<f64>, q: f64) -> Option<Duration> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN service times"));
    let idx = ((samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(Duration::from_secs_f64(samples[idx]))
}

impl ServiceStats {
    pub(super) fn new() -> Self {
        ServiceStats {
            arrivals: AtomicU64::new(0),
            rate: Mutex::new(RateState {
                last_count: 0,
                last_at: Instant::now(),
                rate: 0.0,
            }),
            samples: RwLock::new(HashMap::new()),
        }
    }

    pub(super) fn record(&self, app: AppId, d: Duration) {
        let secs = d.as_secs_f64();
        if let Some(ring) = self.samples.read().get(&app) {
            ring.lock().push(secs);
            return;
        }
        self.samples
            .write()
            .entry(app)
            .or_default()
            .get_mut()
            .push(secs);
    }

    /// Advance the EWMA arrival rate by one tick and return it (tasks/s).
    pub(super) fn tick_rate(&self) -> f64 {
        let count = self.arrivals.load(Ordering::Relaxed);
        let mut st = self.rate.lock();
        let now = Instant::now();
        let dt = now.duration_since(st.last_at).as_secs_f64();
        if dt > 1e-6 {
            let inst = (count.saturating_sub(st.last_count)) as f64 / dt;
            st.rate = ARRIVAL_EWMA_ALPHA * inst + (1.0 - ARRIVAL_EWMA_ALPHA) * st.rate;
            st.last_count = count;
            st.last_at = now;
        }
        st.rate
    }

    /// Quantile over one app's ring; `None` below `min_samples`.
    pub(super) fn quantile_for(&self, app: AppId, q: f64, min_samples: usize) -> Option<Duration> {
        let samples = self.samples.read().get(&app)?.lock().buf.clone();
        if samples.len() < min_samples {
            return None;
        }
        quantile(samples, q)
    }

    /// Quantile pooled across every app's ring; `None` with no samples.
    pub(super) fn quantile_global(&self, q: f64) -> Option<Duration> {
        let map = self.samples.read();
        let samples = map
            .values()
            .flat_map(|ring| ring.lock().buf.clone())
            .collect();
        drop(map);
        quantile(samples, q)
    }
}

impl DataFlowKernel {
    /// Smoothed task arrival rate (tasks/second), as fed to the
    /// predictive strategy. Advances the estimator.
    pub fn arrival_rate(&self) -> f64 {
        self.stats.tick_rate()
    }

    /// Observed (p50, p99) service time across all apps, `None` before
    /// any completion carries timing.
    pub fn service_quantiles(&self) -> (Option<Duration>, Option<Duration>) {
        (
            self.stats.quantile_global(0.50),
            self.stats.quantile_global(0.99),
        )
    }

    /// Observed service-time quantile for one app (per logical item —
    /// fused chunks record their duration divided by chunk length), or
    /// `None` below `min_samples` observations. Feeds `app.map`'s
    /// auto chunk sizing.
    pub fn service_quantile_for(&self, app: AppId, q: f64, min_samples: usize) -> Option<Duration> {
        self.stats.quantile_for(app, q, min_samples)
    }
}
