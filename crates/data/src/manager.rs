//! The data manager: transparent staging via dynamic data dependencies.

use crate::cache::{CacheStats, StagingCache};
use crate::file::{File, Scheme};
use parsl_core::app::{App, Dep};
use parsl_core::datamap::{DataHints, DataRef};
use parsl_core::error::AppError;
use parsl_core::future::AppFuture;
use parsl_core::registry::AppOptions;
use parsl_core::DataFlowKernel;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

wire::codec! {
    /// A file made available on the execution side: the result type of staging
    /// tasks and the argument type apps should accept ("Parsl translates the
    /// file reference to a local path via which the App can access the file").
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StagedFile {
        /// Path where the file's content is readable locally.
        pub local_path: String,
        /// Size in bytes.
        pub bytes: u64,
    }
}

/// Data manager configuration, including the simulated WAN model.
#[derive(Debug, Clone)]
pub struct DataManagerConfig {
    /// Where staged copies land (default: a temp subdirectory).
    pub staging_dir: PathBuf,
    /// Label of the executor that runs Globus transfers, standing in for
    /// "executed directly by the data manager" third-party transfer. When
    /// `None`, Globus transfers run like any other task.
    pub globus_executor: Option<String>,
    /// Per-transfer setup latency of the simulated WAN.
    pub wan_latency: Duration,
    /// Simulated HTTP bandwidth, bytes/second.
    pub http_bandwidth: u64,
    /// Simulated FTP bandwidth, bytes/second.
    pub ftp_bandwidth: u64,
    /// Simulated Globus bandwidth (parallel streams: fastest).
    pub globus_bandwidth: u64,
    /// When set, remote stage-ins flow through a [`StagingCache`] of this
    /// many bytes: repeated requests for the same URL hit the cache (or
    /// join the in-flight transfer) instead of re-crossing the WAN.
    pub cache_budget_bytes: Option<u64>,
}

impl Default for DataManagerConfig {
    fn default() -> Self {
        DataManagerConfig {
            staging_dir: std::env::temp_dir().join("parsl-staging"),
            globus_executor: None,
            wan_latency: Duration::from_millis(1),
            http_bandwidth: 8_000_000_000,
            ftp_bandwidth: 5_000_000_000,
            globus_bandwidth: 20_000_000_000,
            cache_budget_bytes: None,
        }
    }
}

impl DataManagerConfig {
    /// The WAN model: `latency + bytes / bandwidth` for the scheme.
    pub fn simulated_transfer_time(&self, scheme: Scheme, bytes: u64) -> Duration {
        let bw = match scheme {
            Scheme::Local => return Duration::ZERO,
            Scheme::Http => self.http_bandwidth,
            Scheme::Ftp => self.ftp_bandwidth,
            Scheme::Globus => self.globus_bandwidth,
        };
        self.wan_latency + Duration::from_secs_f64(bytes as f64 / bw as f64)
    }
}

/// Deterministic synthetic size for a "remote" file (the substitution for
/// data we cannot download): 10 kB–100 kB, keyed by URL.
fn synthetic_size(url: &str) -> u64 {
    10_000 + wire::fnv1a_str(url) % 90_000
}

/// Deterministic synthetic content for a "remote" file.
fn synthetic_content(url: &str, bytes: u64) -> Vec<u8> {
    let seed = wire::fnv1a_str(url);
    let mut out = Vec::with_capacity(bytes as usize);
    let mut state = seed;
    while (out.len() as u64) < bytes {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(bytes as usize);
    out
}

/// Registers staging apps on a DataFlowKernel and exposes stage-in/out.
pub struct DataManager {
    stage_local: App<(File,), StagedFile>,
    stage_http_ftp: App<(File,), StagedFile>,
    stage_globus: App<(File,), StagedFile>,
    stage_out_app: App<(StagedFile, File), StagedFile>,
    cache: Option<StagingCache>,
    wan_bytes: Arc<AtomicU64>,
}

impl DataManager {
    /// Create the manager; registers four staging apps on `dfk`.
    pub fn new(dfk: &Arc<DataFlowKernel>, config: DataManagerConfig) -> Self {
        std::fs::create_dir_all(&config.staging_dir).ok();
        let cfg = Arc::new(config);
        let wan_bytes = Arc::new(AtomicU64::new(0));

        let stage_local = dfk.python_app_fallible(
            "_parsl_stage_in_local",
            |f: File| -> Result<StagedFile, AppError> {
                let meta = std::fs::metadata(&f.path)
                    .map_err(|e| AppError::msg(format!("local file {}: {e}", f.path)))?;
                Ok(StagedFile {
                    local_path: f.path,
                    bytes: meta.len(),
                })
            },
        );

        let c = Arc::clone(&cfg);
        let w = Arc::clone(&wan_bytes);
        let stage_http_ftp = dfk.python_app_fallible(
            "_parsl_stage_in_transfer",
            move |f: File| -> Result<StagedFile, AppError> { simulate_fetch(&c, &w, &f) },
        );

        let c = Arc::clone(&cfg);
        let w = Arc::clone(&wan_bytes);
        let globus_options = AppOptions {
            executor: cfg.globus_executor.clone(),
            ..Default::default()
        };
        let stage_globus = dfk.python_app_cfg(
            "_parsl_stage_in_globus",
            globus_options,
            move |f: File| -> Result<StagedFile, AppError> { simulate_fetch(&c, &w, &f) },
        );

        let c = Arc::clone(&cfg);
        let stage_out_app = dfk.python_app_fallible(
            "_parsl_stage_out",
            move |src: StagedFile, dest: File| -> Result<StagedFile, AppError> {
                let content = std::fs::read(&src.local_path)
                    .map_err(|e| AppError::msg(format!("read {}: {e}", src.local_path)))?;
                match dest.scheme {
                    Scheme::Local => {
                        if let Some(parent) = std::path::Path::new(&dest.path).parent() {
                            std::fs::create_dir_all(parent)
                                .map_err(|e| AppError::msg(format!("mkdir: {e}")))?;
                        }
                        std::fs::write(&dest.path, &content)
                            .map_err(|e| AppError::msg(format!("write {}: {e}", dest.path)))?;
                        Ok(StagedFile {
                            local_path: dest.path,
                            bytes: content.len() as u64,
                        })
                    }
                    scheme => {
                        // Simulated upload: pay the WAN cost, mirror the
                        // bytes under the staging dir's outbound area.
                        std::thread::sleep(c.simulated_transfer_time(scheme, content.len() as u64));
                        let mirror = c.staging_dir.join("outbound").join(format!(
                            "{:016x}-{}",
                            wire::fnv1a_str(&dest.url()),
                            dest.name()
                        ));
                        if let Some(parent) = mirror.parent() {
                            std::fs::create_dir_all(parent)
                                .map_err(|e| AppError::msg(format!("mkdir: {e}")))?;
                        }
                        std::fs::write(&mirror, &content)
                            .map_err(|e| AppError::msg(format!("write mirror: {e}")))?;
                        Ok(StagedFile {
                            local_path: mirror.to_string_lossy().into_owned(),
                            bytes: content.len() as u64,
                        })
                    }
                }
            },
        );

        DataManager {
            stage_local,
            stage_http_ftp,
            stage_globus,
            stage_out_app,
            cache: cfg.cache_budget_bytes.map(StagingCache::new),
            wan_bytes,
        }
    }

    /// Make `file` available locally; returns the future of its staged
    /// form. Passing this future to an app creates the paper's dynamic
    /// data dependency.
    ///
    /// Remote files carry a declared output [`DataRef`] so the kernel's
    /// `DataMap` learns which executor holds the staged copy, and — when
    /// [`DataManagerConfig::cache_budget_bytes`] is set — flow through the
    /// [`StagingCache`]: a resident URL resolves with no task at all, and
    /// concurrent requests for the same URL share one transfer.
    pub fn stage_in(&self, file: File) -> AppFuture<StagedFile> {
        if file.scheme == Scheme::Local {
            return parsl_core::call!(self.stage_local, file);
        }
        match &self.cache {
            Some(cache) => {
                let key = wire::fnv1a_str(&file.url());
                cache.get_or_stage(key, || self.dispatch_remote(file))
            }
            None => self.dispatch_remote(file),
        }
    }

    /// Submit the staging task for a remote `file`, hinted with the
    /// expected size of the staged output so routing can account for it.
    fn dispatch_remote(&self, file: File) -> AppFuture<StagedFile> {
        let url = file.url();
        let hints = DataHints::producing(DataRef::from_url(&url, synthetic_size(&url)));
        let app = match file.scheme {
            Scheme::Globus => &self.stage_globus,
            _ => &self.stage_http_ftp,
        };
        app.invoke().hints(hints).call((Dep::value(file),))
    }

    /// Expected size of `file` once staged: the on-disk size for local
    /// files (zero if unreadable), the deterministic synthetic size for
    /// remote ones. Lets callers build input hints before any transfer
    /// has run.
    pub fn expected_bytes(file: &File) -> u64 {
        match file.scheme {
            Scheme::Local => std::fs::metadata(&file.path).map(|m| m.len()).unwrap_or(0),
            _ => synthetic_size(&file.url()),
        }
    }

    /// The [`DataRef`] describing `file` in the kernel's data plane —
    /// same key and size the staging task declares as its output, so a
    /// task hinted with this ref is pulled toward the staged copy.
    pub fn data_ref(file: &File) -> DataRef {
        DataRef::from_url(&file.url(), Self::expected_bytes(file))
    }

    /// Total bytes pulled across the simulated WAN by this manager's
    /// transfer tasks (stage-ins only; cache hits add nothing here).
    pub fn wan_bytes(&self) -> u64 {
        self.wan_bytes.load(Ordering::Relaxed)
    }

    /// Staging-cache counters, when a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Ship a produced file to `dest` (local copy or simulated upload).
    pub fn stage_out(&self, src: StagedFile, dest: File) -> AppFuture<StagedFile> {
        parsl_core::call!(self.stage_out_app, src, dest)
    }
}

/// Shared body of the simulated HTTP/FTP/Globus fetch.
fn simulate_fetch(
    cfg: &DataManagerConfig,
    wan: &AtomicU64,
    f: &File,
) -> Result<StagedFile, AppError> {
    let url = f.url();
    let bytes = synthetic_size(&url);
    std::thread::sleep(cfg.simulated_transfer_time(f.scheme, bytes));
    wan.fetch_add(bytes, Ordering::Relaxed);
    let content = synthetic_content(&url, bytes);
    let local = cfg
        .staging_dir
        .join(format!("{:016x}-{}", wire::fnv1a_str(&url), f.name()));
    std::fs::create_dir_all(&cfg.staging_dir)
        .map_err(|e| AppError::msg(format!("staging dir: {e}")))?;
    std::fs::write(&local, &content)
        .map_err(|e| AppError::msg(format!("write staged file: {e}")))?;
    Ok(StagedFile {
        local_path: local.to_string_lossy().into_owned(),
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_content_is_stable_and_sized() {
        let a = synthetic_content("http://h/x", 100);
        let b = synthetic_content("http://h/x", 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let c = synthetic_content("http://h/y", 100);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_sizes_in_range() {
        for url in ["a", "b", "http://host/some/file"] {
            let s = synthetic_size(url);
            assert!((10_000..100_000).contains(&s), "{s}");
        }
    }
}
