//! `parsl-data` — files and wide-area data management (§4.5).
//!
//! "Parsl provides a file abstraction to allow file references between
//! Apps ... When a remote file is passed to/from an App, the Parsl data
//! manager first inspects the file to see if it is available on the
//! compute resource. If the file is not yet available, Parsl creates a
//! dynamic data dependency between the App(s) that require the file as
//! input and a new (transparent) data transfer task."
//!
//! The reproduction:
//!
//! - [`File`] carries a scheme (`local` / `http` / `ftp` / `globus`) and a
//!   path, parsed from URL-ish strings;
//! - [`DataManager::stage_in`] turns a remote file into a **staging task**
//!   on the DataFlowKernel and returns its future. Passing that future to
//!   an app is precisely the paper's dynamic data dependency: the app
//!   launches only when the transfer completes, and receives the local
//!   [`StagedFile`] path (transparent path translation);
//! - HTTP/FTP transfers run as ordinary tasks on whichever executor the
//!   DFK picks ("executed by the executor"); Globus transfers can be
//!   pinned to a dedicated executor, standing in for third-party transfer
//!   executed by the data manager itself;
//! - the wide-area network is simulated: per-scheme latency + bandwidth
//!   delays, with deterministic synthetic content for "remote" files (the
//!   substitution documented in docs/ARCHITECTURE.md §4.6).

mod cache;
mod file;
mod manager;

pub use cache::{CacheStats, StagingCache};
pub use file::{File, Scheme};
pub use manager::{DataManager, DataManagerConfig, StagedFile};

#[cfg(test)]
mod tests {
    use super::*;
    use parsl_core::prelude::*;
    use std::sync::Arc;

    fn dfk() -> Arc<DataFlowKernel> {
        DataFlowKernel::builder()
            .executor(ImmediateExecutor::new())
            .build()
            .unwrap()
    }

    #[test]
    fn parse_schemes() {
        assert_eq!(File::parse("/tmp/x.dat").scheme, Scheme::Local);
        assert_eq!(File::parse("http://host/path/d.csv").scheme, Scheme::Http);
        assert_eq!(File::parse("ftp://host/d.bin").scheme, Scheme::Ftp);
        let g = File::parse("globus://endpoint-uuid/share/genome.fa");
        assert_eq!(g.scheme, Scheme::Globus);
        assert!(g.path.contains("genome.fa"));
        assert_eq!(g.name(), "genome.fa");
    }

    #[test]
    fn local_files_stage_without_transfer() {
        let dir = std::env::temp_dir().join(format!("parsl-data-local-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("input.txt");
        std::fs::write(&src, b"local bytes").unwrap();

        let dfk = dfk();
        let dm = DataManager::new(&dfk, DataManagerConfig::default());
        let fut = dm.stage_in(File::parse(src.to_str().unwrap()));
        let staged = fut.result().unwrap();
        assert_eq!(std::fs::read(&staged.local_path).unwrap(), b"local bytes");
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remote_file_creates_transfer_task_and_dependency() {
        let dfk = dfk();
        let dm = DataManager::new(&dfk, DataManagerConfig::default());
        let before = dfk.task_count();
        let staged = dm.stage_in(File::parse("http://data.example.org/set1/blob.bin"));

        // The transfer is a real task in the graph.
        assert_eq!(dfk.task_count(), before + 1);

        // An app consuming the staged future runs after the transfer.
        let count = dfk.python_app("count", |f: StagedFile| {
            std::fs::read(&f.local_path)
                .map(|b| b.len() as u64)
                .unwrap_or(0)
        });
        let n = parsl_core::call!(count, staged.clone());
        let len = n.result().unwrap();
        assert!(len > 0, "synthesized remote content must be non-empty");
        assert_eq!(len, staged.result().unwrap().bytes);
        dfk.shutdown();
    }

    #[test]
    fn synthetic_remote_content_is_deterministic() {
        let dfk = dfk();
        let dm = DataManager::new(&dfk, DataManagerConfig::default());
        let a = dm
            .stage_in(File::parse("ftp://host/a.dat"))
            .result()
            .unwrap();
        let b = dm
            .stage_in(File::parse("ftp://host/a.dat"))
            .result()
            .unwrap();
        let c = dm
            .stage_in(File::parse("ftp://host/c.dat"))
            .result()
            .unwrap();
        let bytes_a = std::fs::read(&a.local_path).unwrap();
        let bytes_b = std::fs::read(&b.local_path).unwrap();
        let bytes_c = std::fs::read(&c.local_path).unwrap();
        assert_eq!(bytes_a, bytes_b, "same URL => same simulated content");
        assert_ne!(bytes_a, bytes_c, "different URL => different content");
        dfk.shutdown();
    }

    #[test]
    fn globus_pinned_to_data_manager_executor() {
        use parking_lot::Mutex;
        use parsl_core::monitor::{MonitorEvent, MonitorSink};
        #[derive(Default)]
        struct Capture(Mutex<Vec<(String, String)>>);
        impl MonitorSink for Capture {
            fn on_event(&self, e: &MonitorEvent) {
                if let MonitorEvent::Task {
                    app,
                    state: parsl_core::types::TaskState::Launched,
                    executor: Some(l),
                    ..
                } = e
                {
                    self.0.lock().push((app.to_string(), l.clone()));
                }
            }
        }
        let sink = Arc::new(Capture::default());
        let dfk = DataFlowKernel::builder()
            .executor(ImmediateExecutor::with_label("compute"))
            .executor(ImmediateExecutor::with_label("dm"))
            .monitor(sink.clone())
            .build()
            .unwrap();
        let dm = DataManager::new(
            &dfk,
            DataManagerConfig {
                globus_executor: Some("dm".into()),
                ..Default::default()
            },
        );
        let staged = dm.stage_in(File::parse("globus://ep1/data/big.h5"));
        staged.result().unwrap();
        dfk.wait_for_all();
        let launched = sink.0.lock();
        let globus_tasks: Vec<_> = launched
            .iter()
            .filter(|(app, _)| app.contains("globus"))
            .collect();
        assert!(!globus_tasks.is_empty());
        assert!(globus_tasks.iter().all(|(_, l)| l == "dm"));
        dfk.shutdown();
    }

    #[test]
    fn cached_stage_in_runs_one_transfer_for_many_requests() {
        let dfk = dfk();
        let dm = DataManager::new(
            &dfk,
            DataManagerConfig {
                cache_budget_bytes: Some(10_000_000),
                ..Default::default()
            },
        );
        let before = dfk.task_count();
        let futs: Vec<_> = (0..8)
            .map(|_| dm.stage_in(File::parse("http://mirror.example.org/ref.fa")))
            .collect();
        let staged: Vec<_> = futs.iter().map(|f| f.result().unwrap()).collect();
        assert!(staged.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            dfk.task_count(),
            before + 1,
            "eight requests, one transfer task"
        );
        let s = dm.cache_stats().unwrap();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.coalesced, 7);
        assert_eq!(dm.wan_bytes(), staged[0].bytes);
        dfk.shutdown();
    }

    #[test]
    fn stage_out_copies_to_destination() {
        let dir = std::env::temp_dir().join(format!("parsl-data-out-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("result.txt");
        std::fs::write(&src, b"computed output").unwrap();
        let dst = dir.join("archive").join("result.txt");

        let dfk = dfk();
        let dm = DataManager::new(&dfk, DataManagerConfig::default());
        let fut = dm.stage_out(
            StagedFile {
                local_path: src.to_string_lossy().into_owned(),
                bytes: 15,
            },
            File::parse(dst.to_str().unwrap()),
        );
        fut.result().unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"computed output");
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transfer_time_scales_with_size_model() {
        // The simulated WAN: bigger synthetic files take longer. We don't
        // assert absolute times, only monotonicity of the model.
        let cfg = DataManagerConfig::default();
        let small = cfg.simulated_transfer_time(Scheme::Http, 1_000);
        let big = cfg.simulated_transfer_time(Scheme::Http, 10_000_000);
        assert!(big > small);
        // Globus (third-party, parallel streams) beats FTP on big files.
        let ftp = cfg.simulated_transfer_time(Scheme::Ftp, 100_000_000);
        let globus = cfg.simulated_transfer_time(Scheme::Globus, 100_000_000);
        assert!(globus < ftp);
    }
}
