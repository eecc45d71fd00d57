//! Facade crate: re-exports the `parsl-rs` runtime's public API.
//!
//! The simulators (`simnet`, `simcluster`) and the comparison systems
//! (`baselines`) serve the paper-figure binaries and the tests; this crate
//! does not link them.
//!
//! See the README for a tour. The typical entry point is
//! [`parsl_core::DataFlowKernel`].
//!
//! # Quickstart
//!
//! ```
//! use parsl::prelude::*;
//!
//! let dfk = DataFlowKernel::builder()
//!     .executor(parsl::executors::ThreadPoolExecutor::new(2))
//!     .build()
//!     .unwrap();
//!
//! // @python_app equivalent: returns a future immediately.
//! let square = dfk.python_app("square", |x: i64| x * x);
//! let add = dfk.python_app("add", |a: i64, b: i64| a + b);
//!
//! // Futures as arguments become dependency edges: add(square(3), square(4)).
//! let a = parsl::core::call!(square, 3);
//! let b = parsl::core::call!(square, 4);
//! let c = parsl::core::call!(add, a, b);
//! assert_eq!(c.result().unwrap(), 25);
//! dfk.shutdown();
//! ```

pub use minimpi;
pub use nexus;
pub use parsl_core as core;
pub use parsl_data as data;
pub use parsl_executors as executors;
pub use parsl_monitor as monitor;
pub use parsl_providers as providers;
pub use wire;

pub use parsl_core::prelude;
pub use parsl_core::prelude::*;
