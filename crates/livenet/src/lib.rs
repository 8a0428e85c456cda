//! # dw-livenet
//!
//! A real-concurrency runtime for the same node state machines that run in
//! the deterministic simulator: every source and the warehouse get an OS
//! thread, messages travel over `std::sync::mpsc` FIFO channels, and time is the
//! wall clock. Nothing in `dw-source`/`dw-warehouse` changes — both worlds
//! talk through [`dw_simnet::NetHandle`] — so a livenet run demonstrates
//! that the algorithms' correctness does not depend on simulator artifacts
//! (fixture for the "livenet vs simnet agreement" integration tests).
//!
//! Delivery order across threads is decided by the OS scheduler, so a live
//! run is *not* reproducible; the right assertions are convergence (final
//! view equals the ground-truth evaluation of all transactions) and the
//! policy's own invariants, not install-by-install traces.

#![warn(missing_docs)]

pub mod cluster;
pub mod multiview;

pub use cluster::{run_live, LiveError, LiveReport};
pub use multiview::{run_live_multiview, LiveMultiViewReport, LiveServe, LiveViewOutcome};
