//! # dw-multiview
//!
//! The multi-view warehouse layer: many SPJ views, one sweep.
//!
//! The paper maintains a single view `V = Π σ (R_1 ⋈ … ⋈ R_n)`. A real
//! warehouse hosts **many** views over overlapping source sets, and
//! maintaining each one independently repeats the same source
//! round-trips. This crate adds:
//!
//! * a [`ViewRegistry`] — register/deregister SPJ views at runtime, each
//!   a contiguous span `[lo, hi]` of one shared base chain with its own
//!   selections, projection, and maintenance cadence
//!   ([`dw_workload::ViewPolicy`]: SWEEP, Nested-SWEEP-style batching,
//!   or deferred refresh);
//! * a [`MaintenanceScheduler`] — on arrival of `ΔR_j` it fans out to
//!   every registered view referencing `R_j` and executes a **shared
//!   sweep**: one two-leg pass over the *union* of the affected spans,
//!   issuing a single incremental query per source hop. Each view peels
//!   its own delta off the shared pass by snapshotting the in-flight
//!   partials at its span endpoints and merging them on the pivot
//!   relation's columns; per-view σ/Π are applied at the warehouse.
//!   The paper's on-line error correction (§4) runs once per hop on the
//!   shared partial, so every view inherits it.
//! * a **maintenance DAG** — derived views registered *over* other views
//!   ([`ViewRegistry::register_derived`], specs from
//!   [`dw_workload::DerivedSpec`]): σ/Π and Σ/group-by operators, stacks
//!   over stacks, cycles and unknown parents rejected deterministically
//!   at registration. Derived views are **never swept**: when a parent
//!   commits an install, the signed delta cascades to each child locally
//!   at the warehouse — children ascending by slot, depth-first, each
//!   child's install consuming the *same* update ids as the parent so
//!   the install logs stay 1:1 epoch-aligned. Identical sibling σ/Π
//!   derivations are evaluated once and shared ([`CascadeStats`] counts
//!   the memo hits); aggregate children each fold the delta into their
//!   own accumulators (group state mutates exactly once, so Σ work is
//!   never shared). The cascade rides the sharded engine's sequenced
//!   install releases and the durability WAL replay unchanged.
//!
//! The flat [`MaintenanceScheduler`] and the partitioned
//! [`ShardedScheduler`] both implement [`MultiViewScheduler`], the one
//! face harnesses (the simulator's experiment builder, the live runtime)
//! drive either through.
//!
//! The message-cost win (experiment E14): a shared sweep costs at most
//! `2(n−1)` messages per update **regardless of how many views**
//! reference `R_j`, where naive per-view maintenance costs `V·2(n−1)`.
//! The DAG extends it (experiment E20): a derived stack of any depth
//! adds **zero** source messages — the `2(n−1)` toll is paid exactly
//! once at the base layer.
//!
//! ## Why span snapshots are sound
//!
//! The base chain carries no selections and an identity projection, so
//! every query/answer and every compensation happens on *unfiltered*
//! join tuples. Selection commutes with join, and bag subtraction
//! distributes over filtering — so filtering the compensated span
//! partial per view yields exactly what a dedicated per-view SWEEP
//! would have computed. The FIFO channel argument (§5) is per-hop and
//! does not care which sweep the hop belongs to.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod face;
mod registry;
mod scheduler;
mod sharded;

pub use dw_engine::{DurabilityConfig, EngineOptions};
pub use face::MultiViewScheduler;
pub use registry::{CascadeStats, MvError, ViewId, ViewRegistry};
pub use scheduler::{MaintenanceScheduler, RecoveryStats, SchedulerMode};
pub use sharded::{ShardStats, ShardedScheduler};
