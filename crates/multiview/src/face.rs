//! The one face both schedulers share.
//!
//! The flat [`MaintenanceScheduler`] and the partitioned
//! [`ShardedScheduler`] speak the same protocol and keep the same
//! registry; they differ in how a warehouse state crash is survived
//! (durable replay vs. re-seeding one shard's lane) and in the counters
//! they keep beside the registry. [`MultiViewScheduler`] captures exactly
//! that, so a harness — the simulator's experiment builder, the
//! thread-per-node live runtime — drives either one through a
//! `Box<dyn MultiViewScheduler>` without caring which.

use crate::registry::{MvError, ViewId, ViewRegistry};
use crate::scheduler::{MaintenanceScheduler, RecoveryStats};
use crate::sharded::{ShardStats, ShardedScheduler};
use dw_engine::{DurabilityConfig, DurableStats, SharedInstallPublisher};
use dw_obs::Obs;
use dw_protocol::Message;
use dw_relational::Bag;
use dw_simnet::{Delivery, NetHandle};
use dw_warehouse::{PolicyMetrics, WarehouseError};
use dw_workload::{DerivedSpec, ViewSpec};

/// What a harness needs from a multi-view warehouse scheduler.
pub trait MultiViewScheduler: Send {
    /// Register a base view with its correct initial contents.
    fn register(&mut self, spec: &ViewSpec, initial: Bag) -> Result<ViewId, MvError>;

    /// Register a batch of derived (view-over-view) specs in dependency
    /// order.
    fn register_derived_many(&mut self, specs: &[DerivedSpec]) -> Result<Vec<ViewId>, MvError>;

    /// Toggle per-install view snapshots.
    fn set_record_snapshots(&mut self, record: bool);

    /// Route traces/counters to a shared observer.
    fn set_observer(&mut self, obs: Obs);

    /// Attach the install publisher (the serving layer's sink).
    fn set_install_publisher(&mut self, p: SharedInstallPublisher);

    /// Arm durable checkpoints + sweep WAL, after registration. Refused
    /// by the sharded engine, which survives crashes per shard instead.
    fn enable_durability(&mut self, cfg: DurabilityConfig) -> Result<(), MvError>;

    /// Handle one delivery addressed to the warehouse.
    fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError>;

    /// A warehouse state-crash window just healed. The flat engine
    /// rebuilds from its durable store (a no-op with durability unarmed);
    /// the sharded engine re-seeds the lane of the crashed `shard` (an
    /// unscoped restart has nothing to replay there).
    fn restart(
        &mut self,
        shard: Option<usize>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError>;

    /// Read access to the registry (per-view bags, metrics, logs).
    fn views(&self) -> &ViewRegistry;

    /// Aggregate engine counters.
    fn metrics(&self) -> &PolicyMetrics;

    /// Nothing in flight, nothing queued.
    fn is_quiescent(&self) -> bool;

    /// Accumulated crash-recovery statistics (`None` on the sharded
    /// engine).
    fn recovery(&self) -> Option<RecoveryStats> {
        None
    }

    /// Durable-store write statistics (`None` until durability is armed).
    fn durable(&self) -> Option<DurableStats> {
        None
    }

    /// Sharding counters (`None` on the flat engine).
    fn shard_stats(&self) -> Option<&ShardStats> {
        None
    }
}

impl MultiViewScheduler for MaintenanceScheduler {
    fn register(&mut self, spec: &ViewSpec, initial: Bag) -> Result<ViewId, MvError> {
        MaintenanceScheduler::register(self, spec, initial)
    }
    fn register_derived_many(&mut self, specs: &[DerivedSpec]) -> Result<Vec<ViewId>, MvError> {
        MaintenanceScheduler::register_derived_many(self, specs)
    }
    fn set_record_snapshots(&mut self, record: bool) {
        MaintenanceScheduler::set_record_snapshots(self, record)
    }
    fn set_observer(&mut self, obs: Obs) {
        MaintenanceScheduler::set_observer(self, obs)
    }
    fn set_install_publisher(&mut self, p: SharedInstallPublisher) {
        MaintenanceScheduler::set_install_publisher(self, p)
    }
    fn enable_durability(&mut self, cfg: DurabilityConfig) -> Result<(), MvError> {
        MaintenanceScheduler::enable_durability(self, cfg);
        Ok(())
    }
    fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        MaintenanceScheduler::on_message(self, delivery, net)
    }
    fn restart(
        &mut self,
        _shard: Option<usize>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        self.crash_and_recover(net).map(|_| ())
    }
    fn views(&self) -> &ViewRegistry {
        MaintenanceScheduler::views(self)
    }
    fn metrics(&self) -> &PolicyMetrics {
        MaintenanceScheduler::metrics(self)
    }
    fn is_quiescent(&self) -> bool {
        MaintenanceScheduler::is_quiescent(self)
    }
    fn recovery(&self) -> Option<RecoveryStats> {
        Some(self.recovery_stats())
    }
    fn durable(&self) -> Option<DurableStats> {
        self.durable_stats()
    }
}

impl MultiViewScheduler for ShardedScheduler {
    fn register(&mut self, spec: &ViewSpec, initial: Bag) -> Result<ViewId, MvError> {
        ShardedScheduler::register(self, spec, initial)
    }
    fn register_derived_many(&mut self, specs: &[DerivedSpec]) -> Result<Vec<ViewId>, MvError> {
        ShardedScheduler::register_derived_many(self, specs)
    }
    fn set_record_snapshots(&mut self, record: bool) {
        ShardedScheduler::set_record_snapshots(self, record)
    }
    fn set_observer(&mut self, obs: Obs) {
        ShardedScheduler::set_observer(self, obs)
    }
    fn set_install_publisher(&mut self, p: SharedInstallPublisher) {
        ShardedScheduler::set_install_publisher(self, p)
    }
    fn enable_durability(&mut self, _cfg: DurabilityConfig) -> Result<(), MvError> {
        Err(MvError::Warehouse(WarehouseError::Config {
            reason: "sharded scheduler does not support durability (crashes are shard-scoped)"
                .into(),
        }))
    }
    fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        ShardedScheduler::on_message(self, delivery, net)
    }
    fn restart(
        &mut self,
        shard: Option<usize>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        match shard {
            Some(s) => self.crash_shard(s, net),
            None => Ok(()),
        }
    }
    fn views(&self) -> &ViewRegistry {
        ShardedScheduler::views(self)
    }
    fn metrics(&self) -> &PolicyMetrics {
        ShardedScheduler::metrics(self)
    }
    fn is_quiescent(&self) -> bool {
        ShardedScheduler::is_quiescent(self)
    }
    fn shard_stats(&self) -> Option<&ShardStats> {
        Some(self.stats())
    }
}
