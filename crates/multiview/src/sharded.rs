//! The sharded warehouse scheduler: S per-shard sweeps in flight at
//! once, one global install order.
//!
//! ## Partitioned concurrency, unchanged deltas
//!
//! A [`ShardMap`] bands every attribute *value* into one of `S` shards.
//! A tuple is **pure** in shard `s` when every one of its values lands
//! in `s`; pure tuples of different shards can never join (equality
//! joins compare values, and the bands are disjoint). That disjointness
//! is the whole concurrency argument: a sweep whose delta is pure in
//! shard `s` only ever meets shard-`s` tuples, so sweeps over *distinct*
//! shards touch disjoint data and may run concurrently without ever
//! seeing each other.
//!
//! Impure tuples (values straddling bands) break the argument, so the
//! scheduler tracks **shard groups** — a union-find over bands. Every
//! individually-impure resident tuple (in the initial data, or installed
//! later by an escalated sweep) unions the bands it straddles; a sweep
//! then runs per *group*, scoping its queries to the group's band mask
//! (sources keep the join matches that are impure or pure in a scoped
//! band, see [`dw_relational::ShardScope::admits`]). An update whose
//! delta is not pure in a single group **escalates** to a global sweep
//! that runs alone — the classic SWEEP, queue fence and all.
//!
//! ## One queue, full compensation
//!
//! All lanes share one [`EngineCore`] — one FIFO update queue, one qid
//! space, one metrics block. Every hop compensates against the *full*
//! queue exactly as the unsharded engine does: queued updates pure in a
//! foreign group join the lane's `TempView` to an empty error term
//! (disjoint bands), so the subtraction is a no-op for them and exact
//! for same-group interferers. The per-update install deltas are
//! therefore *identical* to the unsharded engine's — concurrency changes
//! when answers arrive, never what they add up to.
//!
//! ## One install order
//!
//! Lanes finish out of arrival order; installs must not. An
//! [`InstallSequencer`] ticket is issued for every update the moment it
//! arrives, and finished sweeps are buffered until every earlier ticket
//! has released — so the install order is arrival order, the same order
//! the unsharded scheduler installs in (the conformance suite holds the
//! two engines to byte equality on this).
//!
//! ## Shard-scoped crashes
//!
//! [`ShardedScheduler::crash_shard`] models one shard's sweep worker
//! dying: its in-flight lane is aborted, the outstanding qids are
//! poisoned (late answers are counted and dropped), and the *same* task
//! is re-seeded immediately with fresh qids. Other lanes never stop —
//! "surviving shards keep installing" is the recovery suite's claim.

use crate::registry::{MvError, ViewId, ViewRegistry};
use crate::scheduler::finalize_for_view;
use dw_engine::{
    dispatch, merge_pivot, support, EngineCore, EngineOptions, InstallSequencer, Leg, LegSlot,
    SequencedInstall, SpanLabels, SweepPolicy,
};
use dw_obs::Obs;
use dw_protocol::{Message, SourceUpdate, UpdateId};
use dw_relational::{Bag, DeltaClass, JoinSide, PartialDelta, ShardMap, ShardScope, ViewDef};
use dw_simnet::{Delivery, NetHandle, Time};
use dw_warehouse::PolicyMetrics;
use dw_workload::{DerivedSpec, ViewSpec};
use std::collections::{HashMap, HashSet};

/// The sharded scheduler's trace vocabulary.
const SHARD_LABELS: SpanLabels = SpanLabels {
    sweep: "shard.sweep",
    hop: "shard.hop",
    compensations: "shard.compensations",
    query_rows: None,
    comp_rows: None,
    query_counter: Some("shard.queries"),
};

/// Lane key of the escalated global sweep (never a valid shard root —
/// shard counts are capped at 64).
const GLOBAL: usize = usize::MAX;

/// Counters the sharded scheduler keeps on top of [`PolicyMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Updates that escalated to a global (unscoped, solo) sweep.
    pub escalations: u64,
    /// Updates serviced by a shard-scoped lane.
    pub shard_local: u64,
    /// Updates skipped because no registered view referenced their
    /// source (their sequencer slot released empty).
    pub skipped: u64,
    /// [`ShardedScheduler::crash_shard`] invocations (no-op ones
    /// included).
    pub shard_crashes: u64,
    /// Lanes aborted by a crash and re-seeded with fresh qids.
    pub sweeps_reseeded: u64,
    /// Answers to a crashed lane's poisoned qids, dropped on arrival.
    pub stale_answers_dropped: u64,
    /// Every lane completion: `(lane key, finish time)`. The key is the
    /// group root, or `usize::MAX` for the global lane. The recovery
    /// suite reads this to prove surviving shards kept sweeping through
    /// another shard's crash window.
    pub completions: Vec<(usize, Time)>,
    /// High-water mark of concurrently in-flight lanes.
    pub max_concurrent_lanes: usize,
}

/// One unit of lane work — the sharded analogue of the unsharded
/// scheduler's `SweepTask`, plus its sequencer ticket. Kept whole so a
/// shard crash can re-seed the identical task.
struct LaneTask {
    ticket: u64,
    consumed: Vec<(UpdateId, Time)>,
    j: usize,
    delta: Bag,
    lo: usize,
    hi: usize,
    views: Vec<ViewId>,
}

/// An in-flight per-group sweep: the task, the two legs, and the
/// per-view span-endpoint snapshots (same peeling as the shared sweep).
struct Lane {
    task: LaneTask,
    /// Query scope stamped on every hop: the group's band mask for a
    /// shard-local lane, `None` (full relations) for the global lane.
    scope: Option<ShardScope>,
    /// Band masks of the escalated delta's individually-impure tuples —
    /// installed residents that union their bands when the global lane
    /// finishes. Empty for shard-local lanes.
    escalate_masks: Vec<u64>,
    left: LegSlot,
    right: LegSlot,
    left_snaps: Vec<(ViewId, PartialDelta)>,
    right_snaps: Vec<(ViewId, PartialDelta)>,
}

/// What one queue scan decided to do (decisions are collected first,
/// executed after — the scan must not mutate the queue it walks).
enum Action {
    /// No registered view references the update's source: drop it and
    /// release its sequencer slot empty.
    Skip { id: UpdateId },
    /// Start a shard-local lane for group root `key`.
    Launch {
        update: SourceUpdate,
        at: Time,
        key: usize,
        mask: u64,
    },
    /// Start the global lane (queue head, nothing else in flight).
    Escalate {
        update: SourceUpdate,
        at: Time,
        masks: Vec<u64>,
    },
}

/// The sharded maintenance scheduler (see module docs). Speaks the same
/// `SweepQuery`/`SweepAnswer` protocol as every other engine adapter;
/// the only wire difference is the `scope` it stamps on queries.
pub struct ShardedScheduler {
    core: EngineCore,
    registry: ViewRegistry,
    map: ShardMap,
    /// Union-find parent vector over shard bands (roots are minimal —
    /// deterministic group naming).
    dsu: Vec<usize>,
    /// In-flight lanes, keyed by group root ([`GLOBAL`] for the
    /// escalated lane). At most one lane per key.
    lanes: HashMap<usize, Lane>,
    sequencer: InstallSequencer,
    /// Ticket issued at arrival for every update, claimed at launch.
    tickets: HashMap<UpdateId, u64>,
    /// In-flight qid → lane key.
    qid_routes: HashMap<u64, usize>,
    /// Qids of crash-aborted legs; their answers are dropped, counted.
    dead_qids: HashSet<u64>,
    stats: ShardStats,
    record_snapshots: bool,
}

impl ShardedScheduler {
    /// New sharded scheduler over a selection-free, identity-projection
    /// base chain, partitioned by `map`, with default engine options.
    pub fn new(base: ViewDef, map: ShardMap) -> Result<Self, MvError> {
        Self::with_options(base, map, EngineOptions::default())
    }

    /// New sharded scheduler with explicit options. Cross-update
    /// batching and σ pushdown are refused: batching folds queue entries
    /// a concurrent lane may need for compensation, and pushdown's
    /// predicate algebra has not been proven against scoped slices.
    pub fn with_options(
        base: ViewDef,
        map: ShardMap,
        opts: EngineOptions,
    ) -> Result<Self, MvError> {
        opts.validate()?;
        if opts.batch_width() > 1 {
            return Err(MvError::Warehouse(dw_warehouse::WarehouseError::Config {
                reason: format!(
                    "sharded scheduler does not support cross-update batching (batch={})",
                    opts.batch_width()
                ),
            }));
        }
        if opts.pushdown {
            return Err(MvError::Warehouse(dw_warehouse::WarehouseError::Config {
                reason: "sharded scheduler does not support predicate pushdown".into(),
            }));
        }
        let registry = ViewRegistry::new(base.clone())?;
        let dsu = (0..map.shards()).collect();
        Ok(ShardedScheduler {
            core: EngineCore::new(base, SHARD_LABELS),
            registry,
            map,
            dsu,
            lanes: HashMap::new(),
            sequencer: InstallSequencer::new(),
            tickets: HashMap::new(),
            qid_routes: HashMap::new(),
            dead_qids: HashSet::new(),
            stats: ShardStats::default(),
            record_snapshots: true,
        })
    }

    /// The partitioner.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Fold one base relation's *initial* contents into the shard
    /// groups: every individually-impure tuple unions the bands it
    /// straddles. Call once per relation before traffic starts —
    /// resident impure tuples a lane could join must already have
    /// collapsed their bands into one group, or scoped sweeps would
    /// wrongly run concurrently against shared rows.
    pub fn seed_groups(&mut self, initial: &Bag) {
        for (t, _) in initial.iter() {
            let mask = self.map.tuple_bands(t);
            if mask.count_ones() > 1 {
                self.union_mask(mask);
            }
        }
    }

    /// Register a view (same contract as the unsharded scheduler's
    /// `register`).
    pub fn register(&mut self, spec: &ViewSpec, initial: Bag) -> Result<ViewId, MvError> {
        let id = self.registry.register(spec, initial)?;
        self.registry.runtime_mut(id)?.record_snapshots = self.record_snapshots;
        Ok(id)
    }

    /// Register a derived view (same contract as the unsharded
    /// scheduler's `register_derived`): children are fed by the install
    /// cascade when the sequencer releases their parent's install.
    pub fn register_derived(&mut self, spec: &DerivedSpec) -> Result<ViewId, MvError> {
        let id = self.registry.register_derived(spec)?;
        self.registry.runtime_mut(id)?.record_snapshots = self.record_snapshots;
        Ok(id)
    }

    /// Register a batch of derived specs in dependency order.
    pub fn register_derived_many(&mut self, specs: &[DerivedSpec]) -> Result<Vec<ViewId>, MvError> {
        let ids = self.registry.register_derived_many(specs)?;
        for &id in &ids {
            self.registry.runtime_mut(id)?.record_snapshots = self.record_snapshots;
        }
        Ok(ids)
    }

    /// Deregister a view. Refused until fully drained — with concurrent
    /// lanes "a sweep that feeds it" is any in-flight or queued work.
    pub fn deregister(&mut self, id: ViewId) -> Result<(), MvError> {
        if !self.is_quiescent() {
            return Err(MvError::ViewBusy {
                name: self.registry.name(id)?.to_string(),
            });
        }
        self.registry.deregister(id)
    }

    /// Read access to the registry (per-view bags, metrics, logs).
    pub fn views(&self) -> &ViewRegistry {
        &self.registry
    }

    /// Aggregate engine metrics (shared across all lanes).
    pub fn metrics(&self) -> &PolicyMetrics {
        &self.core.metrics
    }

    /// Sharding counters.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// No lane in flight, no queued update, every ticket released.
    pub fn is_quiescent(&self) -> bool {
        self.lanes.is_empty() && self.core.queue.is_empty() && self.sequencer.is_drained()
    }

    /// Lanes currently in flight.
    pub fn active_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The band mask of the group shard `s` currently belongs to.
    pub fn group_mask_of(&self, s: usize) -> u64 {
        self.group_mask(self.find(s))
    }

    /// Toggle per-install view snapshots (consistency checker on, big
    /// benchmark runs off).
    pub fn set_record_snapshots(&mut self, record: bool) {
        self.record_snapshots = record;
        for rt in self.registry.runtimes_mut() {
            rt.record_snapshots = record;
        }
    }

    /// Route traces/counters to a shared observer.
    pub fn set_observer(&mut self, obs: Obs) {
        self.core.set_observer(obs);
    }

    /// Attach an install publisher (same contract as the unsharded
    /// scheduler's `set_install_publisher`). Installs are announced when
    /// the sequencer releases them, so the published epoch stream is in
    /// install-ticket order even though lanes complete out of order.
    pub fn set_install_publisher(&mut self, p: dw_engine::SharedInstallPublisher) {
        self.registry.set_install_publisher(p);
    }

    /// Handle one delivery addressed to the warehouse.
    pub fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        dispatch(self, delivery, net)
    }

    /// Crash shard `s`'s sweep worker: abort the lane of `s`'s group (or
    /// the global lane, which sweeps on every shard's behalf), poison
    /// its outstanding qids, and re-seed the identical task with fresh
    /// qids. Lanes of other groups are untouched. A crash with nothing
    /// in flight for `s` only counts the crash.
    pub fn crash_shard(
        &mut self,
        s: usize,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        self.stats.shard_crashes += 1;
        self.core.obs.add("shard.crashes", 1);
        let root = self.find(s);
        let key = if self.lanes.contains_key(&root) {
            root
        } else if self.lanes.contains_key(&GLOBAL) {
            GLOBAL
        } else {
            return Ok(());
        };
        let lane = self.lanes.remove(&key).expect("key checked above");
        for slot in [&lane.left, &lane.right] {
            if let LegSlot::Running(leg) = slot {
                self.qid_routes.remove(&leg.qid);
                self.dead_qids.insert(leg.qid);
            }
        }
        self.stats.sweeps_reseeded += 1;
        self.core.obs.add("shard.sweeps_reseeded", 1);
        self.begin_lane(net, lane.task, key, lane.scope, lane.escalate_masks)
    }

    // ---- union-find over shard bands ------------------------------------

    fn find(&self, mut s: usize) -> usize {
        while self.dsu[s] != s {
            s = self.dsu[s];
        }
        s
    }

    /// Union every band set in `mask` into one group (rooted at the
    /// lowest band, so roots are deterministic).
    fn union_mask(&mut self, mask: u64) {
        let first = mask.trailing_zeros() as usize;
        let mut root = self.find(first);
        for b in (first + 1)..self.map.shards() {
            if mask & (1 << b) != 0 {
                let rb = self.find(b);
                if rb != root {
                    let (lo, hi) = (root.min(rb), root.max(rb));
                    self.dsu[hi] = lo;
                    root = lo;
                }
            }
        }
    }

    /// Band mask of the group rooted at `root`.
    fn group_mask(&self, root: usize) -> u64 {
        let mut mask = 0u64;
        for b in 0..self.map.shards() {
            if self.find(b) == root {
                mask |= 1 << b;
            }
        }
        mask
    }

    // ---- scheduling -----------------------------------------------------

    /// Walk the queue in arrival order and decide what may start now.
    /// Rules (the correctness core — see module docs):
    ///
    /// * while the global lane runs, nothing starts;
    /// * a pure update may start iff its group has no lane in flight and
    ///   none was launched earlier in this same scan (first-per-group
    ///   keeps same-group FIFO); a claimed group's update stays queued —
    ///   the in-flight lane compensates for it;
    /// * an escalating update is a **fence**: it may start only from the
    ///   effective queue head with nothing in flight (its global sweep
    ///   compensates against the whole queue, so every prior update must
    ///   still *be* in the queue), and nothing behind it may start
    ///   before it does.
    fn plan_scan(&self) -> Vec<Action> {
        if self.lanes.contains_key(&GLOBAL) {
            return Vec::new();
        }
        let mut actions = Vec::new();
        let mut launched: HashSet<usize> = HashSet::new();
        let mut blocked_earlier = false;
        for pu in self.core.queue.iter() {
            let id = pu.update.id;
            if self.registry.affected_by(id.source).is_empty() {
                actions.push(Action::Skip { id });
                continue;
            }
            match self.map.classify_delta(&pu.update.delta) {
                DeltaClass::Escalate { impure_masks } => {
                    if self.lanes.is_empty() && launched.is_empty() && !blocked_earlier {
                        actions.push(Action::Escalate {
                            update: pu.update.clone(),
                            at: pu.arrived_at,
                            masks: impure_masks,
                        });
                    }
                    break; // fence: nothing behind an escalating update starts
                }
                class => {
                    // An empty delta is vacuously pure; route it through
                    // shard 0's lane so it still consumes its ticket the
                    // way the unsharded engine consumes the update.
                    let s = match class {
                        DeltaClass::Pure(s) => s,
                        _ => 0,
                    };
                    let key = self.find(s);
                    if self.lanes.contains_key(&key) || launched.contains(&key) {
                        blocked_earlier = true;
                        continue; // stays queued; the lane compensates
                    }
                    launched.insert(key);
                    actions.push(Action::Launch {
                        update: pu.update.clone(),
                        at: pu.arrived_at,
                        key,
                        mask: self.group_mask(key),
                    });
                }
            }
        }
        actions
    }

    /// Start everything the scan rules allow, then release sequenced
    /// installs. Loops because an inline-completing lane (single-relation
    /// span) frees its group for the next queued update immediately.
    fn pump(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), MvError> {
        loop {
            let actions = self.plan_scan();
            if actions.is_empty() {
                break;
            }
            for action in actions {
                match action {
                    Action::Skip { id } => {
                        self.core.queue.remove_ids(&[id]);
                        let ticket = self.tickets.remove(&id).expect("ticket issued at arrival");
                        self.sequencer.complete(ticket, None);
                        self.stats.skipped += 1;
                    }
                    Action::Launch {
                        update,
                        at,
                        key,
                        mask,
                    } => {
                        self.stats.shard_local += 1;
                        let scope = Some(ShardScope {
                            map: self.map.clone(),
                            mask,
                        });
                        self.launch_update(net, update, at, key, scope, Vec::new())?;
                    }
                    Action::Escalate { update, at, masks } => {
                        self.stats.escalations += 1;
                        self.core.obs.add("shard.escalations", 1);
                        self.launch_update(net, update, at, GLOBAL, None, masks)?;
                    }
                }
            }
        }
        self.drain_installs(net)
    }

    /// Remove `update` from the queue and start its lane.
    fn launch_update(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        update: SourceUpdate,
        at: Time,
        key: usize,
        scope: Option<ShardScope>,
        escalate_masks: Vec<u64>,
    ) -> Result<(), MvError> {
        // Out of the queue *before* any hop answer can compensate — a
        // sweep must never subtract its own delta.
        self.core.queue.remove_ids(&[update.id]);
        let j = update.id.source;
        let views = self.registry.affected_by(j);
        let (mut lo, mut hi) = (j, j);
        for &v in &views {
            let (vlo, vhi) = self.registry.span(v)?;
            lo = lo.min(vlo);
            hi = hi.max(vhi);
        }
        let ticket = self
            .tickets
            .remove(&update.id)
            .expect("ticket issued at arrival");
        let task = LaneTask {
            ticket,
            consumed: vec![(update.id, at)],
            j,
            delta: update.delta,
            lo,
            hi,
            views,
        };
        self.begin_lane(net, task, key, scope, escalate_masks)
    }

    /// Seed both legs, snapshot span-endpoint views, fire the first
    /// queries under the lane's scope. Also the crash-reseed path.
    fn begin_lane(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        task: LaneTask,
        key: usize,
        scope: Option<ShardScope>,
        escalate_masks: Vec<u64>,
    ) -> Result<(), MvError> {
        let j = task.j;
        self.core
            .obs
            .observe("mv.fanout_views", task.views.len() as u64);
        let left_seed = PartialDelta::seed(&self.core.view, j, &task.delta)?;
        let right_seed = PartialDelta {
            lo: j,
            hi: j,
            bag: support(&left_seed.bag),
        };
        let mut lane = Lane {
            task,
            scope,
            escalate_masks,
            left: LegSlot::Done(left_seed.clone()),
            right: LegSlot::Done(right_seed.clone()),
            left_snaps: Vec::new(),
            right_snaps: Vec::new(),
        };
        self.snapshot(&mut lane, j, JoinSide::Left, &left_seed)?;
        self.snapshot(&mut lane, j, JoinSide::Right, &right_seed)?;
        self.core.scope = lane.scope.clone();
        if j > lane.task.lo {
            let leg = Leg::launch(&mut self.core, net, left_seed, j - 1, JoinSide::Left);
            self.qid_routes.insert(leg.qid, key);
            lane.left = LegSlot::Running(leg);
        }
        if j < lane.task.hi {
            let leg = Leg::launch(&mut self.core, net, right_seed, j + 1, JoinSide::Right);
            self.qid_routes.insert(leg.qid, key);
            lane.right = LegSlot::Running(leg);
        }
        self.core.scope = None;
        if matches!(
            (&lane.left, &lane.right),
            (LegSlot::Done(_), LegSlot::Done(_))
        ) {
            return self.finish_lane(net, lane);
        }
        self.lanes.insert(key, lane);
        self.stats.max_concurrent_lanes = self.stats.max_concurrent_lanes.max(self.lanes.len());
        Ok(())
    }

    /// Record `partial` for every lane view whose span endpoint is the
    /// hop that just completed (same peeling as the shared sweep).
    fn snapshot(
        &self,
        lane: &mut Lane,
        k: usize,
        side: JoinSide,
        partial: &PartialDelta,
    ) -> Result<(), MvError> {
        for &v in &lane.task.views {
            let (lo, hi) = self.registry.span(v)?;
            match side {
                JoinSide::Left if lo == k => lane.left_snaps.push((v, partial.clone())),
                JoinSide::Right if hi == k => lane.right_snaps.push((v, partial.clone())),
                _ => {}
            }
        }
        Ok(())
    }

    fn answer(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        qid: u64,
        partial: PartialDelta,
    ) -> Result<(), MvError> {
        if self.dead_qids.remove(&qid) {
            self.stats.stale_answers_dropped += 1;
            self.core.obs.add("shard.stale_answers_dropped", 1);
            return Ok(());
        }
        let Some(key) = self.qid_routes.remove(&qid) else {
            return Err(MvError::Warehouse(
                dw_warehouse::WarehouseError::UnknownQuery { qid },
            ));
        };
        let mut lane = self.lanes.remove(&key).expect("routed qid has a lane");
        let use_left = matches!(&lane.left, LegSlot::Running(l) if l.qid == qid);
        let slot = if use_left {
            &mut lane.left
        } else {
            &mut lane.right
        };
        let LegSlot::Running(mut leg) = std::mem::replace(slot, LegSlot::Done(partial.clone()))
        else {
            unreachable!("routed qid matches a running leg");
        };
        self.core.end_hop(leg.hop, net.now());
        leg.dv = partial;
        let (k, side) = (leg.j, leg.side);
        let temp = leg.temp.clone();
        // Full-queue compensation: foreign-group queued deltas join the
        // scoped TempView to nothing, same-group ones subtract exactly.
        self.core.compensate(&mut leg.dv, &temp, k, side)?;
        self.snapshot(&mut lane, k, side, &leg.dv)?;
        let next = match side {
            JoinSide::Left if k > lane.task.lo => Some(k - 1),
            JoinSide::Left => None,
            JoinSide::Right if k < lane.task.hi => Some(k + 1),
            JoinSide::Right => None,
        };
        let slot = if use_left {
            &mut lane.left
        } else {
            &mut lane.right
        };
        match next {
            Some(nj) => {
                self.core.scope = lane.scope.clone();
                leg.advance(&mut self.core, net, nj, side);
                self.core.scope = None;
                self.qid_routes.insert(leg.qid, key);
                *slot = LegSlot::Running(leg);
            }
            None => *slot = LegSlot::Done(leg.dv),
        }
        if matches!(
            (&lane.left, &lane.right),
            (LegSlot::Done(_), LegSlot::Done(_))
        ) {
            self.finish_lane(net, lane)?;
            return self.pump(net);
        }
        self.lanes.insert(key, lane);
        self.drain_installs(net)
    }

    /// Both legs done: peel each view's delta off the lane's snapshots
    /// and hand the sequencer the install payload. Nothing installs here
    /// — the sequencer releases it when every earlier ticket has.
    fn finish_lane(&mut self, net: &mut dyn NetHandle<Message>, lane: Lane) -> Result<(), MvError> {
        let now = net.now();
        let task = lane.task;
        let mut deltas = Vec::with_capacity(task.views.len());
        for &v in &task.views {
            let left = lane
                .left_snaps
                .iter()
                .find(|(id, _)| *id == v)
                .map(|(_, p)| p)
                .expect("left leg visited every affected span start");
            let right = lane
                .right_snaps
                .iter()
                .find(|(id, _)| *id == v)
                .map(|(_, p)| p)
                .expect("right leg visited every affected span end");
            let merged = merge_pivot(&self.core.view, task.j, left, right);
            let delta = finalize_for_view(&self.registry.runtime(v)?.local, &merged)?;
            deltas.push((v.index(), delta));
        }
        // An escalated delta's impure tuples are residents now: their
        // bands share rows and must sweep as one group from here on.
        for mask in &lane.escalate_masks {
            self.union_mask(*mask);
        }
        self.core.record_batch(task.consumed.len());
        let lane_key = match &lane.scope {
            Some(scope) if lane.escalate_masks.is_empty() => {
                self.find(scope.mask.trailing_zeros() as usize)
            }
            _ => GLOBAL,
        };
        self.stats.completions.push((lane_key, now));
        self.sequencer.complete(
            task.ticket,
            Some(SequencedInstall {
                consumed: task.consumed,
                deltas,
            }),
        );
        Ok(())
    }

    /// Release every install whose ticket is next in order, then — at
    /// full drain, the same logical point where the unsharded scheduler
    /// drain-flushes — install policy-pending batches.
    fn drain_installs(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), MvError> {
        let now = net.now();
        for inst in self.sequencer.drain() {
            let consumed = inst.consumed;
            for (index, delta) in inst.deltas {
                let id = self
                    .registry
                    .ids()
                    .into_iter()
                    .find(|v| v.index() == index)
                    .ok_or(MvError::UnknownView { index })?;
                // Cascade inside the sequenced release: derived children
                // install immediately after their parent, still inside
                // this ticket's slot, so the global install order is
                // parent-then-children per released ticket.
                self.registry
                    .apply_with_cascade(id, &delta, &consumed, now)?;
            }
        }
        if self.is_quiescent() {
            self.registry.flush_all_with_cascade(now)?;
        }
        Ok(())
    }
}

impl SweepPolicy for ShardedScheduler {
    type Err = MvError;

    fn name(&self) -> &'static str {
        "sharded-sweep"
    }

    fn core(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn note_update(&mut self, u: &SourceUpdate, at: Time) -> Result<(), MvError> {
        // The ticket at arrival IS the install order — issued before any
        // scheduling decision, claimed at launch, released in order.
        let ticket = self.sequencer.issue();
        self.tickets.insert(u.id, ticket);
        for id in self.registry.affected_with_descendants(u.id.source) {
            self.registry.runtime_mut(id)?.metrics.updates_received += 1;
            if let Some(p) = self.registry.install_publisher() {
                p.lock()
                    .expect("install publisher poisoned")
                    .note_delivery(id.index(), u.id, at);
            }
        }
        Ok(())
    }

    fn kick(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), MvError> {
        self.pump(net)
    }

    fn on_answer(
        &mut self,
        qid: u64,
        partial: PartialDelta,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        self.answer(net, qid, partial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{MaintenanceScheduler, SchedulerMode};
    use dw_protocol::{node_source, source_node, WAREHOUSE_NODE};
    use dw_relational::{eval_view, tup, Schema, ViewDefBuilder};
    use dw_simnet::Network;
    use dw_source::DataSource;

    fn base3() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .build()
            .unwrap()
    }

    /// Initial data banded by `ShardMap::range(100, 2)`: shard 0 holds
    /// values 0..100, shard 1 the rest. Every tuple is pure.
    fn banded_initial() -> Vec<Bag> {
        vec![
            Bag::from_tuples([tup![1, 3], tup![101, 103]]),
            Bag::from_tuples([tup![3, 5], tup![103, 105]]),
            Bag::from_tuples([tup![5, 9], tup![105, 109]]),
        ]
    }

    /// Drive a sharded scheduler to quiescence over `txns`, crashing
    /// shards per `crash_on_first_answer`. Returns (scheduler, shadows).
    fn run_sharded(
        map: ShardMap,
        initial: Vec<Bag>,
        view_specs: &[ViewSpec],
        txns: &[(Time, usize, Bag)],
        crash_on_first_answer: &[usize],
    ) -> (ShardedScheduler, Vec<Bag>) {
        let base = base3();
        let mut sched = ShardedScheduler::new(base.clone(), map).unwrap();
        for bag in &initial {
            sched.seed_groups(bag);
        }
        for spec in view_specs {
            let local = spec.compile(&base).unwrap();
            let refs: Vec<&Bag> = initial[spec.lo..=spec.hi].iter().collect();
            sched
                .register(spec, eval_view(&local, &refs).unwrap())
                .unwrap();
        }
        let mut net: Network<Message> = Network::new(7);
        let mut sources: Vec<DataSource> = (0..3)
            .map(|i| {
                let mut r = dw_relational::BaseRelation::new(base.schema(i).clone());
                r.apply_delta(&initial[i]).unwrap();
                DataSource::new(i, base.clone(), r)
            })
            .collect();
        let mut shadows = initial;
        for &(at, src, ref delta) in txns {
            shadows[src].merge(delta);
            net.inject(
                at,
                source_node(src),
                Message::ApplyTxn {
                    rel: src,
                    delta: delta.clone(),
                    global: None,
                },
            );
        }
        let mut crashed = false;
        while let Some(d) = net.next() {
            if d.to == WAREHOUSE_NODE {
                if !crashed
                    && !crash_on_first_answer.is_empty()
                    && matches!(d.msg, Message::SweepAnswer { .. })
                {
                    crashed = true;
                    for &s in crash_on_first_answer {
                        sched.crash_shard(s, &mut net).unwrap();
                    }
                }
                sched.on_message(d, &mut net).unwrap();
            } else {
                sources[node_source(d.to)]
                    .handle(d.from, d.msg, &mut net)
                    .unwrap();
            }
        }
        assert!(sched.is_quiescent());
        (sched, shadows)
    }

    fn assert_ground_truth(sched_views: &ViewRegistry, specs: &[ViewSpec], shadows: &[Bag]) {
        for (spec, id) in specs.iter().zip(sched_views.ids()) {
            let local = spec.compile(sched_views.base()).unwrap();
            let refs: Vec<&Bag> = shadows[spec.lo..=spec.hi].iter().collect();
            let truth = eval_view(&local, &refs).unwrap();
            assert_eq!(
                sched_views.view_bag(id).unwrap(),
                &truth,
                "view '{}'",
                spec.name
            );
        }
    }

    #[test]
    fn shard_local_updates_sweep_concurrently() {
        let specs = vec![ViewSpec::full("full", 3)];
        // Two pure updates, one per shard, 50µs apart with 1000µs links:
        // the second lane must start while the first is in flight.
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![3, 5]])),
            (150, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        let (sched, shadows) = run_sharded(
            ShardMap::range(100, 2),
            banded_initial(),
            &specs,
            &txns,
            &[],
        );
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(sched.stats().max_concurrent_lanes, 2);
        assert_eq!(sched.stats().shard_local, 2);
        assert_eq!(sched.stats().escalations, 0);
        // Shard-locality is free: still exactly 2(n−1) messages each.
        assert_eq!(sched.metrics().queries_sent, 4);
        assert_eq!(sched.metrics().answers_received, 4);
    }

    #[test]
    fn out_of_order_completions_install_in_arrival_order() {
        let specs = vec![ViewSpec::full("full", 3)];
        // Update A (src 0, shard 0) needs a 2-hop sequential right leg
        // (~4000µs); update B (src 1, shard 1) needs one parallel
        // round-trip (~2000µs) and finishes first — but must install
        // second.
        let txns = vec![
            (100u64, 0usize, Bag::from_tuples([tup![2, 3]])),
            (150, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        let (sched, shadows) = run_sharded(
            ShardMap::range(100, 2),
            banded_initial(),
            &specs,
            &txns,
            &[],
        );
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(sched.stats().max_concurrent_lanes, 2);
        let id = sched.views().ids()[0];
        let consumed: Vec<Vec<UpdateId>> = sched
            .views()
            .install_log(id)
            .unwrap()
            .iter()
            .map(|rec| rec.consumed.clone())
            .collect();
        assert_eq!(
            consumed,
            vec![
                vec![UpdateId { source: 0, seq: 0 }],
                vec![UpdateId { source: 1, seq: 0 }],
            ],
            "sequencer must hold B's install behind A's"
        );
    }

    #[test]
    fn cross_shard_update_escalates_and_unions_the_groups() {
        let specs = vec![ViewSpec::full("full", 3)];
        let map = ShardMap::range(100, 2);
        // The impure R2 tuple [3, 103] straddles both bands: global
        // sweep, then shards 0 and 1 are one group forever after.
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![3, 103]])),
            (10_000, 1, Bag::from_tuples([tup![3, 5]])),
            (10_050, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        let (sched, shadows) = run_sharded(map, banded_initial(), &specs, &txns, &[]);
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(sched.stats().escalations, 1);
        assert_eq!(sched.stats().shard_local, 2);
        assert_eq!(sched.group_mask_of(0), 0b11);
        assert_eq!(sched.group_mask_of(1), 0b11);
        // Merged group ⇒ the two post-escalation updates serialized.
        assert_eq!(sched.stats().max_concurrent_lanes, 1);
    }

    #[test]
    fn impure_initial_data_seeds_merged_groups() {
        let base = base3();
        let mut sched = ShardedScheduler::new(base, ShardMap::range(4, 3)).unwrap();
        // [5, 9] has bands {1, 2}: one impure resident merges them.
        sched.seed_groups(&Bag::from_tuples([tup![1, 2], tup![5, 9]]));
        assert_eq!(sched.group_mask_of(0), 0b001);
        assert_eq!(sched.group_mask_of(1), 0b110);
        assert_eq!(sched.group_mask_of(2), 0b110);
    }

    #[test]
    fn sharded_matches_unsharded_on_interfering_txns() {
        // The unsharded scheduler's own hostile workload: dense,
        // interfering, with escalations (range-8 bands cut through the
        // values) and impure initial residents. Byte-equal installs.
        let specs = vec![
            ViewSpec::full("full", 3),
            ViewSpec {
                lo: 1,
                hi: 2,
                ..ViewSpec::full("right-pair", 3)
            },
        ];
        let initial = vec![
            Bag::from_tuples([tup![1, 3], tup![2, 3], tup![2, 5]]),
            Bag::from_tuples([tup![3, 5], tup![5, 7], tup![3, 7]]),
            Bag::from_tuples([tup![5, 9], tup![7, 9], tup![7, 11]]),
        ];
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![7, 9]])),
            (150, 0, Bag::from_tuples([tup![4, 7]])),
            (200, 2, Bag::from_tuples([tup![9, 13]])),
            (260, 1, Bag::from_pairs([(tup![3, 5], -1)])),
            (300, 0, Bag::from_tuples([tup![6, 3]])),
            (340, 2, Bag::from_pairs([(tup![5, 9], -1)])),
        ];
        let (sharded, shadows) =
            run_sharded(ShardMap::range(8, 2), initial.clone(), &specs, &txns, &[]);
        assert_ground_truth(sharded.views(), &specs, &shadows);

        // Unsharded reference run over the identical scenario.
        let base = base3();
        let mut flat = MaintenanceScheduler::new(base.clone(), SchedulerMode::Shared).unwrap();
        for spec in &specs {
            let local = spec.compile(&base).unwrap();
            let refs: Vec<&Bag> = initial[spec.lo..=spec.hi].iter().collect();
            flat.register(spec, eval_view(&local, &refs).unwrap())
                .unwrap();
        }
        let mut net: Network<Message> = Network::new(7);
        let mut sources: Vec<DataSource> = (0..3)
            .map(|i| {
                let mut r = dw_relational::BaseRelation::new(base.schema(i).clone());
                r.apply_delta(&initial[i]).unwrap();
                DataSource::new(i, base.clone(), r)
            })
            .collect();
        for &(at, src, ref delta) in &txns {
            net.inject(
                at,
                source_node(src),
                Message::ApplyTxn {
                    rel: src,
                    delta: delta.clone(),
                    global: None,
                },
            );
        }
        while let Some(d) = net.next() {
            if d.to == WAREHOUSE_NODE {
                flat.on_message(d, &mut net).unwrap();
            } else {
                sources[node_source(d.to)]
                    .handle(d.from, d.msg, &mut net)
                    .unwrap();
            }
        }
        assert!(flat.is_quiescent());

        assert_eq!(sharded.metrics().queries_sent, flat.metrics().queries_sent);
        for (sid, fid) in sharded.views().ids().into_iter().zip(flat.views().ids()) {
            assert_eq!(
                sharded.views().view_bag(sid).unwrap(),
                flat.views().view_bag(fid).unwrap()
            );
            let fp = |log: &[dw_engine::InstallRecord]| -> Vec<Vec<UpdateId>> {
                log.iter().map(|r| r.consumed.clone()).collect()
            };
            assert_eq!(
                fp(sharded.views().install_log(sid).unwrap()),
                fp(flat.views().install_log(fid).unwrap())
            );
        }
    }

    #[test]
    fn shard_crash_reseeds_the_lane_and_converges() {
        let specs = vec![ViewSpec::full("full", 3)];
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![3, 5]])),
            (150, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        let (sched, shadows) = run_sharded(
            ShardMap::range(100, 2),
            banded_initial(),
            &specs,
            &txns,
            &[0, 1], // crash both shards at the first answer delivery
        );
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(sched.stats().shard_crashes, 2);
        assert_eq!(sched.stats().sweeps_reseeded, 2);
        // Each aborted lane had in-flight queries whose answers landed
        // after the crash — dropped, not folded.
        assert!(sched.stats().stale_answers_dropped >= 2);
        // Install order still arrival order.
        let id = sched.views().ids()[0];
        let consumed: Vec<Vec<UpdateId>> = sched
            .views()
            .install_log(id)
            .unwrap()
            .iter()
            .map(|rec| rec.consumed.clone())
            .collect();
        assert_eq!(
            consumed,
            vec![
                vec![UpdateId { source: 1, seq: 0 }],
                vec![UpdateId { source: 1, seq: 1 }],
            ]
        );
    }

    #[test]
    fn batching_and_pushdown_are_refused() {
        let base = base3();
        let batched = EngineOptions {
            batch: 4,
            ..EngineOptions::default()
        };
        assert!(matches!(
            ShardedScheduler::with_options(base.clone(), ShardMap::hash(2), batched),
            Err(MvError::Warehouse(
                dw_warehouse::WarehouseError::Config { .. }
            ))
        ));
        let pushed = EngineOptions {
            pushdown: true,
            ..EngineOptions::default()
        };
        assert!(matches!(
            ShardedScheduler::with_options(base, ShardMap::hash(2), pushed),
            Err(MvError::Warehouse(
                dw_warehouse::WarehouseError::Config { .. }
            ))
        ));
    }

    #[test]
    fn updates_nobody_references_release_their_ticket() {
        // Only a view over R3: an R1 update must release its sequencer
        // slot (None) or the R3 install behind it would block forever.
        let specs = vec![ViewSpec {
            lo: 2,
            hi: 2,
            ..ViewSpec::full("r3-only", 3)
        }];
        let txns = vec![
            (100u64, 0usize, Bag::from_tuples([tup![4, 7]])),
            (200, 2, Bag::from_tuples([tup![9, 13]])),
        ];
        let (sched, shadows) = run_sharded(
            ShardMap::range(100, 2),
            banded_initial(),
            &specs,
            &txns,
            &[],
        );
        assert_eq!(sched.stats().skipped, 1);
        let id = sched.views().ids()[0];
        assert_eq!(sched.views().install_log(id).unwrap().len(), 1);
        let refs: Vec<&Bag> = shadows[2..=2].iter().collect();
        let truth = eval_view(&specs[0].compile(sched.views().base()).unwrap(), &refs).unwrap();
        assert_eq!(sched.views().view_bag(id).unwrap(), &truth);
    }

    #[test]
    fn escalation_fence_holds_back_later_pure_updates() {
        let specs = vec![ViewSpec::full("full", 3)];
        // A pure update in flight, then an escalating one, then another
        // pure one in a *free* shard: the fence must hold the third back
        // until the global sweep has run, and everything still installs
        // in arrival order.
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![3, 5]])),
            (150, 1, Bag::from_tuples([tup![3, 103]])),
            (200, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        let (sched, shadows) = run_sharded(
            ShardMap::range(100, 2),
            banded_initial(),
            &specs,
            &txns,
            &[],
        );
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(sched.stats().escalations, 1);
        // The fence forbids overlap here: one lane at a time throughout.
        assert_eq!(sched.stats().max_concurrent_lanes, 1);
        let id = sched.views().ids()[0];
        let consumed: Vec<u64> = sched
            .views()
            .install_log(id)
            .unwrap()
            .iter()
            .flat_map(|rec| rec.consumed.iter().map(|u| u.seq))
            .collect();
        assert_eq!(consumed, vec![0, 1, 2]);
    }
}
