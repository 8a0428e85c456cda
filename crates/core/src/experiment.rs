//! Experiment construction and the dispatch loop.

use crate::report::RunReport;
use crate::runner::{NetProfile, SimHarness};
use dw_consistency::{classify, Recorder};
use dw_protocol::{node_source, source_node, Message, TransportConfig, UpdateId, WAREHOUSE_NODE};
use dw_relational::{eval_view, Bag, RelationalError};
use dw_simnet::{FaultPlan, LatencyModel, NodeId, Time};
use dw_source::{DataSource, EcaSite, SourceError};
use dw_warehouse::{
    CStrobe, Eca, MaintenancePolicy, NestedSweep, NestedSweepOptions, PipelinedSweep,
    PipelinedSweepOptions, Recompute, Strobe, Sweep, SweepOptions, WarehouseError,
};
use dw_workload::GeneratedScenario;
use std::fmt;

/// Which maintenance algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// SWEEP (§5) — complete consistency, local compensation.
    Sweep(SweepOptions),
    /// Nested SWEEP (§6) — strong consistency, batched installs.
    NestedSweep(NestedSweepOptions),
    /// ECA — single-site source, quiescent installs.
    Eca,
    /// Strobe — unique keys, quiescent installs.
    Strobe,
    /// C-strobe — unique keys, complete consistency, query blow-up.
    CStrobe,
    /// Pipelined SWEEP — §5.3's second optimization: overlapped sweeps,
    /// in-order installs, complete consistency.
    PipelinedSweep(PipelinedSweepOptions),
    /// Full recompute — convergence only.
    Recompute,
}

impl PolicyKind {
    /// Short name matching `MaintenancePolicy::name`.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Sweep(_) => "sweep",
            PolicyKind::NestedSweep(_) => "nested-sweep",
            PolicyKind::Eca => "eca",
            PolicyKind::Strobe => "strobe",
            PolicyKind::CStrobe => "c-strobe",
            PolicyKind::PipelinedSweep(_) => "pipelined-sweep",
            PolicyKind::Recompute => "recompute",
        }
    }

    /// Does this policy use the single-site (ECA) topology?
    pub fn single_site(&self) -> bool {
        matches!(self, PolicyKind::Eca)
    }
}

/// Errors surfaced by a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A relational failure while setting up.
    Relational(RelationalError),
    /// A data source failed mid-run.
    Source(SourceError),
    /// The warehouse policy failed mid-run.
    Warehouse(WarehouseError),
    /// The event cap was exhausted — a livelock/oscillation guard.
    EventCapExceeded {
        /// The configured cap.
        cap: u64,
    },
    /// A message was delivered to a node that does not exist.
    NoSuchNode {
        /// The offending destination.
        node: NodeId,
    },
    /// A multi-view scheduler failure that is not a relational or
    /// warehouse error (unknown view id, busy view, …).
    Multi(String),
    /// The builder combined a knob with an engine that cannot honour it
    /// (durability, naive mode, batching or pushdown on the sharded
    /// engine). Raised before any event is processed.
    Unsupported {
        /// The refused knob.
        knob: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Relational(e) => write!(f, "{e}"),
            CoreError::Source(e) => write!(f, "{e}"),
            CoreError::Warehouse(e) => write!(f, "{e}"),
            CoreError::EventCapExceeded { cap } => {
                write!(f, "event cap of {cap} exceeded (livelock or oscillation)")
            }
            CoreError::NoSuchNode { node } => write!(f, "delivery to unknown node {node}"),
            CoreError::Multi(msg) => f.write_str(msg),
            CoreError::Unsupported { knob } => {
                write!(f, "the sharded engine does not support {knob}")
            }
        }
    }
}

impl std::error::Error for CoreError {}
impl From<RelationalError> for CoreError {
    fn from(e: RelationalError) -> Self {
        CoreError::Relational(e)
    }
}
impl From<SourceError> for CoreError {
    fn from(e: SourceError) -> Self {
        CoreError::Source(e)
    }
}
impl From<WarehouseError> for CoreError {
    fn from(e: WarehouseError) -> Self {
        CoreError::Warehouse(e)
    }
}

/// A configured experiment: scenario × policy × network profile.
pub struct Experiment {
    scenario: GeneratedScenario,
    policy: PolicyKind,
    latency: LatencyModel,
    link_overrides: Vec<(NodeId, NodeId, LatencyModel)>,
    seed: u64,
    check_consistency: bool,
    record_snapshots: bool,
    trace: bool,
    event_cap: u64,
    faults: FaultPlan,
    transport: Option<TransportConfig>,
    obs: dw_obs::Obs,
}

impl Experiment {
    /// New experiment over a scenario, defaulting to SWEEP, 1 ms constant
    /// links, consistency checking on.
    pub fn new(scenario: GeneratedScenario) -> Self {
        Experiment {
            scenario,
            policy: PolicyKind::Sweep(SweepOptions::default()),
            latency: LatencyModel::Constant(1_000),
            link_overrides: Vec::new(),
            seed: 0,
            check_consistency: true,
            record_snapshots: true,
            trace: false,
            event_cap: 10_000_000,
            faults: FaultPlan::default(),
            transport: None,
            obs: dw_obs::Obs::off(),
        }
    }

    /// Attach an observability recorder: the policy, sources, network and
    /// transport endpoints all emit spans/counters/histograms into it,
    /// stamped in virtual time (traces are byte-deterministic per seed).
    pub fn observe(mut self, obs: dw_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Choose the maintenance policy.
    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.policy = p;
        self
    }

    /// Default latency model for every link.
    pub fn latency(mut self, l: LatencyModel) -> Self {
        self.latency = l;
        self
    }

    /// Override one directed link's latency.
    pub fn link_latency(mut self, from: NodeId, to: NodeId, l: LatencyModel) -> Self {
        self.link_overrides.push((from, to, l));
        self
    }

    /// Network RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disable ground-truth tracking and classification (for big runs).
    pub fn check_consistency(mut self, on: bool) -> Self {
        self.check_consistency = on;
        self
    }

    /// Disable per-install view snapshots (for big runs).
    pub fn record_snapshots(mut self, on: bool) -> Self {
        self.record_snapshots = on;
        self
    }

    /// Record a full network trace in the report.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Abort the run after this many deliveries (oscillation guard).
    pub fn event_cap(mut self, cap: u64) -> Self {
        self.event_cap = cap;
        self
    }

    /// Install a fault plan: drops, duplicates, reordering, partitions,
    /// node crashes. Without [`Experiment::transport`] the maintenance
    /// policies see the raw faulted network — useful for demonstrating
    /// that the paper's consistency claims genuinely depend on reliable
    /// FIFO channels.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Run every node behind the reliability transport, restoring the
    /// exactly-once in-order contract over whatever the fault plan does.
    pub fn transport(mut self, cfg: TransportConfig) -> Self {
        self.transport = Some(cfg);
        self
    }

    /// Enable the transport with timing derived from the experiment's
    /// latency model (RTO ≈ three round trips).
    pub fn transport_auto(mut self) -> Self {
        self.transport = Some(TransportConfig::for_latency_mean(self.latency.mean()));
        self
    }

    /// Run to network quiescence and report.
    pub fn run(self) -> Result<RunReport, CoreError> {
        let scenario = &self.scenario;
        let view_def = scenario.view.clone();
        let n = view_def.num_relations();
        let refs: Vec<&Bag> = scenario.initial.iter().collect();
        let initial_view = eval_view(&view_def, &refs)?;

        let mut policy: Box<dyn MaintenancePolicy> = match self.policy {
            PolicyKind::Sweep(opts) => {
                Box::new(Sweep::with_options(view_def.clone(), initial_view, opts)?)
            }
            PolicyKind::NestedSweep(opts) => Box::new(NestedSweep::with_options(
                view_def.clone(),
                initial_view,
                opts,
            )?),
            PolicyKind::Eca => Box::new(Eca::new(view_def.clone(), initial_view)?),
            PolicyKind::Strobe => Box::new(Strobe::new(
                view_def.clone(),
                scenario.keys.clone(),
                initial_view,
            )?),
            PolicyKind::CStrobe => Box::new(CStrobe::new(
                view_def.clone(),
                scenario.keys.clone(),
                initial_view,
            )?),
            PolicyKind::PipelinedSweep(opts) => Box::new(PipelinedSweep::with_options(
                view_def.clone(),
                initial_view,
                opts,
            )?),
            PolicyKind::Recompute => Box::new(Recompute::new(view_def.clone(), initial_view)?),
        };
        policy.set_record_snapshots(self.record_snapshots);
        policy.set_observer(self.obs.clone());

        let node_count = if self.policy.single_site() { 2 } else { n + 1 };
        let profile = NetProfile {
            latency: self.latency,
            link_overrides: self.link_overrides,
            seed: self.seed,
            faults: self.faults,
            transport: self.transport,
            event_cap: self.event_cap,
            trace: self.trace,
            obs: self.obs.clone(),
        };
        let mut harness = SimHarness::new(&profile, node_count);

        // Topology.
        let mut sources: Vec<DataSource> = Vec::new();
        let mut eca_site: Option<EcaSite> = None;
        if self.policy.single_site() {
            let rels = (0..n)
                .map(|i| {
                    let mut r = dw_relational::BaseRelation::new(view_def.schema(i).clone());
                    r.apply_delta(&scenario.initial[i]).map(|_| r)
                })
                .collect::<Result<Vec<_>, _>>()?;
            eca_site = Some(EcaSite::new(source_node(0), view_def.clone(), rels));
        } else {
            for i in 0..n {
                let mut r = dw_relational::BaseRelation::new(view_def.schema(i).clone());
                r.apply_delta(&scenario.initial[i])?;
                let mut src = DataSource::new(i, view_def.clone(), r);
                src.set_observer(self.obs.clone());
                sources.push(src);
            }
        }

        let mut recorder = self
            .check_consistency
            .then(|| Recorder::new(view_def.clone(), scenario.initial.clone()));

        // Inject the workload.
        for t in &scenario.txns {
            let node = if self.policy.single_site() {
                source_node(0)
            } else {
                source_node(t.source)
            };
            harness.net.inject(
                t.at,
                node,
                Message::ApplyTxn {
                    rel: t.source,
                    delta: t.delta.clone(),
                    global: t.global,
                },
            );
        }

        let mut delivery_log: Vec<(UpdateId, Time)> = Vec::new();
        harness.drive(|d, net| {
            if d.to == WAREHOUSE_NODE {
                if let Message::Update(u) = &d.msg {
                    delivery_log.push((u.id, d.at));
                    if let Some(rec) = recorder.as_mut() {
                        rec.record_delivery(u.id, d.at, u.delta.clone());
                    }
                }
                policy.on_message(d, net)?;
            } else if let Some(site) = eca_site.as_mut() {
                if d.to != source_node(0) {
                    return Err(CoreError::NoSuchNode { node: d.to });
                }
                site.handle(d.from, d.msg, net)?;
            } else {
                let idx = node_source(d.to);
                let src = sources
                    .get_mut(idx)
                    .ok_or(CoreError::NoSuchNode { node: d.to })?;
                src.handle(d.from, d.msg, net)?;
            }
            Ok(())
        })?;

        let consistency = recorder
            .as_ref()
            .map(|rec| classify(rec, policy.installs(), policy.view()));

        // Quiescence means the policy has no sweep in flight AND the
        // transport has drained: no unacked frames, no reorder buffers,
        // no pending resync.
        let transport_quiescent = harness.transport_quiescent();

        Ok(RunReport {
            policy: policy.name(),
            view: policy.view().clone(),
            installs: policy.installs().to_vec(),
            metrics: policy.metrics().clone(),
            net: harness.net.stats().clone(),
            consistency,
            quiescent: policy.is_quiescent() && transport_quiescent,
            end_time: harness.net.now(),
            events: harness.events,
            trace: harness.net.trace().events().to_vec(),
            delivery_log,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_consistency::ConsistencyLevel;
    use dw_workload::{SourcePick, StreamConfig};

    fn quick(updates: usize, seed: u64) -> GeneratedScenario {
        StreamConfig {
            updates,
            seed,
            n_sources: 3,
            initial_per_source: 20,
            domain: 8,
            mean_gap: 500, // dense: heavy interference vs 1 ms links
            ..Default::default()
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn sweep_is_complete_under_interference() {
        let report = Experiment::new(quick(25, 1))
            .policy(PolicyKind::Sweep(Default::default()))
            .run()
            .unwrap();
        assert!(report.quiescent);
        assert_eq!(
            report.consistency.unwrap().level,
            ConsistencyLevel::Complete
        );
        assert_eq!(report.metrics.installs, report.metrics.updates_received);
    }

    #[test]
    fn nested_sweep_is_at_least_strong() {
        let report = Experiment::new(quick(25, 2))
            .policy(PolicyKind::NestedSweep(Default::default()))
            .run()
            .unwrap();
        assert!(report.quiescent);
        let level = report.consistency.unwrap().level;
        assert!(level >= ConsistencyLevel::Strong, "got {level}");
    }

    #[test]
    fn strobe_is_at_least_strong() {
        let report = Experiment::new(quick(25, 3))
            .policy(PolicyKind::Strobe)
            .run()
            .unwrap();
        assert!(report.quiescent);
        let level = report.consistency.unwrap().level;
        assert!(level >= ConsistencyLevel::Strong, "got {level}");
    }

    #[test]
    fn cstrobe_is_complete() {
        let report = Experiment::new(quick(15, 4))
            .policy(PolicyKind::CStrobe)
            .run()
            .unwrap();
        assert!(report.quiescent);
        let level = report.consistency.unwrap().level;
        assert!(level >= ConsistencyLevel::Complete, "got {level}");
    }

    #[test]
    fn eca_is_at_least_strong_on_single_site() {
        let report = Experiment::new(quick(25, 5))
            .policy(PolicyKind::Eca)
            .run()
            .unwrap();
        assert!(report.quiescent);
        let level = report.consistency.unwrap().level;
        assert!(level >= ConsistencyLevel::Strong, "got {level}");
    }

    #[test]
    fn recompute_converges() {
        let report = Experiment::new(quick(25, 6))
            .policy(PolicyKind::Recompute)
            .run()
            .unwrap();
        assert!(report.quiescent);
        let level = report.consistency.unwrap().level;
        assert!(level >= ConsistencyLevel::Convergent, "got {level}");
    }

    #[test]
    fn sweep_message_cost_is_2n_minus_2_per_update() {
        let n = 5;
        let scenario = StreamConfig {
            n_sources: n,
            updates: 20,
            mean_gap: 200,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = Experiment::new(scenario)
            .policy(PolicyKind::Sweep(Default::default()))
            .run()
            .unwrap();
        assert!((report.messages_per_update() - (2 * (n - 1)) as f64).abs() < 1e-9);
    }

    #[test]
    fn strobe_rejected_without_keys() {
        let scenario = StreamConfig {
            keyed: false,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let err = Experiment::new(scenario)
            .policy(PolicyKind::Strobe)
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Warehouse(_)));
    }

    #[test]
    fn sweep_handles_unkeyed_views() {
        // The headline SWEEP property the Strobe family lacks.
        let scenario = StreamConfig {
            keyed: false,
            updates: 20,
            seed: 9,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = Experiment::new(scenario)
            .policy(PolicyKind::Sweep(Default::default()))
            .run()
            .unwrap();
        assert_eq!(
            report.consistency.unwrap().level,
            ConsistencyLevel::Complete
        );
    }

    #[test]
    fn alternating_ends_oscillation_guard() {
        // Unbounded Nested SWEEP under the adversarial pattern can recurse
        // deeply; the depth bound forces termination.
        let scenario = StreamConfig {
            n_sources: 4,
            updates: 40,
            mean_gap: 100,
            source_pick: SourcePick::AlternatingEnds,
            insert_ratio: 1.0,
            seed: 10,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = Experiment::new(scenario)
            .policy(PolicyKind::NestedSweep(NestedSweepOptions {
                max_depth: Some(4),
            }))
            .run()
            .unwrap();
        assert!(report.quiescent);
        assert!(report.metrics.max_recursion_depth <= 4);
        let level = report.consistency.unwrap().level;
        assert!(level >= ConsistencyLevel::Strong, "got {level}");
    }

    #[test]
    fn deterministic_replay() {
        let r1 = Experiment::new(quick(20, 11)).seed(3).run().unwrap();
        let r2 = Experiment::new(quick(20, 11)).seed(3).run().unwrap();
        assert_eq!(r1.view, r2.view);
        assert_eq!(r1.events, r2.events);
        assert_eq!(r1.end_time, r2.end_time);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let seq = Experiment::new(quick(25, 12))
            .policy(PolicyKind::Sweep(SweepOptions {
                parallel: false,
                short_circuit_empty: false,
            }))
            .run()
            .unwrap();
        let par = Experiment::new(quick(25, 12))
            .policy(PolicyKind::Sweep(SweepOptions {
                parallel: true,
                short_circuit_empty: false,
            }))
            .run()
            .unwrap();
        assert_eq!(seq.view, par.view);
        assert_eq!(par.consistency.unwrap().level, ConsistencyLevel::Complete);
        // Parallel halves the per-update critical path.
        assert!(par.end_time <= seq.end_time);
    }
}
