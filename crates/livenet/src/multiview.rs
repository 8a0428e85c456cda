//! Multi-view live runtime: the flat [`MaintenanceScheduler`] or the
//! partitioned [`ShardedScheduler`] on real OS threads, optionally with
//! reader threads against the snapshot store.
//!
//! The warehouse runs on its own thread (where a sharded engine's
//! overlapping lanes interleave with real, OS-scheduled answer arrivals)
//! and every source on its own thread, exactly like
//! [`run_live`](crate::run_live). With `readers > 0` a [`ReadFrontend`]
//! is attached as the install publisher and N reader threads pin, scan
//! and unpin as fast as the OS lets them while the warehouse publishes —
//! the serving layer's claim (readers share frozen epochs with the
//! engine without copies, locks held across sweeps, or torn states)
//! under *real* concurrency.
//!
//! Delivery and read interleavings are nondeterministic, so the right
//! assertions are convergence against ground truth, the scheduler's own
//! counters (quiescence, escalations), and for readers: (a) every read
//! observed exactly some committed install's contents — never a blend of
//! two — checked post-hoc against the install log's snapshots, and
//! (b) subscription streams replay the install fingerprint. The
//! deterministic install-order identity claims live in the
//! simulator-backed conformance suites. Only base views are registered.

use crate::cluster::{injections, node_failed, source_runners};
use dw_engine::{run_cluster, NodeRunner, ThreadNet};
use dw_multiview::{
    MaintenanceScheduler, MultiViewScheduler, SchedulerMode, ShardStats, ShardedScheduler,
};
use dw_protocol::{Message, WAREHOUSE_NODE};
use dw_relational::{Bag, ShardMap, Tuple, Value};
use dw_rng::Rng64;
use dw_serve::{ReadFrontend, ServeStats};
use dw_simnet::{NodeId, Time};
use dw_warehouse::{InstallRecord, PolicyMetrics};
use dw_workload::MultiViewScenario;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use dw_engine::LiveError;

/// One view's outcome from a live multi-view run.
#[derive(Debug)]
pub struct LiveViewOutcome {
    /// View name.
    pub name: String,
    /// Final materialized contents.
    pub view: Bag,
    /// Install history (delivery order is nondeterministic).
    pub installs: Vec<InstallRecord>,
}

/// What the reader threads observed (live serving arm).
#[derive(Debug)]
pub struct LiveServe {
    /// Snapshot-store counters.
    pub serve_stats: ServeStats,
    /// Reads resolved across all reader threads.
    pub reads_answered: u64,
    /// Reads whose observed contents matched no committed install of
    /// their pinned epoch — must be zero (torn or phantom states).
    pub torn_reads: u64,
    /// Whether every subscription stream replayed its view's install
    /// fingerprint exactly.
    pub subs_match_installs: bool,
}

/// Result of a live multi-view run.
#[derive(Debug)]
pub struct LiveMultiViewReport {
    /// Per-view outcomes, in registration order.
    pub views: Vec<LiveViewOutcome>,
    /// Aggregate engine counters.
    pub metrics: PolicyMetrics,
    /// Lane/escalation accounting (`None` on the flat engine).
    pub shard_stats: Option<ShardStats>,
    /// The reader threads' audit (`None` without readers).
    pub serve: Option<LiveServe>,
    /// Whether the scheduler drained before shutdown.
    pub quiescent: bool,
    /// Wall-clock duration of the maintenance run.
    pub wall: Duration,
}

/// The warehouse node: either scheduler behind the engine's runner face.
struct SchedulerRunner(Box<dyn MultiViewScheduler>);

impl NodeRunner for SchedulerRunner {
    fn handle(
        &mut self,
        from: NodeId,
        at: Time,
        msg: Message,
        net: &mut ThreadNet,
    ) -> Result<(), String> {
        // Orchestration signal, not protocol traffic (see PolicyRunner).
        if matches!(msg, Message::Restart) {
            return Ok(());
        }
        let d = dw_simnet::Delivery {
            at,
            from,
            to: WAREHOUSE_NODE,
            msg,
        };
        self.0.on_message(d, net).map_err(|e| e.to_string())
    }

    fn is_idle(&self) -> bool {
        self.0.is_quiescent()
    }
}

/// One live read's record, kept for post-hoc torn-state auditing.
struct LiveRead {
    view: usize,
    epoch: u64,
    /// Scans keep the whole frozen bag (an `Arc` share, no copy);
    /// points keep their matches.
    observed: Observed,
}

enum Observed {
    Scan(Arc<Bag>),
    Point {
        column: usize,
        key: i64,
        matches: Vec<(Tuple, i64)>,
    },
}

/// Reader thread `r`: pin → read → unpin in a tight loop until `stop`,
/// recording what it saw.
fn reader_loop(
    front: ReadFrontend,
    stop: Arc<AtomicBool>,
    r: usize,
    n_views: usize,
) -> Result<Vec<LiveRead>, String> {
    let mut rng = Rng64::new(0x5E12E).fork(r as u64);
    let mut seen = Vec::new();
    while !stop.load(Ordering::Relaxed) && n_views > 0 {
        let view = rng.usize_below(n_views);
        let pin = front.pin(view).map_err(|e| e.to_string())?;
        let epoch = pin.epoch();
        let observed = if rng.chance(0.7) {
            let a = front.read_scan(&pin, None).map_err(|e| e.to_string())?;
            Observed::Scan(a.bag)
        } else {
            let (column, key) = (0, rng.u64_below(16) as i64);
            let a = front
                .read_point(&pin, column, key, None)
                .map_err(|e| e.to_string())?;
            Observed::Point {
                column,
                key,
                matches: (*a.matches).clone(),
            }
        };
        seen.push(LiveRead {
            view,
            epoch,
            observed,
        });
        front.unpin(pin).map_err(|e| e.to_string())?;
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(seen)
}

/// Run a multi-view scenario on real threads: the flat shared-sweep
/// engine, or with `map` the sharded one, plus `readers` concurrent
/// reader threads hammering the snapshot store throughout (none, and no
/// frontend, when `readers == 0`).
///
/// `time_scale` compresses injection timestamps (2.0 = twice as fast);
/// `deadline` bounds the maintenance run (readers are stopped when it
/// drains).
pub fn run_live_multiview(
    scenario: &MultiViewScenario,
    map: Option<ShardMap>,
    readers: usize,
    time_scale: f64,
    deadline: Duration,
) -> Result<LiveMultiViewReport, LiveError> {
    let base = &scenario.base;
    let mut sched: Box<dyn MultiViewScheduler> = match map {
        None => Box::new(
            MaintenanceScheduler::new(base.clone(), SchedulerMode::Shared).map_err(node_failed)?,
        ),
        Some(map) => {
            let mut s = ShardedScheduler::new(base.clone(), map).map_err(node_failed)?;
            for bag in &scenario.initial {
                s.seed_groups(bag);
            }
            Box::new(s)
        }
    };
    let front = (readers > 0).then(ReadFrontend::new);
    if let Some(front) = &front {
        sched.set_install_publisher(front.sink());
    }

    let mut ids = Vec::with_capacity(scenario.views.len());
    let mut initial_bags = Vec::with_capacity(scenario.views.len());
    for spec in &scenario.views {
        let local = spec.compile(base).map_err(node_failed)?;
        let refs: Vec<&Bag> = scenario.initial[spec.lo..=spec.hi].iter().collect();
        let initial_view = dw_relational::eval_view(&local, &refs).map_err(node_failed)?;
        ids.push(
            sched
                .register(spec, initial_view.clone())
                .map_err(node_failed)?,
        );
        if let Some(front) = &front {
            front.register_view(&spec.name, initial_view.clone(), 0);
        }
        initial_bags.push(initial_view);
    }

    // One subscription per view, from epoch 0: drained post-run and
    // compared against the install fingerprint.
    let subs = match &front {
        Some(front) => (0..ids.len())
            .map(|v| front.subscribe(v))
            .collect::<Result<Vec<_>, _>>()
            .map_err(node_failed)?,
        None => Vec::new(),
    };

    let stop = Arc::new(AtomicBool::new(false));
    let reader_handles: Vec<_> = match &front {
        Some(front) => (0..readers)
            .map(|r| {
                let (front, stop, n_views) = (front.clone(), stop.clone(), ids.len());
                std::thread::spawn(move || reader_loop(front, stop, r, n_views))
            })
            .collect(),
        None => Vec::new(),
    };

    let run = run_cluster(
        SchedulerRunner(sched),
        source_runners(base, &scenario.initial)?,
        injections(&scenario.txns),
        time_scale,
        deadline,
    );
    stop.store(true, Ordering::Relaxed);
    let mut reads: Vec<LiveRead> = Vec::new();
    let mut reader_err: Option<String> = None;
    for h in reader_handles {
        match h.join() {
            Ok(Ok(seen)) => reads.extend(seen),
            Ok(Err(e)) => reader_err = Some(e),
            Err(_) => reader_err = Some("reader thread panicked".to_string()),
        }
    }
    let outcome = run?;
    if let Some(e) = reader_err {
        return Err(LiveError::NodeFailed { what: e });
    }
    let sched = outcome.warehouse.0;

    let mut views = Vec::with_capacity(ids.len());
    for id in ids {
        let reg = sched.views();
        views.push(LiveViewOutcome {
            name: reg.name(id).map_err(node_failed)?.to_string(),
            view: reg.view_bag(id).map_err(node_failed)?.clone(),
            installs: reg.install_log(id).map_err(node_failed)?.to_vec(),
        });
    }

    let serve = match front {
        Some(front) => Some(LiveServe {
            serve_stats: front.stats(),
            reads_answered: reads.len() as u64,
            torn_reads: torn_reads(&reads, &initial_bags, &views),
            subs_match_installs: subs_match_installs(&front, subs, &views)?,
        }),
        None => None,
    };

    Ok(LiveMultiViewReport {
        quiescent: sched.is_quiescent(),
        metrics: sched.metrics().clone(),
        shard_stats: sched.shard_stats().cloned(),
        serve,
        views,
        wall: outcome.wall,
    })
}

/// Torn-state audit: every read's pinned epoch must reproduce the
/// committed contents at that install exactly.
fn torn_reads(reads: &[LiveRead], initial: &[Bag], views: &[LiveViewOutcome]) -> u64 {
    let committed = |view: usize, epoch: u64| -> Option<&Bag> {
        if epoch == 0 {
            return Some(&initial[view]);
        }
        views[view].installs[epoch as usize - 1].view_after.as_ref()
    };
    let mut torn = 0u64;
    for read in reads {
        let Some(truth) = committed(read.view, read.epoch) else {
            torn += 1;
            continue;
        };
        let ok = match &read.observed {
            Observed::Scan(bag) => bag.as_ref() == truth,
            Observed::Point {
                column,
                key,
                matches,
            } => {
                let want: Vec<(Tuple, i64)> = truth
                    .to_sorted_vec()
                    .into_iter()
                    .filter(|(t, _)| t.at(*column) == &Value::Int(*key))
                    .collect();
                matches == &want
            }
        };
        if !ok {
            torn += 1;
        }
    }
    torn
}

/// Drain each view's subscription and check it replays the install
/// fingerprint.
fn subs_match_installs(
    front: &ReadFrontend,
    subs: Vec<u64>,
    views: &[LiveViewOutcome],
) -> Result<bool, LiveError> {
    let mut all = true;
    for (v, sub) in subs.into_iter().enumerate() {
        let stream = front.poll(sub).map_err(node_failed)?;
        let expected = &views[v].installs;
        all &= stream.len() == expected.len()
            && stream
                .iter()
                .zip(expected)
                .enumerate()
                .all(|(i, (d, inst))| {
                    d.epoch == i as u64 + 1 && d.view == v && d.consumed == inst.consumed
                });
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::eval_view;
    use dw_workload::{MultiViewConfig, ShardedConfig, StreamConfig};

    fn ground_truth(s: &MultiViewScenario) -> Vec<Bag> {
        let mut rels = s.initial.clone();
        for t in &s.txns {
            rels[t.source].merge(&t.delta);
        }
        s.views
            .iter()
            .map(|spec| {
                let local = spec.compile(&s.base).unwrap();
                let refs: Vec<&Bag> = rels[spec.lo..=spec.hi].iter().collect();
                eval_view(&local, &refs).unwrap()
            })
            .collect()
    }

    #[test]
    fn sharded_sweeps_converge_on_real_threads() {
        let generated = ShardedConfig {
            shards: 2,
            updates: 16,
            mean_gap: 800,
            seed: 21,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = run_live_multiview(
            &generated.scenario,
            Some(generated.map.clone()),
            0,
            20.0,
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(report.quiescent);
        assert!(report.serve.is_none(), "no readers, no frontend");
        assert_eq!(
            report.metrics.updates_received,
            generated.scenario.txns.len() as u64
        );
        for (outcome, truth) in report.views.iter().zip(ground_truth(&generated.scenario)) {
            assert_eq!(outcome.view, truth, "view '{}'", outcome.name);
        }
    }

    #[test]
    fn escalating_workload_converges_live() {
        let generated = ShardedConfig {
            shards: 2,
            updates: 14,
            mean_gap: 800,
            cross_shard_frac: 0.3,
            seed: 22,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = run_live_multiview(
            &generated.scenario,
            Some(generated.map.clone()),
            0,
            20.0,
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(report.quiescent);
        assert!(report.shard_stats.unwrap().escalations > 0);
        for (outcome, truth) in report.views.iter().zip(ground_truth(&generated.scenario)) {
            assert_eq!(outcome.view, truth, "view '{}'", outcome.name);
        }
    }

    /// Flat and S=2 sharded engines alike: no torn read, subscription
    /// streams replay the install fingerprint, final views equal ground
    /// truth.
    #[test]
    fn concurrent_readers_never_see_torn_epochs() {
        let scenario = MultiViewConfig {
            stream: StreamConfig {
                n_sources: 3,
                updates: 16,
                initial_per_source: 10,
                domain: 8,
                mean_gap: 800,
                seed: 31,
                ..Default::default()
            },
            n_views: 3,
            view_seed: 31 ^ 0xABCD,
            full_span: false,
            n_derived: 0,
            derived_seed: 0,
        }
        .generate()
        .unwrap();
        for map in [None, Some(ShardMap::hash(2))] {
            let sharded = map.is_some();
            let report =
                run_live_multiview(&scenario, map, 4, 20.0, Duration::from_secs(30)).unwrap();
            assert!(report.quiescent, "sharded={sharded}");
            assert_eq!(report.shard_stats.is_some(), sharded);
            let serve = report.serve.as_ref().unwrap();
            assert_eq!(
                serve.torn_reads, 0,
                "torn read observed (sharded={sharded})"
            );
            assert!(serve.reads_answered > 0, "readers never got a read in");
            assert!(serve.subs_match_installs, "sharded={sharded}");
            for (outcome, truth) in report.views.iter().zip(ground_truth(&scenario)) {
                assert_eq!(
                    outcome.view, truth,
                    "view '{}' (sharded={sharded})",
                    outcome.name
                );
            }
        }
    }
}
