//! The serving layer of [`MultiViewExperiment`](crate::MultiViewExperiment):
//! a snapshot-pinned read path driven off the same virtual clock as
//! maintenance.
//!
//! When a run serves (it has reads, subscriptions or an answer cache), a
//! [`ReadFrontend`] is attached as the engine's install publisher: every
//! committed install becomes an immutable epoch in the snapshot store,
//! and a seeded [`ReadOp`] schedule from `dw_workload::serve` is resolved
//! against the store *between* deliveries — a read issued at virtual
//! time `t` observes exactly the epochs committed before `t`, never a
//! torn sweep.
//!
//! The report carries enough provenance for an external oracle: each
//! [`ReadOutcome`] records the epoch it was answered from and the
//! length of the delivery-log prefix visible at issue time, so
//! [`oracle_view_at_epoch`] can recompute the pinned contents from the
//! scenario's initial relations and transaction stream, and
//! [`oracle_expects_rejection`] can re-derive every staleness verdict.

use std::collections::{HashMap, HashSet};

use crate::experiment::CoreError;
use crate::multi_experiment::MultiViewReport;
use dw_multiview::MultiViewScheduler;
use dw_protocol::UpdateId;
use dw_relational::{eval_view, Bag, Tuple};
use dw_serve::{InstallDelta, ReadFrontend, ServeError, ServeStats, StalenessBound};
use dw_simnet::Time;
use dw_workload::{MultiViewScenario, ReadKind, ReadOp};

impl From<ServeError> for CoreError {
    fn from(e: ServeError) -> Self {
        CoreError::Multi(format!("serve: {e}"))
    }
}

/// One run's live serving state: the frontend, the read schedule, and
/// everything resolved so far.
pub(crate) struct Server {
    front: ReadFrontend,
    ops: Vec<ReadOp>,
    next_op: usize,
    reads: Vec<ReadOutcome>,
    subscriptions: Vec<SubscriptionOutcome>,
    lag: Vec<LagSubscription>,
    lag_by_view: HashMap<usize, usize>,
}

impl Server {
    /// A frontend with the given accelerators, serving `ops` (sorted by
    /// issue time).
    pub fn new(ops: Vec<ReadOp>, point_index: bool, cache: usize, obs: dw_obs::Obs) -> Server {
        let front = ReadFrontend::new();
        front.set_point_index(point_index);
        front.set_answer_cache_capacity(cache);
        front.set_observer(obs);
        Server {
            front,
            ops,
            next_op: 0,
            reads: Vec::new(),
            subscriptions: Vec::new(),
            lag: Vec::new(),
            lag_by_view: HashMap::new(),
        }
    }

    /// Make the frontend the engine's install publisher.
    pub fn attach(&self, sched: &mut dyn MultiViewScheduler) {
        sched.set_install_publisher(self.front.sink());
    }

    /// Mirror one registered view into the store. Registration order
    /// must mirror the scheduler's — the publisher keys epochs by
    /// registry slot.
    pub fn register_view(&self, slot: usize, name: &str, initial: Bag) {
        let mirrored = self.front.register_view(name, initial, 0);
        debug_assert_eq!(mirrored, slot, "frontend/registry slot drift");
    }

    /// Open the standing subscriptions before traffic starts: with
    /// `baseline`, one unbounded subscription per slot from epoch 0
    /// (derived slots included) whose stream must replay the full install
    /// fingerprint; with `bounded`, one bounded subscription per base
    /// view — base views only, so their resume snapshots are auditable
    /// against [`oracle_view_at_epoch`].
    pub fn subscribe(
        &mut self,
        baseline: bool,
        bounded: Option<usize>,
        base_views: usize,
    ) -> Result<(), CoreError> {
        if baseline {
            for v in 0..self.front.view_count() {
                self.subscriptions.push(SubscriptionOutcome {
                    reader: usize::MAX,
                    view: v,
                    sub: self.front.subscribe(v)?,
                    from_epoch: self.front.latest_epoch(v)?,
                    stream: Vec::new(),
                });
            }
        }
        if let Some(max_lag) = bounded {
            for v in 0..base_views {
                let sub = self.front.subscribe_bounded(v, max_lag)?;
                self.lag_by_view.insert(v, self.lag.len());
                self.lag.push(LagSubscription {
                    view: v,
                    sub,
                    max_lag,
                    from_epoch: self.front.latest_epoch(v)?,
                    events: Vec::new(),
                });
            }
        }
        Ok(())
    }

    /// Resolve every op issued at or before `now` against the store as
    /// it stands — before the delivery at `now` can commit a new epoch,
    /// so installs never block on, nor are observed mid-flight by, any
    /// read. `None` resolves everything left (ops scheduled past the
    /// last delivery resolve at quiescence).
    pub fn catch_up(&mut self, now: Option<Time>, deliveries_seen: usize) -> Result<(), CoreError> {
        while let Some(op) = self.ops.get(self.next_op) {
            if now.is_some_and(|t| op.at > t) {
                break;
            }
            let op = op.clone();
            let (epoch, result) = self.execute(&op)?;
            self.reads.push(ReadOutcome {
                op,
                epoch,
                deliveries_seen,
                result,
            });
            self.next_op += 1;
        }
        Ok(())
    }

    /// Resolve one op: the epoch it observed and what it saw.
    fn execute(&mut self, op: &ReadOp) -> Result<(u64, ReadResult), CoreError> {
        let front = &self.front;
        let result = match &op.kind {
            // Drain the view's bounded subscription (a no-op result when
            // the lag arm is off). A lagged one resumes through the
            // snapshot-at-resume-epoch path right here, mid-run.
            ReadKind::Poll => {
                let (delivered, resumed) = match self.lag_by_view.get(&op.view) {
                    None => (0, false),
                    Some(&i) => poll_bounded(front, &mut self.lag[i])?,
                };
                ReadResult::Polled { delivered, resumed }
            }
            ReadKind::Subscribe => {
                let sub = front.subscribe(op.view)?;
                self.subscriptions.push(SubscriptionOutcome {
                    reader: op.reader,
                    view: op.view,
                    sub,
                    from_epoch: front.latest_epoch(op.view)?,
                    stream: Vec::new(),
                });
                ReadResult::Subscribed { sub }
            }
            ReadKind::Point { .. } | ReadKind::Scan => {
                let pin = front.pin(op.view)?;
                let epoch = pin.epoch();
                let bound = op.bound_window.map(|w| StalenessBound {
                    reflect_before: op.at.saturating_sub(w),
                });
                let answer = match op.kind {
                    ReadKind::Point { column, key } => front
                        .read_point(&pin, column, key, bound)
                        .map(|a| ReadResult::Point {
                            multiplicity: a.multiplicity,
                            matches: (*a.matches).clone(),
                        }),
                    _ => front.read_scan(&pin, bound).map(|a| ReadResult::Scan {
                        bag: (*a.bag).clone(),
                    }),
                };
                let result = match answer {
                    Ok(r) => r,
                    Err(ServeError::TooStale {
                        required,
                        freshest_admissible,
                        ..
                    }) => ReadResult::Rejected {
                        required,
                        freshest_admissible,
                    },
                    Err(e) => return Err(e.into()),
                };
                front.unpin(pin)?;
                return Ok((epoch, result));
            }
        };
        Ok((front.latest_epoch(op.view)?, result))
    }

    /// At quiescence: resolve the remaining ops, drain every
    /// subscription, and fold the store into the report section.
    /// Bounded subscriptions catch all the way up — a still-lagged one
    /// resumes, then drains whatever queued after (no installs arrive
    /// during the drain, so two rounds always suffice).
    pub fn finish(mut self, deliveries_seen: usize) -> Result<ServeOutcome, CoreError> {
        self.catch_up(None, deliveries_seen)?;
        let front = &self.front;
        for sub in &mut self.subscriptions {
            sub.stream = front.poll(sub.sub)?;
        }
        for entry in &mut self.lag {
            while poll_bounded(front, entry)?.1 {}
        }
        Ok(ServeOutcome {
            serve_stats: front.stats(),
            retained: (0..front.view_count())
                .map(|v| front.retained_epochs(v))
                .collect::<Result<_, _>>()?,
            publication_log: front.publication_log(),
            reads: self.reads,
            subscriptions: self.subscriptions,
            lag: self.lag,
        })
    }
}

/// Poll one bounded subscription, logging what happened: the deltas it
/// drained, or — when it had lagged past its bound — the lag and the
/// snapshot resume (flip it live pinning the resume epoch, read the
/// snapshot, release the pin). Returns `(delivered, resumed)`.
fn poll_bounded(
    front: &ReadFrontend,
    entry: &mut LagSubscription,
) -> Result<(usize, bool), CoreError> {
    match front.poll(entry.sub) {
        Ok(deltas) => {
            let delivered = deltas.len();
            entry
                .events
                .extend(deltas.into_iter().map(LagEvent::Delivered));
            Ok((delivered, false))
        }
        Err(ServeError::Lagged { resume_epoch, .. }) => {
            entry.events.push(LagEvent::Lagged { resume_epoch });
            let pin = front.resume(entry.sub)?;
            let snapshot = (*front.read_scan(&pin, None)?.bag).clone();
            let epoch = pin.epoch();
            front.unpin(pin)?;
            entry.events.push(LagEvent::Resumed { epoch, snapshot });
            Ok((0, true))
        }
        Err(e) => Err(e.into()),
    }
}

/// What one resolved read observed.
#[derive(Clone, Debug)]
pub enum ReadResult {
    /// Point lookup: total multiplicity plus the matching tuples.
    Point {
        /// Sum of matching multiplicities.
        multiplicity: i64,
        /// The matching `(tuple, multiplicity)` pairs, sorted.
        matches: Vec<(Tuple, i64)>,
    },
    /// Full snapshot scan.
    Scan {
        /// The pinned epoch's contents.
        bag: Bag,
    },
    /// The pinned epoch violated the op's staleness bound.
    Rejected {
        /// The bound's cutoff instant.
        required: Time,
        /// Freshest epoch that would have satisfied the bound, if any.
        freshest_admissible: Option<u64>,
    },
    /// A subscription was registered.
    Subscribed {
        /// Subscription id (its stream lands in
        /// [`ServeOutcome::subscriptions`]).
        sub: u64,
    },
    /// A bounded subscription was polled (lag arm; a no-op when the arm
    /// is off). Full event detail lands in [`ServeOutcome::lag`].
    Polled {
        /// Install deltas drained by this poll.
        delivered: usize,
        /// Whether the poll found the subscription lagged and resumed it
        /// through the snapshot-at-resume-epoch path.
        resumed: bool,
    },
}

/// One read op's resolution, with the provenance the oracle needs.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The scheduled op.
    pub op: ReadOp,
    /// Epoch the op was pinned to (the view's latest at issue time; for
    /// subscriptions, the epoch the stream starts after).
    pub epoch: u64,
    /// Warehouse deliveries visible when the op resolved — a prefix
    /// length into [`MultiViewReport::delivery_log`].
    pub deliveries_seen: usize,
    /// What happened.
    pub result: ReadResult,
}

impl ReadOutcome {
    /// Whether the read was answered (vs. rejected; subscriptions count
    /// as answered).
    pub fn answered(&self) -> bool {
        !matches!(self.result, ReadResult::Rejected { .. })
    }
}

/// One observable event in a bounded subscription's lifetime, in order.
#[derive(Clone, Debug)]
pub enum LagEvent {
    /// A poll drained this install delta while the subscription was live.
    Delivered(InstallDelta),
    /// A poll found the subscription lagged past its `max_lag` bound
    /// (its queue had been dropped at overflow time).
    Lagged {
        /// The epoch recovery will resume from.
        resume_epoch: u64,
    },
    /// The subscription resumed: the snapshot pinned and read at the
    /// resume epoch. Subsequent `Delivered` events continue from
    /// `epoch + 1`.
    Resumed {
        /// The resume epoch.
        epoch: u64,
        /// The snapshot's contents — audited against the recompute
        /// oracle by [`audit_lag_recoveries`].
        snapshot: Bag,
    },
}

/// One bounded subscription's full event history (lag arm).
#[derive(Clone, Debug)]
pub struct LagSubscription {
    /// Subscribed base view (registry slot).
    pub view: usize,
    /// Subscription id.
    pub sub: u64,
    /// The queue bound it was registered with.
    pub max_lag: usize,
    /// Epoch the subscription started after.
    pub from_epoch: u64,
    /// Everything that happened to it, in order.
    pub events: Vec<LagEvent>,
}

/// One subscription's drained install stream.
#[derive(Clone, Debug)]
pub struct SubscriptionOutcome {
    /// Issuing reader (`usize::MAX` for the experiment's baseline
    /// subscriptions registered before traffic).
    pub reader: usize,
    /// Subscribed view (registry slot).
    pub view: usize,
    /// Subscription id.
    pub sub: u64,
    /// Epoch the subscription started after — the stream holds epochs
    /// `from_epoch + 1 ..`.
    pub from_epoch: u64,
    /// Install deltas in publication (= install-ticket) order.
    pub stream: Vec<InstallDelta>,
}

/// The serve section of a [`MultiViewReport`]: what the snapshot store
/// and the read schedule did.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Snapshot-store counters (publications, GC, reads, pins,
    /// subscription fan-out).
    pub serve_stats: ServeStats,
    /// Epochs still retained per slot at quiescence (base slots first,
    /// then derived slots).
    pub retained: Vec<Vec<u64>>,
    /// Every accepted install as `(view slot, epoch)` in publication
    /// order — the global install-ticket order. A base install and its
    /// cascaded derived descendants form one contiguous block (children
    /// ascending by slot, depth-first); replays never re-enter it.
    pub publication_log: Vec<(usize, u64)>,
    /// Every resolved read, in issue order.
    pub reads: Vec<ReadOutcome>,
    /// Every subscription's drained stream (baseline ones first).
    pub subscriptions: Vec<SubscriptionOutcome>,
    /// Bounded-subscription event histories (empty unless
    /// [`MultiViewExperiment::bounded_subscriptions`](crate::MultiViewExperiment::bounded_subscriptions)
    /// is on).
    pub lag: Vec<LagSubscription>,
}

impl ServeOutcome {
    /// Answered (non-rejected) reads.
    pub fn answered(&self) -> usize {
        self.reads.iter().filter(|r| r.answered()).count()
    }

    /// Reads rejected for violating their staleness bound.
    pub fn rejected(&self) -> usize {
        self.reads.len() - self.answered()
    }
}

/// Aggregate verdict of [`audit_reads`]: every read in a report checked
/// against the recompute and staleness oracles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleAudit {
    /// Reads audited (subscriptions excluded).
    pub reads: u64,
    /// Reads answered.
    pub answered: u64,
    /// Reads rejected as too stale.
    pub rejected: u64,
    /// Reads the staleness oracle says *should* have been rejected.
    pub expected_rejected: u64,
    /// Answered reads whose contents diverged from a fresh recompute at
    /// their pinned epoch. Must be zero.
    pub content_mismatches: u64,
    /// Reads whose accept/reject verdict disagreed with the staleness
    /// oracle. Must be zero.
    pub verdict_mismatches: u64,
}

impl OracleAudit {
    /// No divergence anywhere: contents and verdicts both exact.
    pub fn clean(&self) -> bool {
        self.content_mismatches == 0 && self.verdict_mismatches == 0
    }
}

/// Audit every read in `report` against the oracles: answered point and
/// scan reads must equal a fresh recompute of the view at their pinned
/// epoch ([`oracle_view_at_epoch`]), and each accept/reject verdict
/// must match [`oracle_expects_rejection`].
pub fn audit_reads(
    scenario: &MultiViewScenario,
    report: &MultiViewReport,
) -> Result<OracleAudit, CoreError> {
    let mut audit = OracleAudit::default();
    for read in report.serve.iter().flat_map(|s| &s.reads) {
        if matches!(
            read.result,
            ReadResult::Subscribed { .. } | ReadResult::Polled { .. }
        ) {
            continue;
        }
        audit.reads += 1;
        let expect_reject = oracle_expects_rejection(scenario, report, read);
        if expect_reject {
            audit.expected_rejected += 1;
        }
        if read.answered() == expect_reject {
            audit.verdict_mismatches += 1;
        }
        match &read.result {
            ReadResult::Rejected { .. } => audit.rejected += 1,
            ReadResult::Scan { bag } => {
                audit.answered += 1;
                let truth = oracle_view_at_epoch(
                    scenario,
                    read.op.view,
                    &report.views[read.op.view].installs,
                    read.epoch,
                )?;
                if bag != &truth {
                    audit.content_mismatches += 1;
                }
            }
            ReadResult::Point {
                multiplicity,
                matches,
            } => {
                audit.answered += 1;
                let ReadKind::Point { column, key } = read.op.kind else {
                    audit.content_mismatches += 1;
                    continue;
                };
                let truth = oracle_view_at_epoch(
                    scenario,
                    read.op.view,
                    &report.views[read.op.view].installs,
                    read.epoch,
                )?;
                let want: Vec<(Tuple, i64)> = truth
                    .to_sorted_vec()
                    .into_iter()
                    .filter(|(t, _)| t.at(column) == &dw_relational::Value::Int(key))
                    .collect();
                if matches != &want || *multiplicity != want.iter().map(|&(_, m)| m).sum::<i64>() {
                    audit.content_mismatches += 1;
                }
            }
            ReadResult::Subscribed { .. } | ReadResult::Polled { .. } => {
                unreachable!("filtered above")
            }
        }
    }
    Ok(audit)
}

/// Aggregate verdict of [`audit_lag_recoveries`]: every bounded
/// subscription's event history checked for stream equivalence — the
/// deltas it received plus the snapshots it resumed through must
/// reconstruct exactly what an unbounded subscriber saw.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LagAudit {
    /// Bounded subscriptions audited.
    pub subs: u64,
    /// Install deltas delivered across them.
    pub delivered: u64,
    /// Lag conditions observed (polls that found a dropped queue).
    pub lag_events: u64,
    /// Snapshot resumes taken.
    pub resumes: u64,
    /// Epoch-contiguity violations inside live stretches. Must be zero.
    pub gap_violations: u64,
    /// Resume snapshots that diverged from the recompute oracle at
    /// their epoch. Must be zero.
    pub snapshot_mismatches: u64,
    /// Subscriptions whose folded history (deltas + resume snapshots)
    /// missed the view's final contents, or stopped short of its final
    /// epoch. Must be zero.
    pub final_mismatches: u64,
}

impl LagAudit {
    /// Every bounded subscription reconstructed the unbounded stream.
    pub fn clean(&self) -> bool {
        self.gap_violations == 0 && self.snapshot_mismatches == 0 && self.final_mismatches == 0
    }
}

/// Audit every bounded subscription in `report` for recovery
/// equivalence: fold its event history — merging delivered deltas,
/// substituting the resume snapshot at each `Resumed` — and require (a)
/// contiguous epochs within each live stretch, (b) every resume
/// snapshot equal to [`oracle_view_at_epoch`] at its epoch, and (c) the
/// folded end state equal to the oracle at the view's final epoch. That
/// is exactly "resumed stream + snapshot == full stream".
pub fn audit_lag_recoveries(
    scenario: &MultiViewScenario,
    report: &MultiViewReport,
) -> Result<LagAudit, CoreError> {
    let mut audit = LagAudit::default();
    for sub in report.serve.iter().flat_map(|s| &s.lag) {
        audit.subs += 1;
        let installs = report
            .installs_for_slot(sub.view)
            .ok_or_else(|| CoreError::Multi(format!("lag audit: no slot {}", sub.view)))?;
        let mut running = oracle_view_at_epoch(scenario, sub.view, installs, sub.from_epoch)?;
        let mut next = sub.from_epoch + 1;
        for ev in &sub.events {
            match ev {
                LagEvent::Delivered(d) => {
                    audit.delivered += 1;
                    if d.view != sub.view || d.epoch != next {
                        audit.gap_violations += 1;
                    }
                    running.merge(&d.delta);
                    next = d.epoch + 1;
                }
                LagEvent::Lagged { .. } => audit.lag_events += 1,
                LagEvent::Resumed { epoch, snapshot } => {
                    audit.resumes += 1;
                    let truth = oracle_view_at_epoch(scenario, sub.view, installs, *epoch)?;
                    if snapshot != &truth {
                        audit.snapshot_mismatches += 1;
                    }
                    running = snapshot.clone();
                    next = epoch + 1;
                }
            }
        }
        // The quiescence drain catches every bounded subscription up to
        // the view's final epoch; anything short is a lost suffix.
        let last = next - 1;
        if last != installs.len() as u64 {
            audit.final_mismatches += 1;
            continue;
        }
        let truth = oracle_view_at_epoch(scenario, sub.view, installs, last)?;
        if running != truth {
            audit.final_mismatches += 1;
        }
    }
    Ok(audit)
}

/// Recompute a view's contents at epoch `e` from first principles: the
/// scenario's initial relations with the deltas of every transaction
/// consumed by installs `1..=e` applied, evaluated through the view
/// definition. This is the ground truth a snapshot read at a pinned
/// epoch must equal.
pub fn oracle_view_at_epoch(
    scenario: &MultiViewScenario,
    view_index: usize,
    installs: &[dw_warehouse::InstallRecord],
    epoch: u64,
) -> Result<Bag, CoreError> {
    let spec = scenario
        .views
        .get(view_index)
        .ok_or_else(|| CoreError::Multi(format!("oracle: no view {view_index}")))?;
    let local = spec.compile(&scenario.base)?;
    let mut shadows: Vec<Bag> = scenario.initial[spec.lo..=spec.hi].to_vec();
    if epoch > 0 {
        let deltas = txn_deltas(scenario);
        for rec in installs.iter().take(epoch as usize) {
            for id in &rec.consumed {
                let delta = deltas.get(id).ok_or_else(|| {
                    CoreError::Multi(format!("oracle: consumed unknown update {id:?}"))
                })?;
                shadows[id.source - spec.lo].merge(delta);
            }
        }
    }
    let refs: Vec<&Bag> = shadows.iter().collect();
    Ok(eval_view(&local, &refs)?)
}

/// Whether the staleness oracle expects this read to have been
/// rejected: some in-span update was delivered before the bound's
/// cutoff (within the delivery prefix visible at issue time) yet was
/// not consumed by any install up to the pinned epoch.
pub fn oracle_expects_rejection(
    scenario: &MultiViewScenario,
    report: &MultiViewReport,
    read: &ReadOutcome,
) -> bool {
    let Some(window) = read.op.bound_window else {
        return false;
    };
    let Some(spec) = scenario.views.get(read.op.view) else {
        return false;
    };
    let cutoff = read.op.at.saturating_sub(window);
    // First delivery time per update within the visible prefix (the
    // store also keeps the first).
    let mut first_seen: HashMap<UpdateId, Time> = HashMap::new();
    for &(id, at) in &report.delivery_log[..read.deliveries_seen] {
        first_seen.entry(id).or_insert(at);
    }
    let consumed: HashSet<UpdateId> = report.views[read.op.view]
        .installs
        .iter()
        .take(read.epoch as usize)
        .flat_map(|r| r.consumed.iter().copied())
        .collect();
    first_seen.iter().any(|(id, &at)| {
        spec.lo <= id.source && id.source <= spec.hi && at < cutoff && !consumed.contains(id)
    })
}

/// Per-update transaction deltas, keyed by the `UpdateId` each source
/// will stamp: sources emit one update per applied transaction, with
/// per-source sequence numbers following injection (time) order.
fn txn_deltas(scenario: &MultiViewScenario) -> HashMap<UpdateId, Bag> {
    let mut next_seq: HashMap<usize, u64> = HashMap::new();
    let mut map = HashMap::new();
    let mut order: Vec<usize> = (0..scenario.txns.len()).collect();
    order.sort_by_key(|&i| (scenario.txns[i].at, i));
    for i in order {
        let t = &scenario.txns[i];
        let seq = next_seq.entry(t.source).or_insert(0);
        map.insert(
            UpdateId {
                source: t.source,
                seq: *seq,
            },
            t.delta.clone(),
        );
        *seq += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiViewExperiment;
    use dw_protocol::WAREHOUSE_NODE;
    use dw_relational::ShardMap;
    use dw_simnet::FaultPlan;
    use dw_workload::{MultiViewConfig, ReadMixConfig, StreamConfig};

    fn scenario(n_views: usize, seed: u64) -> MultiViewScenario {
        MultiViewConfig {
            stream: StreamConfig {
                n_sources: 4,
                updates: 20,
                initial_per_source: 12,
                domain: 8,
                mean_gap: 500,
                seed,
                ..Default::default()
            },
            n_views,
            view_seed: seed ^ 0xABCD,
            full_span: false,
            n_derived: 0,
            derived_seed: 0,
        }
        .generate()
        .unwrap()
    }

    fn mix(n_views: usize, seed: u64) -> Vec<ReadOp> {
        ReadMixConfig {
            readers: 4,
            reads_per_reader: 10,
            n_views,
            seed,
            ..Default::default()
        }
        .generate()
    }

    fn served(r: &MultiViewReport) -> &ServeOutcome {
        r.serve.as_ref().expect("a serving run")
    }

    fn check_against_oracle(scenario: &MultiViewScenario, report: &MultiViewReport) {
        assert!(report.quiescent);
        for read in &served(report).reads {
            match &read.result {
                ReadResult::Scan { bag } => {
                    let truth = oracle_view_at_epoch(
                        scenario,
                        read.op.view,
                        &report.views[read.op.view].installs,
                        read.epoch,
                    )
                    .unwrap();
                    assert_eq!(bag, &truth, "scan at epoch {} drifted", read.epoch);
                    assert!(!oracle_expects_rejection(scenario, report, read));
                }
                ReadResult::Point {
                    multiplicity,
                    matches,
                } => {
                    let truth = oracle_view_at_epoch(
                        scenario,
                        read.op.view,
                        &report.views[read.op.view].installs,
                        read.epoch,
                    )
                    .unwrap();
                    let ReadKind::Point { column, key } = read.op.kind else {
                        panic!("point outcome from non-point op");
                    };
                    let want: Vec<(Tuple, i64)> = truth
                        .to_sorted_vec()
                        .into_iter()
                        .filter(|(t, _)| t.at(column) == &dw_relational::Value::Int(key))
                        .collect();
                    assert_eq!(matches, &want);
                    assert_eq!(*multiplicity, want.iter().map(|&(_, m)| m).sum::<i64>());
                    assert!(!oracle_expects_rejection(scenario, report, read));
                }
                ReadResult::Rejected { .. } => {
                    assert!(
                        oracle_expects_rejection(scenario, report, read),
                        "spurious rejection at epoch {} (op at {})",
                        read.epoch,
                        read.op.at
                    );
                }
                ReadResult::Subscribed { .. } | ReadResult::Polled { .. } => {}
            }
        }
        assert!(report.subscriptions_match_installs());
    }

    #[test]
    fn flat_reads_match_oracle_and_subs_replay_installs() {
        let sc = scenario(3, 11);
        let reads = mix(3, 11);
        let report = MultiViewExperiment::new(sc.clone())
            .baseline_subscriptions(true)
            .reads(reads)
            .run()
            .unwrap();
        assert!(served(&report).serve_stats.snapshots_published > 0);
        let installs: u64 = report.views.iter().map(|v| v.installs.len() as u64).sum();
        assert_eq!(served(&report).serve_stats.snapshots_published, installs);
        assert!(served(&report).answered() > 0);
        check_against_oracle(&sc, &report);
    }

    #[test]
    fn tight_bounds_reject_exactly_when_oracle_says() {
        let sc = scenario(2, 12);
        // Zero trailing window: the answer must reflect everything
        // delivered before the read instant — mid-sweep reads reject.
        let reads: Vec<ReadOp> = mix(2, 12)
            .into_iter()
            .map(|mut op| {
                if !matches!(op.kind, ReadKind::Subscribe) {
                    op.bound_window = Some(0);
                }
                op
            })
            .collect();
        let report = MultiViewExperiment::new(sc.clone())
            .baseline_subscriptions(true)
            .reads(reads)
            .run()
            .unwrap();
        assert_eq!(
            served(&report).rejected() as u64,
            served(&report).serve_stats.reads_rejected,
            "store counters disagree with outcomes"
        );
        check_against_oracle(&sc, &report);
    }

    #[test]
    fn sharded_engine_serves_the_same_epochs() {
        let sc = scenario(3, 13);
        let map = ShardMap::hash(2);
        let reads = mix(3, 13);
        let flat = MultiViewExperiment::new(sc.clone())
            .baseline_subscriptions(true)
            .reads(reads.clone())
            .run()
            .unwrap();
        let sharded = MultiViewExperiment::new(sc.clone())
            .baseline_subscriptions(true)
            .sharded(map)
            .reads(reads)
            .run()
            .unwrap();
        assert!(sharded.shard_stats.is_some() && flat.shard_stats.is_none());
        check_against_oracle(&sc, &sharded);
        assert_eq!(flat.install_fingerprint(), sharded.install_fingerprint());
    }

    #[test]
    fn reads_survive_a_warehouse_crash_window() {
        let sc = scenario(2, 14);
        let crash_at = sc.txns[8].at;
        let reads = mix(2, 14);
        let report = MultiViewExperiment::new(sc.clone())
            .baseline_subscriptions(true)
            .reads(reads)
            .durability(2)
            .transport_auto()
            .faults(FaultPlan::none().state_crash(WAREHOUSE_NODE, crash_at, crash_at + 2_000))
            .run()
            .unwrap();
        assert!(report.recovery.as_ref().unwrap().recoveries >= 1);
        // Every read resolved — none was lost to the crash window.
        assert_eq!(
            served(&report).reads.len(),
            served(&report).answered() + served(&report).rejected()
        );
        check_against_oracle(&sc, &report);
    }

    /// Field-wise byte-equality of two runs' read outcomes (Bag hides a
    /// HashMap, so Debug-string comparison would be order-unstable).
    fn assert_reads_identical(a: &MultiViewReport, b: &MultiViewReport) {
        let (a, b) = (served(a), served(b));
        assert_eq!(a.reads.len(), b.reads.len());
        for (x, y) in a.reads.iter().zip(&b.reads) {
            assert_eq!(x.op, y.op);
            assert_eq!(x.epoch, y.epoch);
            assert_eq!(x.deliveries_seen, y.deliveries_seen);
            match (&x.result, &y.result) {
                (
                    ReadResult::Point {
                        multiplicity: m1,
                        matches: t1,
                    },
                    ReadResult::Point {
                        multiplicity: m2,
                        matches: t2,
                    },
                ) => {
                    assert_eq!(m1, m2);
                    assert_eq!(t1, t2);
                }
                (ReadResult::Scan { bag: b1 }, ReadResult::Scan { bag: b2 }) => {
                    assert_eq!(b1, b2)
                }
                (
                    ReadResult::Rejected {
                        required: r1,
                        freshest_admissible: f1,
                    },
                    ReadResult::Rejected {
                        required: r2,
                        freshest_admissible: f2,
                    },
                ) => {
                    assert_eq!(r1, r2);
                    assert_eq!(f1, f2);
                }
                (ReadResult::Subscribed { .. }, ReadResult::Subscribed { .. }) => {}
                (
                    ReadResult::Polled {
                        delivered: d1,
                        resumed: r1,
                    },
                    ReadResult::Polled {
                        delivered: d2,
                        resumed: r2,
                    },
                ) => {
                    assert_eq!(d1, d2);
                    assert_eq!(r1, r2);
                }
                (x, y) => panic!("outcome shape diverged: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn index_and_cache_arms_are_invisible_to_answers() {
        let sc = scenario(2, 16);
        let reads = ReadMixConfig::hot_key_points(4, 16, 16);
        let reads = ReadMixConfig {
            n_views: 2,
            ..reads
        }
        .generate();
        let indexed = MultiViewExperiment::new(sc.clone())
            .baseline_subscriptions(true)
            .reads(reads.clone())
            .run()
            .unwrap();
        let linear = MultiViewExperiment::new(sc.clone())
            .baseline_subscriptions(true)
            .reads(reads.clone())
            .point_index(false)
            .run()
            .unwrap();
        let cached = MultiViewExperiment::new(sc.clone())
            .baseline_subscriptions(true)
            .reads(reads)
            .answer_cache(32)
            .run()
            .unwrap();
        assert_reads_identical(&indexed, &linear);
        assert_reads_identical(&indexed, &cached);
        check_against_oracle(&sc, &indexed);
        // The arms really engaged: the indexed run built indexes and did
        // strictly less per-read work than the linear one; the cached
        // run hit its cache on the hot keys.
        assert!(served(&indexed).serve_stats.point_index_builds > 0);
        assert_eq!(served(&linear).serve_stats.point_index_builds, 0);
        assert!(
            served(&indexed).serve_stats.read_work_tuples
                < served(&linear).serve_stats.read_work_tuples
        );
        assert!(served(&cached).serve_stats.cache_hits > 0);
    }

    #[test]
    fn lagged_subscriptions_recover_equivalently() {
        // Seed 20 deals both views a Sweep policy (12 and 11 installs) —
        // plenty of publish pressure for a queue bound of 1.
        let sc = scenario(2, 20);
        let reads = ReadMixConfig {
            n_views: 2,
            ..ReadMixConfig::laggy_subscribers(4, 20, 20)
        }
        .generate();
        let report = MultiViewExperiment::new(sc.clone())
            .baseline_subscriptions(true)
            .reads(reads)
            .bounded_subscriptions(1)
            .run()
            .unwrap();
        check_against_oracle(&sc, &report);
        let audit = audit_lag_recoveries(&sc, &report).unwrap();
        assert_eq!(audit.subs, 2);
        assert!(
            audit.lag_events >= 1 && audit.resumes >= 1,
            "max_lag=1 under ~a dozen installs per view must overflow: {audit:?}"
        );
        assert!(audit.clean(), "{audit:?}");
        assert_eq!(served(&report).serve_stats.subs_lagged, audit.lag_events);
        assert_eq!(served(&report).serve_stats.subs_resumed, audit.resumes);
    }

    #[test]
    fn no_reader_referee_has_identical_maintenance() {
        let sc = scenario(3, 15);
        let with_reads = MultiViewExperiment::new(sc.clone())
            .baseline_subscriptions(true)
            .reads(mix(3, 15))
            .run()
            .unwrap();
        let referee = MultiViewExperiment::new(sc).run().unwrap();
        assert!(
            referee.serve.is_none(),
            "a no-reader run attaches no frontend"
        );
        assert_eq!(with_reads.makespan(), referee.makespan());
        assert_eq!(with_reads.query_messages(), referee.query_messages());
        assert_eq!(
            with_reads.install_fingerprint(),
            referee.install_fingerprint()
        );
    }
}
