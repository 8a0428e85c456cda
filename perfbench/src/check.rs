//! Output checks. The first round of each sub-scenario is checked
//! against fresh recomputes; every later round of it runs the same inputs
//! and must reproduce the first round's answers exactly.

use crate::drive::{bag_digest, err, eval_traced, point_digest, Outcome, ReadRecord, Round};
use crate::ledger::{count, span, Counter, Span};
use dw_core::oracle_view_at_epoch;
use dw_protocol::UpdateId;
use dw_relational::{Bag, Value};
use dw_workload::ReadKind;
use std::collections::{BTreeMap, HashMap, HashSet};

/// At most this many `(view, epoch)` groups of reads are recomputed per
/// checked round; every read in a checked group is compared. Groups are
/// taken evenly over the sorted group list.
const ORACLE_GROUPS: usize = 4;

#[derive(Debug, Default)]
pub struct Verdict {
    /// Output checks that failed, with what broke (capped).
    pub failures: u64,
    pub notes: Vec<String>,
    /// Reads refused (`TooStale`) or erroring.
    pub refused: u64,
    /// Transactions some base view never installed.
    pub never_installed: u64,
    /// Reads compared against a fresh recompute.
    pub oracle_reads: u64,
}

impl Verdict {
    fn fail(&mut self, n: u64, what: String) {
        if n == 0 {
            return;
        }
        self.failures += n;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

/// What later rounds must reproduce.
#[derive(Clone)]
pub struct Fingerprint {
    reads: Vec<ReadRecord>,
    views: Vec<u64>,
}

pub fn fingerprint(round: &Round) -> Result<Fingerprint, String> {
    Ok(Fingerprint {
        reads: round.reads.clone(),
        views: round.view_digests()?,
    })
}

/// Final contents against fresh recomputes, and subscription streams
/// against the install logs. `initial` holds each view's digest before
/// the drive.
pub fn final_state(round: &Round, initial: &[u64], v: &mut Verdict) -> Result<(), String> {
    let sc = &round.inputs.scenario;
    if !round.sched.is_quiescent() {
        v.fail(1, "scheduler not quiescent at the end".into());
    }
    // Base views equal a fresh evaluation over the sources' final relations.
    let finals: Vec<&Bag> = round.sources.iter().map(|s| s.relation().bag()).collect();
    for (k, spec) in sc.views.iter().enumerate() {
        let local = spec.compile(&sc.base).map_err(err)?;
        let truth = eval_traced(&local, &finals[spec.lo..=spec.hi])?;
        if round.view_bag(k)? != &truth {
            v.fail(
                1,
                format!("base view {} differs from a fresh eval_view", spec.name),
            );
        }
    }
    // Derived views equal a recompute over their parent.
    let reg = round.sched.views();
    for &id in &round.derived_ids {
        let parent = reg
            .parent_of(id)
            .map_err(err)?
            .ok_or("derived view without parent")?;
        let op = reg
            .derived_op(id)
            .map_err(err)?
            .ok_or("derived view without op")?;
        let truth = op.eval(reg.view_bag(parent).map_err(err)?).map_err(err)?;
        if reg.view_bag(id).map_err(err)? != &truth {
            v.fail(
                1,
                format!(
                    "derived view {} differs from its recompute",
                    reg.name(id).map_err(err)?
                ),
            );
        }
    }
    // The store's latest epoch serves what the scheduler holds, and every
    // subscription stream replays its view's install log.
    for (slot, &start) in initial.iter().enumerate() {
        let pin = round.front.pin(slot).map_err(err)?;
        let latest = round.front.read_scan(&pin, None).map_err(err)?;
        round.front.unpin(pin).map_err(err)?;
        let bag = round.view_bag(slot)?;
        if latest.bag.as_ref() != bag {
            v.fail(
                1,
                format!("store's latest epoch of slot {slot} differs from the view"),
            );
        }
        let mut drained = round.polled[slot].clone();
        drained.extend(round.front.poll(round.subs[slot]).map_err(err)?);
        let id = *round
            .base_ids
            .iter()
            .chain(&round.derived_ids)
            .find(|id| id.index() == slot)
            .ok_or("slot without view")?;
        let log = reg.install_log(id).map_err(err)?;
        let replay_ok = drained.len() == log.len()
            && drained.iter().zip(log).enumerate().all(|(i, (d, rec))| {
                d.epoch == i as u64 + 1 && d.consumed == rec.consumed && d.at == rec.at
            });
        if !replay_ok {
            v.fail(
                1,
                format!("subscription on slot {slot} does not replay its installs"),
            );
        } else {
            // Digests add over bag union, so the initial contents plus
            // every delta must digest to the final view.
            let folded = drained
                .iter()
                .fold(start, |acc, d| acc.wrapping_add(bag_digest(d.delta.iter())));
            if folded != bag_digest(bag.iter()) {
                v.fail(
                    1,
                    format!("subscription deltas on slot {slot} do not fold to the view"),
                );
            }
        }
    }
    Ok(())
}

/// Operations of a round that failed without a check failing: reads
/// refused or erroring, and transactions some base view never installed.
/// Counted on every round.
pub fn lost(round: &Round, v: &mut Verdict) -> Result<(), String> {
    v.refused += round
        .reads
        .iter()
        .filter(|r| !matches!(r.outcome, Outcome::Answered(_)))
        .count() as u64;
    if let Some(e) = &round.first_error {
        if v.notes.len() < 8 {
            v.notes.push(format!("read error: {e}"));
        }
    }
    let delivered: HashSet<UpdateId> = round.delivery_log.iter().map(|&(id, _)| id).collect();
    let mut missing = round
        .inputs
        .scenario
        .txns
        .len()
        .saturating_sub(delivered.len());
    let reg = round.sched.views();
    let mut uninstalled: HashSet<UpdateId> = HashSet::new();
    for &id in &round.base_ids {
        let consumed: HashSet<UpdateId> = reg
            .install_log(id)
            .map_err(err)?
            .iter()
            .flat_map(|r| r.consumed.iter().copied())
            .collect();
        uninstalled.extend(delivered.difference(&consumed));
    }
    missing += uninstalled.len();
    v.never_installed += missing as u64;
    Ok(())
}

/// Compare answers against fresh recomputes at the pinned epoch
/// (`oracle_view_at_epoch`), and each staleness verdict against the
/// delivery log.
pub fn oracle(round: &Round, v: &mut Verdict) -> Result<(), String> {
    let sc = &round.inputs.scenario;
    let reg = round.sched.views();
    let mut groups: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
    for (i, (op, rec)) in round.inputs.reads.iter().zip(&round.reads).enumerate() {
        if matches!(op.kind, ReadKind::Point { .. } | ReadKind::Scan) {
            groups.entry((op.view, rec.epoch)).or_default().push(i);
        }
        if let Some(window) = op.bound_window {
            let expect = expects_refusal(round, op.view, op.at.saturating_sub(window), rec)?;
            if expect != (rec.outcome == Outcome::TooStale) {
                v.fail(
                    1,
                    format!("read {i}: staleness verdict disagrees with the delivery log"),
                );
            }
        }
    }
    let step = groups.len().div_ceil(ORACLE_GROUPS).max(1);
    for ((view, epoch), members) in groups.into_iter().step_by(step) {
        let id = round.base_ids[view];
        let truth = span(Span::Oracle, || {
            oracle_view_at_epoch(sc, view, reg.install_log(id).map_err(err)?, epoch).map_err(err)
        })?;
        count(Counter::OracleTuples, truth.distinct_len() as u64);
        let scan = bag_digest(truth.iter());
        // Point answers by (column, key), for each column the group reads.
        let mut points: HashMap<(usize, &Value), Bag> = HashMap::new();
        let mut columns: Vec<usize> = Vec::new();
        for i in &members {
            if let ReadKind::Point { column, .. } = round.inputs.reads[*i].kind {
                if !columns.contains(&column) {
                    columns.push(column);
                    for (t, m) in truth.iter() {
                        points
                            .entry((column, t.at(column)))
                            .or_default()
                            .add(t.clone(), m);
                    }
                }
            }
        }
        let empty = Bag::new();
        for i in members {
            let rec = &round.reads[i];
            let Outcome::Answered(got) = rec.outcome else {
                continue;
            };
            let want = match round.inputs.reads[i].kind {
                ReadKind::Point { column, key } => {
                    let key = Value::Int(key);
                    let group = points.get(&(column, &key)).unwrap_or(&empty);
                    let mult = group.iter().map(|(_, m)| m).sum();
                    point_digest(mult, group.iter())
                }
                _ => scan,
            };
            v.oracle_reads += 1;
            if got != want {
                v.fail(
                    1,
                    format!("read {i} on view {view} epoch {epoch} differs from a fresh recompute"),
                );
            }
        }
    }
    Ok(())
}

/// Whether a bounded read at this epoch should be refused: some update
/// the view references was delivered before `cutoff` (within the
/// deliveries visible to the read) and no install up to the epoch had
/// consumed it.
fn expects_refusal(
    round: &Round,
    view: usize,
    cutoff: u64,
    rec: &ReadRecord,
) -> Result<bool, String> {
    let spec = &round.inputs.scenario.views[view];
    let log = round
        .sched
        .views()
        .install_log(round.base_ids[view])
        .map_err(err)?;
    let consumed: HashSet<UpdateId> = log
        .iter()
        .take(rec.epoch as usize)
        .flat_map(|r| r.consumed.iter().copied())
        .collect();
    Ok(round.delivery_log[..rec.deliveries_seen]
        .iter()
        .any(|(id, at)| spec.references(id.source) && *at < cutoff && !consumed.contains(id)))
}

/// Later rounds: the same inputs must give the same answers.
pub fn same_as(round: &Round, first: &Fingerprint, v: &mut Verdict) -> Result<(), String> {
    let now = fingerprint(round)?;
    let differing = now
        .reads
        .iter()
        .zip(&first.reads)
        .filter(|(a, b)| a != b)
        .count()
        + now.reads.len().abs_diff(first.reads.len());
    v.fail(
        differing as u64,
        format!("{differing} reads differ from the first round's"),
    );
    let views = now
        .views
        .iter()
        .zip(&first.views)
        .filter(|(a, b)| a != b)
        .count();
    v.fail(
        views as u64,
        format!("{views} final views differ from the first round's"),
    );
    Ok(())
}
