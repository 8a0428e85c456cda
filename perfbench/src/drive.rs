//! One round: set a warehouse up from a workload's inputs, then drive
//! the deterministic simulator to quiescence on this thread, resolving
//! each scheduled read at its virtual instant between deliveries (the
//! way `dw_core::ServeExperiment` does). Reads form a closed loop with
//! one client; each is timed from call to return.
//!
//! Every node type is built with its default public constructor and no
//! opt-in knobs (no source join indexes, no answer cache), so a change
//! to a default is measured. The one knob turned is the scheduler's
//! install-log snapshots: a consistency-checker aid that deep-copies
//! every view on every install and would hold hundreds of MiB here.

use crate::ledger::{count, span, Counter, Span};
use dw_engine::{InstallEvent, InstallPublisher, SharedInstallPublisher};
use dw_multiview::{MaintenanceScheduler, SchedulerMode, ViewId};
use dw_protocol::{node_source, source_node, Message, UpdateId, WAREHOUSE_NODE};
use dw_relational::{eval_view, Bag, BaseRelation, Tuple, Value};
use dw_serve::{InstallDelta, ReadFrontend, ServeError, StalenessBound};
use dw_simnet::{NetHandle, Network, NodeId, Payload, Time};
use dw_source::DataSource;
use dw_workload::{ReadKind, ReadOp};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::workload::{Inputs, Workload};

/// What one read returned, reduced to what the checks compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered; the digest folds every tuple and multiplicity returned.
    Answered(u64),
    /// Refused with `TooStale`.
    TooStale,
    /// Any other error (counted as failed, printed once).
    Error,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadRecord {
    /// Pinned epoch (points and scans) or the last epoch drained (polls).
    pub epoch: u64,
    /// Warehouse update deliveries seen when the read resolved.
    pub deliveries_seen: usize,
    pub outcome: Outcome,
}

pub struct Round {
    pub inputs: Inputs,
    pub sched: MaintenanceScheduler,
    pub front: ReadFrontend,
    pub sources: Vec<DataSource>,
    pub net: Network<Message>,
    pub base_ids: Vec<ViewId>,
    pub derived_ids: Vec<ViewId>,
    /// One unbounded subscription per view slot.
    pub subs: Vec<u64>,
    /// Install deltas drained by polls, per view slot, in drain order.
    pub polled: Vec<Vec<InstallDelta>>,
    pub reads: Vec<ReadRecord>,
    /// Host nanoseconds per read op, in schedule order.
    pub read_ns: Vec<u64>,
    /// `(update, virtual delivery time)` for every warehouse update
    /// delivery, in order.
    pub delivery_log: Vec<(UpdateId, Time)>,
    pub first_error: Option<String>,
    pub setup: SetupTimes,
    pub drive_s: f64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub load_s: f64,
    pub register_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.load_s + self.register_s
    }
}

/// Build the warehouse up to the first delivery. With `traced`, the
/// scheduler publishes through [`TracedPublisher`].
pub fn setup(workload: Workload, seed: u64, traced: bool) -> Result<Round, String> {
    let t = Instant::now();
    let inputs = workload.generate(seed)?;
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let sc = &inputs.scenario;
    let n = sc.base.num_relations();
    let mut sources = Vec::with_capacity(n);
    for i in 0..n {
        let mut r = BaseRelation::new(sc.base.schema(i).clone());
        r.apply_delta(&sc.initial[i]).map_err(|e| e.to_string())?;
        sources.push(DataSource::new(i, sc.base.clone(), r));
    }
    let load_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut sched =
        MaintenanceScheduler::new(sc.base.clone(), SchedulerMode::Shared).map_err(err)?;
    sched.set_record_snapshots(false);
    let front = ReadFrontend::new();
    sched.set_install_publisher(if traced {
        Arc::new(Mutex::new(TracedPublisher(front.sink())))
    } else {
        front.sink()
    });
    let mut base_ids = Vec::new();
    for spec in &sc.views {
        let local = spec.compile(&sc.base).map_err(err)?;
        let refs: Vec<&Bag> = sc.initial[spec.lo..=spec.hi].iter().collect();
        let initial = eval_traced(&local, &refs)?;
        let id = sched.register(spec, initial.clone()).map_err(err)?;
        // The frontend keys epochs by registry slot: register in order.
        let slot = front.register_view(&spec.name, initial, 0);
        if slot != id.index() {
            return Err(format!(
                "frontend slot {slot} != registry slot {}",
                id.index()
            ));
        }
        base_ids.push(id);
    }
    let mut derived_ids = sched.register_derived_many(&sc.derived).map_err(err)?;
    derived_ids.sort_by_key(|id| id.index());
    for &id in &derived_ids {
        let reg = sched.views();
        let name = reg.name(id).map_err(err)?.to_string();
        let slot = front.register_view(&name, reg.view_bag(id).map_err(err)?.clone(), 0);
        if slot != id.index() {
            return Err(format!(
                "frontend slot {slot} != registry slot {}",
                id.index()
            ));
        }
    }
    let subs = (0..front.view_count())
        .map(|v| front.subscribe(v))
        .collect::<Result<Vec<u64>, ServeError>>()
        .map_err(err)?;
    let mut net: Network<Message> = Network::new(seed);
    for t in &sc.txns {
        net.inject(
            t.at,
            source_node(t.source),
            Message::ApplyTxn {
                rel: t.source,
                delta: t.delta.clone(),
                global: t.global,
            },
        );
    }
    let register_s = t.elapsed().as_secs_f64();

    let slots = subs.len();
    let reads = inputs.reads.len();
    Ok(Round {
        inputs,
        sched,
        front,
        sources,
        net,
        base_ids,
        derived_ids,
        subs,
        polled: vec![Vec::new(); slots],
        reads: Vec::with_capacity(reads),
        read_ns: Vec::with_capacity(reads),
        delivery_log: Vec::new(),
        first_error: None,
        setup: SetupTimes {
            generate_s,
            load_s,
            register_s,
        },
        drive_s: 0.0,
    })
}

impl Round {
    /// Drive to quiescence with every scheduled read answered. With
    /// `traced`, sends go through [`TracedNet`].
    pub fn drive(&mut self, traced: bool) -> Result<(), String> {
        let start = Instant::now();
        let mut next_op = 0;
        while let Some(d) = span(Span::SimnetNext, || self.net.next()) {
            if traced {
                count(Counter::PendingMax, self.net.pending() as u64);
            }
            // Reads due at or before this delivery resolve first, against
            // the epochs committed so far.
            while next_op < self.inputs.reads.len() && self.inputs.reads[next_op].at <= d.at {
                self.read(next_op);
                next_op += 1;
            }
            let mut traced_net;
            let net: &mut dyn NetHandle<Message> = if traced {
                traced_net = TracedNet(&mut self.net);
                &mut traced_net
            } else {
                &mut self.net
            };
            if d.to == WAREHOUSE_NODE {
                let s = match &d.msg {
                    Message::Update(u) => {
                        self.delivery_log.push((u.id, d.at));
                        Span::MultiviewUpdate
                    }
                    _ => Span::MultiviewAnswer,
                };
                span(s, || self.sched.on_message(d, net)).map_err(err)?;
            } else {
                let src = self
                    .sources
                    .get_mut(node_source(d.to))
                    .ok_or_else(|| format!("delivery to unknown node {}", d.to))?;
                let s = match &d.msg {
                    Message::ApplyTxn { delta, .. } => {
                        count(Counter::ApplyTuples, delta.distinct_len() as u64);
                        Span::SourceApply
                    }
                    Message::SweepQuery(q) => {
                        count(Counter::QueryTuplesIn, q.partial.bag.distinct_len() as u64);
                        Span::SourceQuery
                    }
                    m => return Err(format!("source got unexpected {}", m.label())),
                };
                span(s, || src.handle(d.from, d.msg, net)).map_err(err)?;
            }
        }
        while next_op < self.inputs.reads.len() {
            self.read(next_op);
            next_op += 1;
        }
        self.drive_s = start.elapsed().as_secs_f64();
        Ok(())
    }

    /// Resolve read `i` at the current virtual instant and time it.
    fn read(&mut self, i: usize) {
        let op = &self.inputs.reads[i];
        let start = Instant::now();
        // The mixes never schedule `Subscribe` (point + scan + poll ≥ 1);
        // one would poll the view's standing subscription.
        let (epoch, result) = match op.kind {
            ReadKind::Poll | ReadKind::Subscribe => (
                None,
                span(Span::ServePoll, || {
                    self.front.poll(self.subs[op.view]).map(|deltas| {
                        count(Counter::PollDeltas, deltas.len() as u64);
                        let digest = consume_deltas(&deltas);
                        (Some(deltas), digest)
                    })
                }),
            ),
            ReadKind::Point { .. } | ReadKind::Scan => {
                let (epoch, result) = resolve_pinned(&self.front, op);
                (Some(epoch), result.map(|d| (None, d)))
            }
        };
        let ns = start.elapsed().as_nanos() as u64;
        let outcome = match result {
            Ok((deltas, digest)) => {
                self.polled[op.view].extend(deltas.into_iter().flatten());
                Outcome::Answered(digest)
            }
            Err(ServeError::TooStale { .. }) => Outcome::TooStale,
            Err(e) => {
                self.first_error
                    .get_or_insert_with(|| format!("read {i} ({op:?}): {e}"));
                Outcome::Error
            }
        };
        let polled_to = || self.polled[op.view].last().map_or(0, |d| d.epoch);
        self.read_ns.push(ns);
        self.reads.push(ReadRecord {
            epoch: epoch.unwrap_or_else(polled_to),
            deliveries_seen: self.delivery_log.len(),
            outcome,
        });
    }

    /// [`bag_digest`] of every view slot's current contents.
    pub fn view_digests(&self) -> Result<Vec<u64>, String> {
        (0..self.subs.len())
            .map(|s| self.view_bag(s).map(|b| bag_digest(b.iter())))
            .collect()
    }

    /// Final contents of view slot `slot` as the scheduler holds them.
    pub fn view_bag(&self, slot: usize) -> Result<&Bag, String> {
        let id = self
            .base_ids
            .iter()
            .chain(&self.derived_ids)
            .find(|id| id.index() == slot)
            .ok_or_else(|| format!("no view slot {slot}"))?;
        self.sched.views().view_bag(*id).map_err(err)
    }
}

/// Pin → point or scan → consume → unpin.
fn resolve_pinned(front: &ReadFrontend, op: &ReadOp) -> (u64, Result<u64, ServeError>) {
    let pin = match span(Span::ServePin, || front.pin(op.view)) {
        Ok(p) => p,
        Err(e) => return (0, Err(e)),
    };
    let epoch = pin.epoch();
    let bound = op.bound_window.map(|w| StalenessBound {
        reflect_before: op.at.saturating_sub(w),
    });
    let result = match op.kind {
        ReadKind::Point { column, key } => span(Span::ServeReadPoint, || {
            front
                .read_point(&pin, column, key, bound)
                .map(|a| point_digest(a.multiplicity, a.matches.iter().map(|(t, m)| (t, *m))))
        }),
        _ => span(Span::ServeReadScan, || {
            front.read_scan(&pin, bound).map(|a| {
                count(Counter::ScanTuples, a.bag.distinct_len() as u64);
                bag_digest(a.bag.iter())
            })
        }),
    };
    let unpinned = span(Span::ServePin, || front.unpin(pin));
    (epoch, unpinned.and(result))
}

/// Order-independent digest of `(tuple, multiplicity)` pairs; the digest
/// of a bag union is the wrapping sum of the parts' digests.
pub fn bag_digest<'a>(pairs: impl Iterator<Item = (&'a Tuple, i64)>) -> u64 {
    pairs.fold(0u64, |acc, (t, m)| {
        acc.wrapping_add(tuple_hash(t).wrapping_mul(m as u64))
    })
}

pub fn point_digest<'a>(multiplicity: i64, matches: impl Iterator<Item = (&'a Tuple, i64)>) -> u64 {
    bag_digest(matches) ^ mix(multiplicity as u64)
}

fn consume_deltas(deltas: &[InstallDelta]) -> u64 {
    deltas.iter().fold(0u64, |acc, d| {
        acc.wrapping_add(mix(d.epoch) ^ bag_digest(d.delta.iter()))
    })
}

fn tuple_hash(t: &Tuple) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in t.values() {
        let x = match v {
            Value::Int(i) => *i as u64,
            other => {
                use std::hash::{Hash, Hasher};
                let mut s = std::collections::hash_map::DefaultHasher::new();
                other.hash(&mut s);
                s.finish()
            }
        };
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(h)
}

/// splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn eval_traced(view: &dw_relational::ViewDef, refs: &[&Bag]) -> Result<Bag, String> {
    let bag = span(Span::EvalView, || eval_view(view, refs)).map_err(err)?;
    count(Counter::EvalTuplesOut, bag.distinct_len() as u64);
    Ok(bag)
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The network handle the traced run hands to sources and the
/// scheduler: every send is a `simnet.send` span with its wire bytes.
struct TracedNet<'a>(&'a mut Network<Message>);

impl TracedNet<'_> {
    fn note(msg: &Message) {
        count(Counter::SendBytes, msg.size_bytes() as u64);
        if let Message::SweepAnswer(a) = msg {
            count(Counter::QueryTuplesOut, a.partial.bag.distinct_len() as u64);
        }
    }
}

impl NetHandle<Message> for TracedNet<'_> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Message) {
        Self::note(&msg);
        span(Span::SimnetSend, || self.0.send(from, to, msg));
    }

    fn send_after(&mut self, from: NodeId, to: NodeId, msg: Message, delay: Time) {
        Self::note(&msg);
        span(Span::SimnetSend, || self.0.send_after(from, to, msg, delay));
    }

    fn now(&self) -> Time {
        self.0.now()
    }
}

/// The install publisher the traced run hands to the scheduler: each
/// call into the serve store is a span.
struct TracedPublisher(SharedInstallPublisher);

impl InstallPublisher for TracedPublisher {
    fn note_delivery(&mut self, view_index: usize, id: UpdateId, delivered_at: Time) {
        span(Span::ServeNoteDelivery, || {
            let mut store = self.0.lock().expect("snapshot store poisoned");
            store.note_delivery(view_index, id, delivered_at)
        });
    }

    fn publish(&mut self, event: InstallEvent) {
        count(
            Counter::PublishDeltaTuples,
            event.delta.distinct_len() as u64,
        );
        span(Span::ServePublish, || {
            let mut store = self.0.lock().expect("snapshot store poisoned");
            store.publish(event)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::tup;

    #[test]
    fn digest_adds_over_bag_union() {
        let a = Bag::from_pairs([(tup![1, 2], 2), (tup![3, 4], 1)]);
        let b = Bag::from_pairs([(tup![1, 2], -2), (tup![5, 6], 3)]);
        let mut union = a.clone();
        union.merge(&b);
        assert_eq!(
            bag_digest(union.iter()),
            bag_digest(a.iter()).wrapping_add(bag_digest(b.iter()))
        );
        assert_ne!(bag_digest(a.iter()), bag_digest(union.iter()));
    }
}
