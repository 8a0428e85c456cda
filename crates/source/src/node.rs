//! The per-source update & query server (paper Figure 3).

use dw_obs::Obs;
use dw_protocol::{source_node, Message, SourceIndex, SourceUpdate, UpdateId, WAREHOUSE_NODE};
use dw_relational::{BaseRelation, JoinIndex, RelationalError, ViewDef};
use dw_simnet::{NetHandle, NodeId};
use std::fmt;

/// Errors a data source can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// Underlying relational failure (bad transaction, arity mismatch…).
    Relational(RelationalError),
    /// A message arrived that this node cannot service.
    UnexpectedMessage {
        /// Which source.
        source: SourceIndex,
        /// Label of the offending message.
        label: &'static str,
    },
    /// A transaction was routed to the wrong source.
    WrongRelation {
        /// This source's chain position.
        source: SourceIndex,
        /// The relation the transaction targeted.
        target: SourceIndex,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Relational(e) => write!(f, "relational error at source: {e}"),
            SourceError::UnexpectedMessage { source, label } => {
                write!(f, "source {source} cannot service message {label:?}")
            }
            SourceError::WrongRelation { source, target } => {
                write!(
                    f,
                    "transaction for relation {target} routed to source {source}"
                )
            }
        }
    }
}

impl std::error::Error for SourceError {}

impl From<RelationalError> for SourceError {
    fn from(e: RelationalError) -> Self {
        SourceError::Relational(e)
    }
}

/// One autonomous data source holding base relation `R_i`.
///
/// The two processes of the paper's Figure 3 (`SendUpdates`,
/// `ProcessQuery`) collapse into one event handler because the simulator
/// already serializes the node's events — which is exactly the paper's
/// sequential-service assumption.
pub struct DataSource {
    index: SourceIndex,
    view: ViewDef,
    relation: BaseRelation,
    next_seq: u64,
    txns_applied: u64,
    /// The relation's join index — the tuples passing its local
    /// selection, hashed on each join side — maintained under every
    /// transaction. Every sweep query probes it.
    join_index: JoinIndex,
    /// Highest sweep epoch seen on any query. A warehouse state-crash
    /// recovery bumps the epoch of every query it issues; a query from
    /// an *older* epoch belongs to a sweep the warehouse already
    /// aborted, so answering it would only feed the recovered scheduler
    /// an orphan. Dropping it here makes re-issued queries idempotent
    /// end to end. Epoch 0 queries (the pre-recovery protocol) are never
    /// dropped.
    max_epoch_seen: u64,
    /// Stale-epoch queries dropped (test/inspection hook; also counted
    /// on `source.stale_epoch_dropped`).
    stale_queries_dropped: u64,
    /// Observability handle (no-op unless a recorder is attached).
    obs: Obs,
}

impl DataSource {
    /// Create source `index` with its initial relation contents, and
    /// build the relation's join index.
    pub fn new(index: SourceIndex, view: ViewDef, relation: BaseRelation) -> Self {
        DataSource {
            join_index: JoinIndex::new(&view, index, relation.bag()),
            index,
            view,
            relation,
            next_seq: 0,
            txns_applied: 0,
            max_epoch_seen: 0,
            stale_queries_dropped: 0,
            obs: Obs::off(),
        }
    }

    /// Attach an observability recorder: per-query join probe and output
    /// sizes are recorded when answering sweep queries. `Obs::off()`
    /// detaches.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Chain position of this source.
    pub fn index(&self) -> SourceIndex {
        self.index
    }

    /// Current relation contents (test/inspection hook).
    pub fn relation(&self) -> &BaseRelation {
        &self.relation
    }

    /// Number of transactions applied so far.
    pub fn txns_applied(&self) -> u64 {
        self.txns_applied
    }

    /// Queries dropped because they carried a stale sweep epoch.
    pub fn stale_queries_dropped(&self) -> u64 {
        self.stale_queries_dropped
    }

    /// Service one delivered event.
    ///
    /// * `ApplyTxn` — execute the transaction atomically against `R_i` and
    ///   forward the delta to the warehouse (process `SendUpdates`).
    /// * `SweepQuery` — `ΔV ← ComputeJoin(ΔV, R_i)`, reply to the
    ///   warehouse (process `ProcessQuery`).
    /// * `DumpQuery` — ship the current contents (recompute baseline).
    pub fn handle(
        &mut self,
        _from: NodeId,
        msg: Message,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), SourceError> {
        match msg {
            Message::ApplyTxn { rel, delta, global } => {
                if rel != self.index {
                    return Err(SourceError::WrongRelation {
                        source: self.index,
                        target: rel,
                    });
                }
                self.relation.apply_delta(&delta)?;
                self.join_index.apply_delta(&delta);
                self.txns_applied += 1;
                let id = UpdateId {
                    source: self.index,
                    seq: self.next_seq,
                };
                self.next_seq += 1;
                net.send(
                    source_node(self.index),
                    WAREHOUSE_NODE,
                    Message::Update(SourceUpdate { id, delta, global }),
                );
                Ok(())
            }
            Message::SweepQuery(q) => {
                if q.epoch < self.max_epoch_seen {
                    // A sweep the warehouse aborted in a crash: its
                    // recovery already re-seeded the work under a newer
                    // epoch, so this straggler must not produce an
                    // answer. Dropping is safe — nothing at the
                    // warehouse is waiting on the stale qid.
                    self.stale_queries_dropped += 1;
                    self.obs.add("source.stale_epoch_dropped", 1);
                    return Ok(());
                }
                self.max_epoch_seen = q.epoch;
                // Probe the index, then drop the matches a shard scope
                // (impure tuples always stay) or a pushed-down σ rules out,
                // so only qualifying tuples travel back.
                let (mut scope_dropped, mut pred_dropped) = (0u64, 0u64);
                let keep = |nt: &dw_relational::Tuple| {
                    if !q.scope.as_ref().is_none_or(|sc| sc.admits(nt)) {
                        scope_dropped += 1;
                        false
                    } else if !q.pred.as_ref().is_none_or(|p| p.eval(nt)) {
                        pred_dropped += 1;
                        false
                    } else {
                        true
                    }
                };
                let widened = self
                    .join_index
                    .extend(&self.view, &q.partial, q.side, keep, &self.obs)?;
                if q.scope.is_some() {
                    self.obs.add("source.scope_filtered", scope_dropped);
                    self.obs.add("source.scoped_queries", 1);
                }
                if q.pred.is_some() {
                    self.obs.add("source.pushdown_filtered", pred_dropped);
                }
                self.obs.add("source.queries_served", 1);
                self.obs
                    .observe("source.answer_rows", widened.bag.distinct_len() as u64);
                net.send(
                    source_node(self.index),
                    WAREHOUSE_NODE,
                    Message::SweepAnswer(dw_protocol::SweepAnswer {
                        qid: q.qid,
                        partial: widened,
                    }),
                );
                Ok(())
            }
            Message::DumpQuery { qid } => {
                net.send(
                    source_node(self.index),
                    WAREHOUSE_NODE,
                    Message::DumpAnswer {
                        qid,
                        relation: self.relation.bag().clone(),
                    },
                );
                Ok(())
            }
            other => Err(SourceError::UnexpectedMessage {
                source: self.index,
                label: dw_simnet::Payload::label(&other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_protocol::SweepQuery;
    use dw_relational::{tup, Bag, JoinSide, PartialDelta, Schema, ViewDefBuilder};
    use dw_simnet::{Network, ENV};

    fn view() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .build()
            .unwrap()
    }

    fn source1() -> DataSource {
        let rel = BaseRelation::from_tuples(
            Schema::new("R2", ["C", "D"]).unwrap(),
            [tup![3, 7], tup![4, 8]],
        )
        .unwrap();
        DataSource::new(1, view(), rel)
    }

    #[test]
    fn txn_applies_and_forwards_update() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        let delta = Bag::from_pairs([(tup![9, 9], 1)]);
        src.handle(
            ENV,
            Message::ApplyTxn {
                rel: 1,
                delta: delta.clone(),
                global: None,
            },
            &mut net,
        )
        .unwrap();
        assert_eq!(src.relation().bag().count(&tup![9, 9]), 1);
        assert_eq!(src.txns_applied(), 1);
        let d = net.next().unwrap();
        assert_eq!(d.to, WAREHOUSE_NODE);
        match d.msg {
            Message::Update(u) => {
                assert_eq!(u.id, UpdateId { source: 1, seq: 0 });
                assert_eq!(u.delta, delta);
            }
            other => panic!("expected Update, got {other:?}"),
        }
    }

    #[test]
    fn seq_numbers_increment() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        for i in 0..3i64 {
            src.handle(
                ENV,
                Message::ApplyTxn {
                    rel: 1,
                    delta: Bag::from_pairs([(tup![100 + i, 0], 1)]),
                    global: None,
                },
                &mut net,
            )
            .unwrap();
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| net.next())
            .filter_map(|d| match d.msg {
                Message::Update(u) => Some(u.id.seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn invalid_txn_rejected_and_not_forwarded() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        let res = src.handle(
            ENV,
            Message::ApplyTxn {
                rel: 1,
                delta: Bag::from_pairs([(tup![1, 1], -1)]), // absent tuple
                global: None,
            },
            &mut net,
        );
        assert!(matches!(res, Err(SourceError::Relational(_))));
        assert!(net.next().is_none());
    }

    #[test]
    fn wrong_relation_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        let res = src.handle(
            ENV,
            Message::ApplyTxn {
                rel: 0,
                delta: Bag::new(),
                global: None,
            },
            &mut net,
        );
        assert!(matches!(res, Err(SourceError::WrongRelation { .. })));
    }

    #[test]
    fn sweep_query_computes_join_and_replies() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        // ΔV over R1 = {+(1,3)}; extend right into R2.
        let q = SweepQuery {
            qid: 42,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::from_tuples([tup![1, 3]]),
            },
            side: JoinSide::Right,
            batch: 1,
            epoch: 0,
            scope: None,
            pred: None,
        };
        src.handle(WAREHOUSE_NODE, Message::SweepQuery(q), &mut net)
            .unwrap();
        let d = net.next().unwrap();
        match d.msg {
            Message::SweepAnswer(a) => {
                assert_eq!(a.qid, 42);
                assert_eq!(a.partial.bag, Bag::from_tuples([tup![1, 3, 3, 7]]));
                assert_eq!((a.partial.lo, a.partial.hi), (0, 1));
            }
            other => panic!("expected SweepAnswer, got {other:?}"),
        }
    }

    #[test]
    fn scoped_query_joins_only_in_scope_slices() {
        use dw_relational::{ShardMap, ShardScope};
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1(); // R2 = {(3,7), (4,8)}
        let (obs, rec) = dw_obs::Obs::trace();
        src.set_observer(obs);
        // Range map with width 4: (3,7) straddles shards 0/1 (impure),
        // (4,8) is pure in shard 1. Scoping to shard 0 keeps the impure
        // match of (1,3) and drops (2,4)'s pure shard-1 match.
        let scope = ShardScope {
            map: ShardMap::range(4, 2),
            mask: 0b01,
        };
        let q = SweepQuery {
            qid: 45,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::from_tuples([tup![1, 3], tup![2, 4]]),
            },
            side: JoinSide::Right,
            batch: 1,
            epoch: 0,
            scope: Some(scope.clone()),
            pred: None,
        };
        src.handle(WAREHOUSE_NODE, Message::SweepQuery(q.clone()), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::SweepAnswer(a) => {
                assert_eq!(a.partial.bag, Bag::from_tuples([tup![1, 3, 3, 7]]));
            }
            other => panic!("expected SweepAnswer, got {other:?}"),
        }
        {
            let rec = rec.lock().unwrap();
            assert_eq!(rec.counter("source.scoped_queries"), 1);
            assert_eq!(rec.counter("source.scope_filtered"), 1);
        }
        // The index is maintained under later txns: a new pure shard-0
        // tuple (3,2) must show up in shard 0's scope.
        src.handle(
            ENV,
            Message::ApplyTxn {
                rel: 1,
                delta: Bag::from_pairs([(tup![3, 2], 1)]),
                global: None,
            },
            &mut net,
        )
        .unwrap();
        let _update = net.next().unwrap();
        src.handle(WAREHOUSE_NODE, Message::SweepQuery(q), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::SweepAnswer(a) => {
                assert_eq!(
                    a.partial.bag,
                    Bag::from_tuples([tup![1, 3, 3, 7], tup![1, 3, 3, 2]])
                );
            }
            other => panic!("expected SweepAnswer, got {other:?}"),
        }
    }

    #[test]
    fn pushed_predicate_filters_the_join_and_counts_drops() {
        use dw_relational::{CmpOp, Predicate, Value};
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1(); // R2 = {(3,7), (4,8)}
        let (obs, rec) = dw_obs::Obs::trace();
        src.set_observer(obs);
        // Same partial as the unfiltered test, but σ_{D >= 8} drops the
        // only join partner (3,7) — the answer must come back empty.
        let q = SweepQuery {
            qid: 43,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::from_tuples([tup![1, 3]]),
            },
            side: JoinSide::Right,
            batch: 1,
            epoch: 0,
            scope: None,
            pred: Some(Predicate::Cmp {
                attr: 1,
                op: CmpOp::Ge,
                value: Value::Int(8),
            }),
        };
        src.handle(WAREHOUSE_NODE, Message::SweepQuery(q), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::SweepAnswer(a) => {
                assert_eq!(a.qid, 43);
                assert!(a.partial.bag.is_empty());
                assert_eq!((a.partial.lo, a.partial.hi), (0, 1));
            }
            other => panic!("expected SweepAnswer, got {other:?}"),
        }
        let rec = rec.lock().unwrap();
        assert_eq!(rec.counter("source.pushdown_filtered"), 1);
        assert_eq!(rec.counter("source.queries_served"), 1);
    }

    #[test]
    fn pushed_true_equivalent_when_all_tuples_qualify() {
        use dw_relational::{CmpOp, Predicate, Value};
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        let q = SweepQuery {
            qid: 44,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::from_tuples([tup![1, 3]]),
            },
            side: JoinSide::Right,
            batch: 1,
            epoch: 0,
            scope: None,
            pred: Some(Predicate::Cmp {
                attr: 1,
                op: CmpOp::Ge,
                value: Value::Int(0),
            }),
        };
        src.handle(WAREHOUSE_NODE, Message::SweepQuery(q), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::SweepAnswer(a) => {
                assert_eq!(a.partial.bag, Bag::from_tuples([tup![1, 3, 3, 7]]));
            }
            other => panic!("expected SweepAnswer, got {other:?}"),
        }
    }

    #[test]
    fn dump_query_ships_contents() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        src.handle(WAREHOUSE_NODE, Message::DumpQuery { qid: 7 }, &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::DumpAnswer { qid, relation } => {
                assert_eq!(qid, 7);
                assert_eq!(relation, src.relation().bag().clone());
            }
            other => panic!("expected DumpAnswer, got {other:?}"),
        }
    }

    #[test]
    fn unexpected_message_is_an_error() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        let res = src.handle(
            WAREHOUSE_NODE,
            Message::DumpAnswer {
                qid: 0,
                relation: Bag::new(),
            },
            &mut net,
        );
        assert!(matches!(res, Err(SourceError::UnexpectedMessage { .. })));
    }
}

#[cfg(test)]
mod indexed_tests {
    use super::*;
    use dw_protocol::SweepQuery;
    use dw_relational::{extend_partial, tup, Bag, JoinSide, PartialDelta, Schema, ViewDefBuilder};
    use dw_simnet::{Network, ENV};

    fn view3() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .build()
            .unwrap()
    }

    fn mid_source() -> DataSource {
        let rel = BaseRelation::from_tuples(
            Schema::new("R2", ["C", "D"]).unwrap(),
            [tup![3, 5], tup![3, 7], tup![4, 5]],
        )
        .unwrap();
        DataSource::new(1, view3(), rel)
    }

    fn query(qid: u64, lo: usize, bag: Bag, side: JoinSide) -> SweepQuery {
        SweepQuery {
            qid,
            partial: PartialDelta { lo, hi: lo, bag },
            side,
            batch: 1,
            epoch: 0,
            scope: None,
            pred: None,
        }
    }

    fn answer_of(src: &mut DataSource, q: SweepQuery) -> PartialDelta {
        let mut net: Network<Message> = Network::new(0);
        src.handle(WAREHOUSE_NODE, Message::SweepQuery(q), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::SweepAnswer(a) => a.partial,
            other => panic!("{other:?}"),
        }
    }

    /// The rehash kernel over the source's current relation.
    fn rehashed(src: &DataSource, q: &SweepQuery) -> PartialDelta {
        extend_partial(&view3(), &q.partial, src.relation().bag(), q.side).unwrap()
    }

    #[test]
    fn indexed_answers_match_plain_both_sides() {
        let mut src = mid_source();
        // Rightward into R2 (R2 is right neighbor of R1).
        let q_right = query(
            1,
            0,
            Bag::from_tuples([tup![1, 3], tup![9, 4]]),
            JoinSide::Right,
        );
        assert_eq!(rehashed(&src, &q_right), answer_of(&mut src, q_right));
        // Leftward into R2 (R2 is left neighbor of R3).
        let q_left = query(2, 2, Bag::from_tuples([tup![5, 6]]), JoinSide::Left);
        assert_eq!(rehashed(&src, &q_left), answer_of(&mut src, q_left));
    }

    #[test]
    fn indexes_track_transactions() {
        let mut src = mid_source();
        let delta = Bag::from_pairs([(tup![3, 5], -1), (tup![8, 5], 1)]);
        let mut net: Network<Message> = Network::new(0);
        src.handle(
            ENV,
            Message::ApplyTxn {
                rel: 1,
                delta,
                global: None,
            },
            &mut net,
        )
        .unwrap();
        let q = query(
            3,
            0,
            Bag::from_tuples([tup![1, 3], tup![2, 8]]),
            JoinSide::Right,
        );
        assert_eq!(rehashed(&src, &q), answer_of(&mut src, q));
    }

    #[test]
    fn end_sources_have_one_index() {
        let rel = BaseRelation::from_tuples(Schema::new("R1", ["A", "B"]).unwrap(), [tup![1, 3]])
            .unwrap();
        let mut src = DataSource::new(0, view3(), rel);
        // Leftmost: serves leftward extension (as left neighbor) only.
        let q = query(4, 1, Bag::from_tuples([tup![3, 5]]), JoinSide::Left);
        assert_eq!(rehashed(&src, &q), answer_of(&mut src, q));
        // A query whose neighbor is another relation is refused, not
        // answered against this one.
        let stray = query(5, 0, Bag::from_tuples([tup![1, 3]]), JoinSide::Right);
        let mut net: Network<Message> = Network::new(0);
        let res = src.handle(WAREHOUSE_NODE, Message::SweepQuery(stray), &mut net);
        assert!(matches!(res, Err(SourceError::Relational(_))));
        assert!(net.next().is_none());
    }
}
