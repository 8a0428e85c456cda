//! Referee for the sources' maintained join index: every answer a
//! `DataSource` gives — plain, σ-pushed or shard-scoped, on either join
//! side, after any stream of signed deltas — must equal the rehash
//! kernel, `extend_partial`, run over the correspondingly filtered
//! `relation().bag()`.
//!
//! Chains of 1–4 relations with 1- and 2-column join conditions and
//! random local selections; Int, Str, Float and NULL values from a small
//! domain (so keys collide and NULL keys meet NULL keys); deltas that
//! delete tuples to zero and re-insert them. Every failure names its
//! seed: `replay(<seed>)` reruns exactly that case.

use dwsweep::prelude::*;
use dwsweep::protocol::{Message, SweepQuery, WAREHOUSE_NODE};
use dwsweep::relational::{extend_partial, JoinSide, PartialDelta, Predicate, ShardScope};
use dwsweep::rng::Rng64;
use dwsweep::simnet::ENV;
use dwsweep::source::{DataSource, SourceError};

const CASES: u64 = 96;
const SEED_BASE: u64 = 0x1D_0000;

fn value(rng: &mut Rng64) -> Value {
    match rng.usize_below(10) {
        0 => Value::Null,
        1 | 2 => Value::str(["a", "b", "héllo"][rng.usize_below(3)]),
        3 => Value::float([0.5, -0.0, 2.25][rng.usize_below(3)]),
        _ => Value::Int(rng.i64_in(0, 4)),
    }
}

fn tuple(rng: &mut Rng64, arity: usize) -> Tuple {
    Tuple::new((0..arity).map(|_| value(rng)).collect())
}

fn cmp_op(rng: &mut Rng64) -> CmpOp {
    [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge][rng.usize_below(4)]
}

/// A random predicate over a relation of `arity` attributes.
fn predicate(rng: &mut Rng64, arity: usize, depth: usize) -> Predicate {
    match (depth, rng.usize_below(5)) {
        (0, _) | (_, 0..=1) => Predicate::Cmp {
            attr: rng.usize_below(arity),
            op: cmp_op(rng),
            value: value(rng),
        },
        (_, 2) => Predicate::AttrCmp {
            left: rng.usize_below(arity),
            op: cmp_op(rng),
            right: rng.usize_below(arity),
        },
        (_, 3) => Predicate::Or(vec![
            predicate(rng, arity, depth - 1),
            predicate(rng, arity, depth - 1),
        ]),
        _ => Predicate::Not(Box::new(predicate(rng, arity, depth - 1))),
    }
}

fn chain(rng: &mut Rng64, n: usize) -> ViewDef {
    let arities: Vec<usize> = (0..n).map(|_| 2 + rng.usize_below(2)).collect();
    let name = |i: usize, a: usize| format!("R{i}.A{a}");
    let mut b = ViewDefBuilder::new();
    for (i, &a) in arities.iter().enumerate() {
        let attrs: Vec<String> = (0..a).map(|k| format!("A{k}")).collect();
        b = b.relation(Schema::new(format!("R{i}"), attrs).unwrap());
    }
    for i in 0..n.saturating_sub(1) {
        // One or two key columns per join condition.
        let (l, r) = (arities[i], arities[i + 1]);
        let first = (rng.usize_below(l), rng.usize_below(r));
        b = b.join(name(i, first.0), name(i + 1, first.1));
        if rng.chance(0.4) {
            let second = ((first.0 + 1) % l, (first.1 + 1) % r);
            b = b.join(name(i, second.0), name(i + 1, second.1));
        }
    }
    for (i, &a) in arities.iter().enumerate() {
        if rng.chance(0.4) {
            let v = Value::Int(rng.i64_in(0, 3));
            b = b.select(name(i, rng.usize_below(a)), cmp_op(rng), v);
        }
    }
    b.build().unwrap()
}

/// A valid signed delta against `bag`: deletes (often to zero),
/// re-inserts of deleted tuples and fresh inserts.
fn delta(rng: &mut Rng64, bag: &Bag, graveyard: &mut Vec<Tuple>, arity: usize) -> Bag {
    let mut d = Bag::new();
    // Sorted, so a seed replays the same draws.
    for (t, c) in bag.to_sorted_vec() {
        if rng.chance(0.15) {
            let k = if rng.chance(0.6) {
                c
            } else {
                1 + rng.i64_in(0, c - 1)
            };
            d.add(t.clone(), -k);
            if k == c {
                graveyard.push(t.clone());
            }
        }
    }
    for _ in 0..rng.usize_below(3) {
        if let Some(t) = graveyard.pop() {
            if d.count(&t) == 0 {
                d.add(t, 1 + rng.i64_in(0, 2));
            }
        }
    }
    for _ in 0..rng.usize_below(5) {
        let t = tuple(rng, arity);
        d.add(t, 1 + rng.i64_in(0, 2));
    }
    d
}

/// How the query restricts the source's matches.
enum Filter {
    Plain,
    Pushed(Predicate),
    Scoped(ShardScope),
}

impl Filter {
    fn admits(&self, t: &Tuple) -> bool {
        match self {
            Filter::Plain => true,
            Filter::Pushed(p) => p.eval(t),
            // Spelled out rather than `ShardScope::admits`: impure tuples
            // plus the pure tuples of in-scope shards.
            Filter::Scoped(s) => s.map.shard_of_tuple(t).is_none_or(|k| s.mask >> k & 1 == 1),
        }
    }
}

fn filter(rng: &mut Rng64, arity: usize) -> Filter {
    match rng.usize_below(3) {
        0 => Filter::Plain,
        1 => Filter::Pushed(predicate(rng, arity, 2)),
        _ => {
            let shards = 1 + rng.usize_below(4);
            let map = if rng.chance(0.5) {
                ShardMap::hash(shards)
            } else {
                ShardMap::range(1 + rng.i64_in(0, 2), shards)
            };
            let mask = rng.next_u64() & map.full_mask();
            Filter::Scoped(ShardScope { map, mask })
        }
    }
}

/// A random partial delta that reaches source `i` from `side`.
fn partial(rng: &mut Rng64, v: &ViewDef, i: usize, side: JoinSide) -> PartialDelta {
    let n = v.num_relations();
    let (lo, hi) = match side {
        JoinSide::Right => (rng.usize_below(i), i - 1),
        JoinSide::Left => (i + 1, i + 1 + rng.usize_below(n - i - 1)),
    };
    let width = (lo..=hi).map(|k| v.schema(k).arity()).sum();
    let bag = Bag::from_pairs((0..1 + rng.usize_below(6)).map(|_| {
        let c = 1 + rng.i64_in(0, 2);
        (tuple(rng, width), if rng.chance(0.3) { -c } else { c })
    }));
    PartialDelta { lo, hi, bag }
}

/// Nested-loop join, sharing no code with the hash kernels: it checks
/// `extend_partial` itself, which builds the same index layout the
/// sources maintain.
fn nested_loop(v: &ViewDef, p: &PartialDelta, nbr: &Bag, side: JoinSide) -> Bag {
    let (rel, off, cond) = match side {
        JoinSide::Left => (p.lo - 1, 0, v.join_cond(p.lo - 1)),
        JoinSide::Right => {
            let width: usize = (p.lo..=p.hi).map(|k| v.schema(k).arity()).sum();
            (p.hi + 1, width - v.schema(p.hi).arity(), v.join_cond(p.hi))
        }
    };
    let mut out = Bag::new();
    for (nt, nc) in nbr.iter().filter(|(t, _)| v.local_select(rel).eval(t)) {
        for (pt, pc) in p.bag.iter() {
            let joins = cond.pairs.iter().all(|&(l, r)| match side {
                JoinSide::Left => nt.at(l) == pt.at(r),
                JoinSide::Right => pt.at(off + l) == nt.at(r),
            });
            if joins {
                let t = match side {
                    JoinSide::Left => nt.concat(pt),
                    JoinSide::Right => pt.concat(nt),
                };
                out.add(t, pc * nc);
            }
        }
    }
    out
}

fn send(src: &mut DataSource, msg: Message) -> Result<Option<Message>, SourceError> {
    let mut net: Network<Message> = Network::new(0);
    src.handle(WAREHOUSE_NODE, msg, &mut net)?;
    Ok(net.next().map(|d| d.msg))
}

fn replay(seed: u64) {
    let mut rng = Rng64::new(seed);
    let n = 1 + rng.usize_below(4);
    let v = chain(&mut rng, n);
    let mut sources: Vec<DataSource> = (0..n)
        .map(|i| {
            let arity = v.schema(i).arity();
            let tuples = (0..rng.usize_below(24)).map(|_| tuple(&mut rng, arity));
            let r = BaseRelation::from_tuples(v.schema(i).clone(), tuples).unwrap();
            DataSource::new(i, v.clone(), r)
        })
        .collect();
    let mut graveyards = vec![Vec::new(); n];
    let mut qid = 0;
    for step in 0..12 {
        let i = rng.usize_below(n);
        let arity = v.schema(i).arity();
        let d = delta(
            &mut rng,
            sources[i].relation().bag(),
            &mut graveyards[i],
            arity,
        );
        let txn = Message::ApplyTxn {
            rel: i,
            delta: d,
            global: None,
        };
        let mut net: Network<Message> = Network::new(0);
        sources[i].handle(ENV, txn, &mut net).unwrap();
        for side in [JoinSide::Left, JoinSide::Right] {
            let reachable = match side {
                JoinSide::Left => i + 1 < n,
                JoinSide::Right => i > 0,
            };
            if !reachable {
                continue;
            }
            let f = filter(&mut rng, arity);
            let p = partial(&mut rng, &v, i, side);
            let filtered = sources[i].relation().bag().filter(|t| f.admits(t));
            let want = extend_partial(&v, &p, &filtered, side).unwrap();
            assert_eq!(
                want.bag,
                nested_loop(&v, &p, &filtered, side),
                "seed {seed:#x} step {step}: the rehash kernel diverged from a nested loop"
            );
            let (scope, pred) = match f {
                Filter::Plain => (None, None),
                Filter::Pushed(p) => (None, Some(p)),
                Filter::Scoped(s) => (Some(s), None),
            };
            qid += 1;
            let q = SweepQuery {
                qid,
                partial: p,
                side,
                batch: 1,
                epoch: 0,
                scope,
                pred,
            };
            match send(&mut sources[i], Message::SweepQuery(q)) {
                Ok(Some(Message::SweepAnswer(a))) => assert_eq!(
                    a.partial, want,
                    "seed {seed:#x} step {step}: source {i} {side:?} answer diverged \
                     from the rehash referee (replay({seed:#x}))"
                ),
                other => panic!("seed {seed:#x} step {step}: unexpected {other:?}"),
            }
        }
    }
    // A query whose neighbor is another relation is refused by every
    // source, the single-relation chain's included.
    for (i, src) in sources.iter_mut().enumerate() {
        let p = PartialDelta {
            lo: i,
            hi: i,
            bag: Bag::new(),
        };
        let q = SweepQuery {
            qid: 0,
            partial: p,
            side: JoinSide::Right,
            batch: 1,
            epoch: 0,
            scope: None,
            pred: None,
        };
        assert!(
            send(src, Message::SweepQuery(q)).is_err(),
            "seed {seed:#x}: source {i} answered a query meant for its right neighbor"
        );
    }
}

#[test]
fn source_answers_equal_the_rehash_referee() {
    for case in 0..CASES {
        replay(SEED_BASE + case);
    }
}

/// A source with a local selection indexes only the tuples that pass it,
/// so its answers drop the rest exactly as the rehash kernel does.
#[test]
fn indexed_source_honours_its_local_selection() {
    let v = ViewDefBuilder::new()
        .relation(Schema::new("R1", ["A", "B"]).unwrap())
        .relation(Schema::new("R2", ["C", "D"]).unwrap())
        .join("R1.B", "R2.C")
        .select("R1.A", CmpOp::Gt, 0)
        .build()
        .unwrap();
    let rel = BaseRelation::from_tuples(
        Schema::new("R1", ["A", "B"]).unwrap(),
        [tup![0, 3], tup![1, 3], tup![2, 4]],
    )
    .unwrap();
    let mut src = DataSource::new(0, v.clone(), rel);
    let p = PartialDelta {
        lo: 1,
        hi: 1,
        bag: Bag::from_tuples([tup![3, 9], tup![4, 9]]),
    };
    let want = extend_partial(&v, &p, src.relation().bag(), JoinSide::Left).unwrap();
    assert_eq!(
        want.bag,
        Bag::from_tuples([tup![1, 3, 3, 9], tup![2, 4, 4, 9]])
    );
    let q = SweepQuery {
        qid: 1,
        partial: p,
        side: JoinSide::Left,
        batch: 1,
        epoch: 0,
        scope: None,
        pred: None,
    };
    match send(&mut src, Message::SweepQuery(q)).unwrap() {
        Some(Message::SweepAnswer(a)) => assert_eq!(a.partial, want),
        other => panic!("unexpected {other:?}"),
    }
}

/// Whole runs over indexed sources: SWEEP reaches complete consistency
/// and the same final view as the recompute baseline, whose sources
/// ship their full relations instead of probing an index.
#[test]
fn indexed_sources_behave_identically() {
    let scenario = || {
        StreamConfig {
            updates: 25,
            seed: 33,
            n_sources: 3,
            initial_per_source: 20,
            domain: 8,
            mean_gap: 500,
            ..Default::default()
        }
        .generate()
        .unwrap()
    };
    let sweep = Experiment::new(scenario()).run().unwrap();
    let recompute = Experiment::new(scenario())
        .policy(PolicyKind::Recompute)
        .run()
        .unwrap();
    assert_eq!(sweep.view, recompute.view);
    assert_eq!(sweep.consistency.unwrap().level, ConsistencyLevel::Complete);
}
