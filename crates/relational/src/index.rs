//! Join indexes: the hash tables behind every `ComputeJoin`.
//!
//! A data source answers a stream of `ComputeJoin(ΔV, R)` requests against
//! the *same* base relation, so it keeps a [`JoinIndex`] of `R` maintained
//! as transactions apply: query service costs `O(|ΔV| + |matches|)`
//! instead of `O(|R|)`. [`crate::eval::extend_partial`] builds a transient
//! index of the same layout over whatever bag it is handed, and both run
//! the one probe loop, [`JoinIndex::extend`].
//!
//! Layout: one arena of `(tuple, count, next link per join side)` entries
//! and, per join side, a power-of-two array of chain heads. Key columns
//! are hashed in place with [`Value::stable_hash`] (no key is
//! materialized) and compared in full on every chain step, so NULL keys
//! join NULL keys exactly as value equality says. Deletes swap-remove.
//!
//! [`Value::stable_hash`]: crate::value::Value

use crate::bag::Bag;
use crate::error::RelationalError;
use crate::eval::{JoinSide, PartialDelta};
use crate::predicate::Predicate;
use crate::tuple::Tuple;
use crate::value::mix;
use crate::view::ViewDef;

const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Entry {
    tuple: Tuple,
    count: i64,
    /// Next entry in this entry's chain, per side (`Left`, `Right`).
    next: [u32; 2],
}

/// One side's hash chains: the indexed relation's key positions and the
/// chain heads.
#[derive(Clone, Debug)]
struct Chains {
    keys: Vec<usize>,
    heads: Vec<u32>,
}

fn slot(side: JoinSide) -> usize {
    match side {
        JoinSide::Left => 0,
        JoinSide::Right => 1,
    }
}

fn bucket(heads: &[u32], t: &Tuple, at: &[usize]) -> usize {
    let h = at
        .iter()
        .fold(0x51_7CC1_B727_220A, |h, &k| mix(h, t.at(k).stable_hash()));
    h as usize & (heads.len() - 1)
}

/// Key positions of relation `rel`'s side of the join condition through
/// which a partial reaches it from `side`; `None` when no relation lies
/// on that side of `rel`.
fn side_keys(view: &ViewDef, rel: usize, side: JoinSide) -> Option<Vec<usize>> {
    match side {
        JoinSide::Left => (rel + 1 < view.num_relations())
            .then(|| view.join_cond(rel).pairs.iter().map(|&(l, _)| l).collect()),
        JoinSide::Right => (rel > 0).then(|| {
            view.join_cond(rel - 1)
                .pairs
                .iter()
                .map(|&(_, r)| r)
                .collect()
        }),
    }
}

/// The chain position a partial delta's `side` neighbor occupies.
fn neighbor_of(
    view: &ViewDef,
    partial: &PartialDelta,
    side: JoinSide,
) -> Result<usize, RelationalError> {
    let nbr = match side {
        JoinSide::Left => partial.lo.checked_sub(1),
        JoinSide::Right => Some(partial.hi + 1).filter(|&n| n < view.num_relations()),
    };
    nbr.ok_or_else(|| RelationalError::BadRange {
        reason: format!(
            "no relation to the {} of the range",
            if side == JoinSide::Left {
                "left"
            } else {
                "right"
            }
        ),
    })
}

/// A hash index of chain relation `rel` on its join keys — one chain set
/// per join side — holding the tuples that pass `rel`'s local selection,
/// with their counts.
#[derive(Clone, Debug)]
pub struct JoinIndex {
    rel: usize,
    select: Predicate,
    entries: Vec<Entry>,
    sides: [Option<Chains>; 2],
}

impl JoinIndex {
    fn empty(view: &ViewDef, rel: usize, sides: [Option<Vec<usize>>; 2], rows: usize) -> Self {
        let heads = vec![NIL; rows.next_power_of_two()];
        JoinIndex {
            rel,
            select: view.local_select(rel).clone(),
            entries: Vec::with_capacity(rows),
            sides: sides.map(|k| {
                k.map(|keys| Chains {
                    keys,
                    heads: heads.clone(),
                })
            }),
        }
    }

    /// The maintained index of chain relation `rel` of `view`, over the
    /// contents `bag`, on every join side `rel` has. A relation with no
    /// neighbor is never probed, so its index holds nothing.
    pub fn new(view: &ViewDef, rel: usize, bag: &Bag) -> Self {
        let sides = [JoinSide::Left, JoinSide::Right].map(|s| side_keys(view, rel, s));
        let mut ix = JoinIndex::empty(view, rel, sides, bag.distinct_len());
        ix.apply_delta(bag);
        ix
    }

    /// A transient one-sided index of `neighbor` — the relation a partial
    /// delta reaches on `side` — checking every tuple's arity.
    pub fn build(
        view: &ViewDef,
        partial: &PartialDelta,
        side: JoinSide,
        neighbor: &Bag,
    ) -> Result<Self, RelationalError> {
        let rel = neighbor_of(view, partial, side)?;
        let arity = view.schema(rel).arity();
        let mut sides = [None, None];
        sides[slot(side)] = side_keys(view, rel, side);
        let mut ix = JoinIndex::empty(view, rel, sides, neighbor.distinct_len());
        for (t, c) in neighbor.iter() {
            if t.arity() != arity {
                return Err(RelationalError::ArityMismatch {
                    context: "extend_partial neighbor",
                    expected: arity,
                    found: t.arity(),
                });
            }
            // Bag tuples are distinct: append without a lookup.
            if ix.select.eval(t) {
                ix.push(t.clone(), c);
            }
        }
        Ok(ix)
    }

    /// Number of distinct indexed tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fold a signed delta into the index. Tuples failing the local
    /// selection are skipped; tuples reaching count zero are evicted.
    pub fn apply_delta(&mut self, delta: &Bag) {
        let Some(s) = self.sides.iter().position(Option::is_some) else {
            return;
        };
        for (t, c) in delta.iter() {
            if !self.select.eval(t) {
                continue;
            }
            let ch = self.sides[s].as_ref().expect("position found it");
            let mut i = ch.heads[bucket(&ch.heads, t, &ch.keys)];
            while i != NIL && self.entries[i as usize].tuple != *t {
                i = self.entries[i as usize].next[s];
            }
            if i == NIL {
                self.push(t.clone(), c);
                continue;
            }
            let e = &mut self.entries[i as usize];
            e.count += c;
            if e.count == 0 {
                self.remove(i);
            }
        }
    }

    fn push(&mut self, tuple: Tuple, count: i64) {
        let i = self.entries.len() as u32;
        self.entries.push(Entry {
            tuple,
            count,
            next: [NIL; 2],
        });
        let cap = self
            .sides
            .iter()
            .flatten()
            .next()
            .map_or(usize::MAX, |c| c.heads.len());
        if self.entries.len() > cap {
            self.relink(cap * 2);
            return;
        }
        let JoinIndex { entries, sides, .. } = self;
        for (s, ch) in sides.iter_mut().enumerate() {
            if let Some(ch) = ch {
                let b = bucket(&ch.heads, &entries[i as usize].tuple, &ch.keys);
                entries[i as usize].next[s] = std::mem::replace(&mut ch.heads[b], i);
            }
        }
    }

    /// Rebuild every side's chains over `cap` heads.
    fn relink(&mut self, cap: usize) {
        let JoinIndex { entries, sides, .. } = self;
        for (s, ch) in sides.iter_mut().enumerate() {
            if let Some(ch) = ch {
                ch.heads = vec![NIL; cap];
                for (i, e) in entries.iter_mut().enumerate() {
                    let b = bucket(&ch.heads, &e.tuple, &ch.keys);
                    e.next[s] = std::mem::replace(&mut ch.heads[b], i as u32);
                }
            }
        }
    }

    /// Point the link that currently reaches `target` (a chain head or a
    /// predecessor's next) at `with` instead, on every side.
    fn redirect(&mut self, target: u32, with: impl Fn(&Entry, usize) -> u32) {
        let JoinIndex { entries, sides, .. } = self;
        for (s, ch) in sides.iter_mut().enumerate() {
            if let Some(ch) = ch {
                let new = with(&entries[target as usize], s);
                let b = bucket(&ch.heads, &entries[target as usize].tuple, &ch.keys);
                let mut link = &mut ch.heads[b];
                while *link != target {
                    let n = *link as usize;
                    link = &mut entries[n].next[s];
                }
                *link = new;
            }
        }
    }

    /// Unlink entry `i`, then swap-remove it, re-pointing the links that
    /// reached the moved last entry.
    fn remove(&mut self, i: u32) {
        self.redirect(i, |e, s| e.next[s]);
        let last = (self.entries.len() - 1) as u32;
        if i != last {
            self.redirect(last, |_, _| i);
        }
        self.entries.swap_remove(i as usize);
    }

    /// Indexed tuples joining `pt` through `side`, as `(tuple, count)`:
    /// those whose key columns equal `pt`'s values at positions `at`.
    /// Allocation-free; empty when this index has no chains for `side`.
    pub fn probe<'a>(
        &'a self,
        side: JoinSide,
        pt: &'a Tuple,
        at: &'a [usize],
    ) -> impl Iterator<Item = (&'a Tuple, i64)> + 'a {
        let s = slot(side);
        let ch = self.sides[s].as_ref();
        let mut i = ch.map_or(NIL, |ch| ch.heads[bucket(&ch.heads, pt, at)]);
        std::iter::from_fn(move || {
            let keys = &ch?.keys;
            while i != NIL {
                let e = &self.entries[i as usize];
                i = e.next[s];
                if keys
                    .iter()
                    .zip(at)
                    .all(|(&k, &p)| e.tuple.at(k) == pt.at(p))
                {
                    return Some((&e.tuple, e.count));
                }
            }
            None
        })
    }

    /// `ComputeJoin(ΔV, R)`: join `partial` with the indexed relation on
    /// `side`, keeping only matches for which `keep` holds (a pushed σ or
    /// a shard scope), and record `join.probe_rows` / `join.out_rows`
    /// behind `obs`. Counts multiply with sign.
    pub fn extend(
        &self,
        view: &ViewDef,
        partial: &PartialDelta,
        side: JoinSide,
        mut keep: impl FnMut(&Tuple) -> bool,
        obs: &dw_obs::Obs,
    ) -> Result<PartialDelta, RelationalError> {
        let nbr = neighbor_of(view, partial, side)?;
        if nbr != self.rel || self.sides[slot(side)].is_none() {
            return Err(RelationalError::BadRange {
                reason: format!(
                    "the index of relation {} cannot serve a {side:?} join with relation {nbr}",
                    self.rel
                ),
            });
        }
        // Positions of the join attributes inside the composite partial:
        // a left neighbor meets R_lo at offset 0, a right one meets R_hi
        // at the partial's last relation offset.
        let at: Vec<usize> = match side {
            JoinSide::Left => view.join_cond(nbr).pairs.iter().map(|&(_, r)| r).collect(),
            JoinSide::Right => {
                let off = partial.width(view) - view.schema(partial.hi).arity();
                let pairs = &view.join_cond(partial.hi).pairs;
                pairs.iter().map(|&(l, _)| off + l).collect()
            }
        };
        let mut out = Bag::new();
        for (pt, pc) in partial.bag.iter() {
            for (nt, nc) in self.probe(side, pt, &at) {
                if keep(nt) {
                    let joined = match side {
                        JoinSide::Left => nt.concat(pt),
                        JoinSide::Right => pt.concat(nt),
                    };
                    out.add(joined, pc * nc);
                }
            }
        }
        if obs.enabled() {
            obs.observe("join.probe_rows", partial.bag.distinct_len() as u64);
            obs.observe("join.out_rows", out.distinct_len() as u64);
        }
        let (lo, hi) = match side {
            JoinSide::Left => (nbr, partial.hi),
            JoinSide::Right => (partial.lo, nbr),
        };
        Ok(PartialDelta { lo, hi, bag: out })
    }

    /// Reconstruct the indexed bag (test/verification hook).
    pub fn to_bag(&self) -> Bag {
        Bag::from_pairs(self.entries.iter().map(|e| (e.tuple.clone(), e.count)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::extend_partial;
    use crate::schema::Schema;
    use crate::tup;
    use crate::value::Value;
    use crate::view::ViewDefBuilder;
    use dw_obs::Obs;

    fn view() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .build()
            .unwrap()
    }

    fn fast(v: &ViewDef, pd: &PartialDelta, ix: &JoinIndex, side: JoinSide) -> PartialDelta {
        ix.extend(v, pd, side, |_| true, &Obs::off()).unwrap()
    }

    #[test]
    fn index_tracks_deltas() {
        let mut idx = JoinIndex::new(&view(), 1, &Bag::new()); // R2 on C
        idx.apply_delta(&Bag::from_pairs([(tup![3, 7], 1), (tup![3, 9], 2)]));
        assert_eq!(idx.len(), 2);
        let probe = tup![0, 3];
        assert_eq!(idx.probe(JoinSide::Right, &probe, &[1]).count(), 2);
        idx.apply_delta(&Bag::from_pairs([(tup![3, 7], -1)]));
        assert_eq!(idx.len(), 1);
        assert!(idx
            .probe(JoinSide::Right, &tup![0, 4], &[1])
            .next()
            .is_none());
        idx.apply_delta(&Bag::from_pairs([(tup![3, 9], -2)]));
        assert!(idx.is_empty());
        assert!(idx.to_bag().is_empty());
    }

    #[test]
    fn indexed_extension_matches_unindexed() {
        let v = view();
        let r2 = Bag::from_pairs([(tup![3, 7], 1), (tup![3, 9], 1), (tup![5, 1], 2)]);
        let idx = JoinIndex::new(&v, 1, &r2);
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1, 3], tup![2, 5]])).unwrap();
        let plain = extend_partial(&v, &pd, &r2, JoinSide::Right).unwrap();
        assert_eq!(plain, fast(&v, &pd, &idx, JoinSide::Right));
    }

    #[test]
    fn indexed_extension_after_updates_matches() {
        let v = view();
        let mut r2 = Bag::from_pairs([(tup![3, 7], 1)]);
        let mut idx = JoinIndex::new(&v, 1, &r2);
        // Apply a stream of deltas to both representations; enough
        // inserts to grow the head arrays, deletes to swap-remove.
        let mut deltas = vec![
            Bag::from_pairs([(tup![3, 8], 1)]),
            Bag::from_pairs([(tup![3, 7], -1), (tup![5, 5], 1)]),
        ];
        deltas.push(Bag::from_tuples((0..40).map(|k| tup![k % 6, k])));
        deltas.push(Bag::from_pairs(
            (0..40).step_by(3).map(|k| (tup![k % 6, k], -1)),
        ));
        for d in deltas {
            r2.merge(&d);
            idx.apply_delta(&d);
            assert_eq!(idx.to_bag(), r2);
        }
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples((0..7).map(|k| tup![9, k]))).unwrap();
        let plain = extend_partial(&v, &pd, &r2, JoinSide::Right).unwrap();
        assert_eq!(plain, fast(&v, &pd, &idx, JoinSide::Right));
    }

    #[test]
    fn wrong_relation_rejected() {
        let v = view();
        let idx = JoinIndex::new(&v, 0, &Bag::new()); // R1 cannot serve R2's join
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1, 3]])).unwrap();
        assert!(idx
            .extend(&v, &pd, JoinSide::Right, |_| true, &Obs::off())
            .is_err());
    }

    #[test]
    fn local_selection_applied() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .select("R2.D", crate::predicate::CmpOp::Gt, 0)
            .build()
            .unwrap();
        let r2 = Bag::from_tuples([tup![3, 0], tup![3, 1]]);
        let idx = JoinIndex::new(&v, 1, &r2);
        assert_eq!(idx.to_bag(), Bag::from_tuples([tup![3, 1]]));
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1, 3]])).unwrap();
        let plain = extend_partial(&v, &pd, &r2, JoinSide::Right).unwrap();
        assert_eq!(plain, fast(&v, &pd, &idx, JoinSide::Right));
    }

    #[test]
    fn left_side_indexed_extension() {
        let v = view();
        let r1 = Bag::from_tuples([tup![1, 3], tup![2, 3], tup![9, 9]]);
        let idx = JoinIndex::new(&v, 0, &r1); // R1 on B
        let pd = PartialDelta::seed(&v, 1, &Bag::from_tuples([tup![3, 5]])).unwrap();
        let plain = extend_partial(&v, &pd, &r1, JoinSide::Left).unwrap();
        assert_eq!(plain, fast(&v, &pd, &idx, JoinSide::Left));
    }

    #[test]
    fn null_keys_join_null_keys() {
        let v = view();
        let r2 = Bag::from_tuples([tup![3, 1], Tuple::new(vec![Value::Null, Value::Int(2)])]);
        let idx = JoinIndex::new(&v, 1, &r2);
        let pd = PartialDelta::seed(
            &v,
            0,
            &Bag::from_tuples([Tuple::new(vec![Value::Int(1), Value::Null])]),
        )
        .unwrap();
        let out = fast(&v, &pd, &idx, JoinSide::Right);
        assert_eq!(
            out.bag,
            Bag::from_tuples([Tuple::new(vec![
                Value::Int(1),
                Value::Null,
                Value::Null,
                Value::Int(2)
            ])])
        );
        assert_eq!(out, extend_partial(&v, &pd, &r2, JoinSide::Right).unwrap());
    }
}
