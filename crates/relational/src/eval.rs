//! Incremental chain-join evaluation: partial deltas, extension joins, and
//! full view evaluation.
//!
//! During a sweep (paper Figure 2), the in-flight view change `ΔV` always
//! covers a *contiguous* range of chain relations
//! `R_lo ⋈ … ⋈ ΔR_i ⋈ … ⋈ R_hi`. Three operations drive everything:
//!
//! * [`PartialDelta::seed`] — start a sweep at the updated relation with
//!   `ΔV = σ_i(ΔR_i)`;
//! * [`extend_partial`] — the `ComputeJoin(ΔV, R)` of Figure 3, performed at
//!   a data source against its base relation, **and** the local
//!   compensation term `ΔR_j ⋈ TempView` of Figure 4, performed at the
//!   warehouse against a concurrent delta (the two are the same join, with a
//!   base bag vs. a delta bag as the neighbor);
//! * [`PartialDelta::finalize`]/[`ViewDef::finalize_bag`-like logic in
//!   `finalize`] — apply the residual selection and projection once the
//!   range covers the whole chain.
//!
//! Signed multiplicities flow through multiplication, so a delete joined
//! with a delete produces a positive term — exactly the arithmetic the
//! paper's §5.2 example exercises.

use crate::bag::Bag;
use crate::error::RelationalError;
use crate::index::JoinIndex;
use crate::view::ViewDef;

/// Which side of the current range a neighbor relation is joined on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinSide {
    /// Neighbor is `R_{lo-1}`: output tuples are `neighbor ++ partial`.
    Left,
    /// Neighbor is `R_{hi+1}`: output tuples are `partial ++ neighbor`.
    Right,
}

/// A partially evaluated view change: a signed bag whose tuples span the
/// concatenated attributes of chain relations `lo..=hi` (0-based,
/// inclusive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialDelta {
    /// First chain position covered.
    pub lo: usize,
    /// Last chain position covered.
    pub hi: usize,
    /// The signed tuples, width = Σ arity(lo..=hi).
    pub bag: Bag,
}

impl PartialDelta {
    /// Start a sweep: apply relation `i`'s local selection to the raw
    /// update `ΔR_i` and wrap it as the range `[i, i]`.
    pub fn seed(view: &ViewDef, i: usize, delta: &Bag) -> Result<PartialDelta, RelationalError> {
        check_rel_index(view, i)?;
        let expected = view.schema(i).arity();
        for (t, _) in delta.iter() {
            if t.arity() != expected {
                return Err(RelationalError::ArityMismatch {
                    context: "PartialDelta::seed",
                    expected,
                    found: t.arity(),
                });
            }
        }
        let sel = view.local_select(i);
        Ok(PartialDelta {
            lo: i,
            hi: i,
            bag: delta.filter(|t| sel.eval(t)),
        })
    }

    /// Width of the composite tuples in this partial delta.
    pub fn width(&self, view: &ViewDef) -> usize {
        (self.lo..=self.hi).map(|k| view.schema(k).arity()).sum()
    }

    /// Does the range cover the entire chain?
    pub fn is_complete(&self, view: &ViewDef) -> bool {
        self.lo == 0 && self.hi + 1 == view.num_relations()
    }

    /// Apply the residual selection and projection, producing the final
    /// view-change bag. Errors unless the range covers the whole chain.
    pub fn finalize(&self, view: &ViewDef) -> Result<Bag, RelationalError> {
        if !self.is_complete(view) {
            return Err(RelationalError::BadRange {
                reason: format!(
                    "finalize on range [{},{}] of a {}-relation chain",
                    self.lo,
                    self.hi,
                    view.num_relations()
                ),
            });
        }
        let residual = view.residual();
        let filtered = self.bag.filter(|t| residual.eval(t));
        Ok(filtered.map_tuples(|t| t.project(view.projection())))
    }

    /// The per-hop on-line correction: subtract an error term computed
    /// from a concurrent source update, `ΔV ← ΔV − err` (Figure 4's
    /// `ΔV − ΔR_j ⋈ TempView`). Both sides are signed deltas over the
    /// same range, so the subtraction is one composition in the delta
    /// calculus — there is no insert/delete case split.
    pub fn compensate(&mut self, err: &PartialDelta) {
        debug_assert_eq!(
            (self.lo, self.hi),
            (err.lo, err.hi),
            "compensation term must cover the partial's range"
        );
        let mut delta = crate::delta::DeltaRelation::from_bag(std::mem::take(&mut self.bag));
        delta.compensate(&crate::delta::DeltaRelation::from_bag(err.bag.clone()));
        self.bag = delta.into_bag();
    }
}

fn check_rel_index(view: &ViewDef, i: usize) -> Result<(), RelationalError> {
    if i >= view.num_relations() {
        return Err(RelationalError::BadRange {
            reason: format!(
                "relation index {i} out of range for a {}-relation chain",
                view.num_relations()
            ),
        });
    }
    Ok(())
}

/// Join a partial delta with the *neighbor* relation's bag on the given
/// side, producing the widened partial delta.
///
/// `neighbor` is either a base relation's contents (`ComputeJoin` at a data
/// source) or a concurrent update's delta (local compensation at the
/// warehouse) — the algebra is identical; counts multiply with sign. The
/// neighbor's **local selection from the view definition is applied here**,
/// so sources and warehouse agree on pushed-down predicates.
pub fn extend_partial(
    view: &ViewDef,
    partial: &PartialDelta,
    neighbor: &Bag,
    side: JoinSide,
) -> Result<PartialDelta, RelationalError> {
    extend_partial_observed(view, partial, neighbor, side, &dw_obs::Obs::off())
}

/// [`extend_partial`] with instrumentation: builds a transient
/// [`JoinIndex`] over `neighbor` (recording its size as
/// `join.build_rows`) and probes it with [`JoinIndex::extend`], which
/// records `join.probe_rows` and `join.out_rows`. With `Obs::off()` this
/// *is* `extend_partial`.
pub fn extend_partial_observed(
    view: &ViewDef,
    partial: &PartialDelta,
    neighbor: &Bag,
    side: JoinSide,
    obs: &dw_obs::Obs,
) -> Result<PartialDelta, RelationalError> {
    let table = JoinIndex::build(view, partial, side, neighbor)?;
    if obs.enabled() {
        obs.observe("join.build_rows", table.len() as u64);
    }
    table.extend(view, partial, side, |_| true, obs)
}

/// Fully evaluate the view over a snapshot of all base-relation bags
/// (`relations[i]` is the contents of chain relation `i`).
///
/// Used for initializing the warehouse, for the `Recompute` baseline, and
/// as the ground truth of the consistency checker.
pub fn eval_view(view: &ViewDef, relations: &[&Bag]) -> Result<Bag, RelationalError> {
    if relations.len() != view.num_relations() {
        return Err(RelationalError::InvalidViewDef {
            reason: format!(
                "eval_view got {} relations for a {}-relation view",
                relations.len(),
                view.num_relations()
            ),
        });
    }
    let mut pd = PartialDelta::seed(view, 0, relations[0])?;
    for neighbor in &relations[1..] {
        pd = extend_partial(view, &pd, neighbor, JoinSide::Right)?;
    }
    pd.finalize(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::schema::Schema;
    use crate::tup;
    use crate::view::ViewDefBuilder;

    /// The paper's §5.2 example view:
    /// `Π[R2.D, R3.F](R1[A,B] ⋈_{B=C} R2[C,D] ⋈_{D=E} R3[E,F])`.
    fn paper_view() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .project(["R2.D", "R3.F"])
            .build()
            .unwrap()
    }

    fn paper_initial() -> (Bag, Bag, Bag) {
        (
            Bag::from_tuples([tup![1, 3], tup![2, 3]]), // R1
            Bag::from_tuples([tup![3, 7]]),             // R2
            Bag::from_tuples([tup![5, 6], tup![7, 8]]), // R3
        )
    }

    #[test]
    fn eval_paper_initial_state() {
        let v = paper_view();
        let (r1, r2, r3) = paper_initial();
        let out = eval_view(&v, &[&r1, &r2, &r3]).unwrap();
        // Initial warehouse state: {(7,8)[2]}.
        assert_eq!(out, Bag::from_pairs([(tup![7, 8], 2)]));
    }

    #[test]
    fn seed_applies_local_selection() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .select("R1.A", CmpOp::Gt, 1)
            .build()
            .unwrap();
        let d = Bag::from_pairs([(tup![1, 10], 1), (tup![2, 20], 1)]);
        let pd = PartialDelta::seed(&v, 0, &d).unwrap();
        assert_eq!(pd.bag, Bag::from_pairs([(tup![2, 20], 1)]));
    }

    #[test]
    fn seed_checks_arity() {
        let v = paper_view();
        let err = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1]])).unwrap_err();
        assert!(matches!(err, RelationalError::ArityMismatch { .. }));
    }

    #[test]
    fn extend_right_from_update() {
        let v = paper_view();
        let (_, _, r3) = paper_initial();
        // ΔR2 = +(3,5): the paper's first update.
        let d2 = Bag::from_tuples([tup![3, 5]]);
        let pd = PartialDelta::seed(&v, 1, &d2).unwrap();
        let pd = extend_partial(&v, &pd, &r3, JoinSide::Right).unwrap();
        // (3,5) ⋈_{D=E} R3: D=5 matches (5,6).
        assert_eq!(pd.bag, Bag::from_tuples([tup![3, 5, 5, 6]]));
        assert_eq!((pd.lo, pd.hi), (1, 2));
    }

    #[test]
    fn extend_left_from_update() {
        let v = paper_view();
        let (r1, _, _) = paper_initial();
        let d2 = Bag::from_tuples([tup![3, 5]]);
        let pd = PartialDelta::seed(&v, 1, &d2).unwrap();
        let pd = extend_partial(&v, &pd, &r1, JoinSide::Left).unwrap();
        // R1 ⋈_{B=C} (3,5): B=3 matches (1,3) and (2,3).
        assert_eq!(
            pd.bag,
            Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]])
        );
        assert_eq!((pd.lo, pd.hi), (0, 1));
    }

    #[test]
    fn signs_multiply_delete_times_delete_is_positive() {
        let v = paper_view();
        // TempView = {-(3,7,8)} over range [1,2]; neighbor ΔR1 = {-(2,3)}.
        let temp = PartialDelta {
            lo: 1,
            hi: 2,
            bag: Bag::from_pairs([(tup![3, 7, 7, 8], -1)]),
        };
        let dr1 = Bag::from_pairs([(tup![2, 3], -1)]);
        let err = extend_partial(&v, &temp, &dr1, JoinSide::Left).unwrap();
        // (-1) × (-1) = +1 — the §5.2 arithmetic.
        assert_eq!(err.bag, Bag::from_pairs([(tup![2, 3, 3, 7, 7, 8], 1)]));
    }

    #[test]
    fn finalize_projects_and_counts() {
        let v = paper_view();
        let full = PartialDelta {
            lo: 0,
            hi: 2,
            bag: Bag::from_tuples([tup![1, 3, 3, 5, 5, 6], tup![2, 3, 3, 5, 5, 6]]),
        };
        let out = full.finalize(&v).unwrap();
        assert_eq!(out, Bag::from_pairs([(tup![5, 6], 2)]));
    }

    #[test]
    fn finalize_requires_complete_range() {
        let v = paper_view();
        let part = PartialDelta {
            lo: 1,
            hi: 2,
            bag: Bag::new(),
        };
        assert!(matches!(
            part.finalize(&v),
            Err(RelationalError::BadRange { .. })
        ));
    }

    #[test]
    fn extend_past_ends_rejected() {
        let v = paper_view();
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1, 3]])).unwrap();
        assert!(extend_partial(&v, &pd, &Bag::new(), JoinSide::Left).is_err());
        let pd = PartialDelta::seed(&v, 2, &Bag::from_tuples([tup![5, 6]])).unwrap();
        assert!(extend_partial(&v, &pd, &Bag::new(), JoinSide::Right).is_err());
    }

    #[test]
    fn neighbor_arity_checked() {
        let v = paper_view();
        let pd = PartialDelta::seed(&v, 1, &Bag::from_tuples([tup![3, 5]])).unwrap();
        let bad = Bag::from_tuples([tup![1]]);
        assert!(matches!(
            extend_partial(&v, &pd, &bad, JoinSide::Right),
            Err(RelationalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn residual_selection_applies_at_finalize() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A"]).unwrap())
            .relation(Schema::new("R2", ["B"]).unwrap())
            .join("R1.A", "R2.B")
            .select_across("R1.A", CmpOp::Lt, "R2.B")
            .build()
            .unwrap();
        // A = B always here, so the residual A < B filters everything out.
        let r1 = Bag::from_tuples([tup![1]]);
        let r2 = Bag::from_tuples([tup![1]]);
        let out = eval_view(&v, &[&r1, &r2]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_relation_view() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .project(["R1.B"])
            .build()
            .unwrap();
        let r1 = Bag::from_tuples([tup![1, 7], tup![2, 7]]);
        let out = eval_view(&v, &[&r1]).unwrap();
        assert_eq!(out, Bag::from_pairs([(tup![7], 2)]));
    }

    #[test]
    fn multi_pair_join_condition() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.A", "R2.C")
            .join("R1.B", "R2.D")
            .build()
            .unwrap();
        let r1 = Bag::from_tuples([tup![1, 2], tup![1, 3]]);
        let r2 = Bag::from_tuples([tup![1, 2]]);
        let out = eval_view(&v, &[&r1, &r2]).unwrap();
        assert_eq!(out, Bag::from_pairs([(tup![1, 2, 1, 2], 1)]));
    }

    #[test]
    fn incremental_equals_recompute_distributivity() {
        // (R1 + ΔR1) ⋈ R2 == R1 ⋈ R2 + ΔR1 ⋈ R2 (the §3 identity).
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .build()
            .unwrap();
        let r1 = Bag::from_tuples([tup![1, 3], tup![2, 3]]);
        let d1 = Bag::from_pairs([(tup![2, 3], -1), (tup![4, 5], 1)]);
        let r2 = Bag::from_tuples([tup![3, 7], tup![5, 9]]);

        let old = eval_view(&v, &[&r1, &r2]).unwrap();
        let incr = {
            let pd = PartialDelta::seed(&v, 0, &d1).unwrap();
            extend_partial(&v, &pd, &r2, JoinSide::Right)
                .unwrap()
                .finalize(&v)
                .unwrap()
        };
        let new_direct = eval_view(&v, &[&r1.plus(&d1), &r2]).unwrap();
        assert_eq!(old.plus(&incr), new_direct);
    }

    #[test]
    fn cross_join_when_no_condition() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A"]).unwrap())
            .relation(Schema::new("R2", ["B"]).unwrap())
            .build()
            .unwrap();
        let r1 = Bag::from_tuples([tup![1], tup![2]]);
        let r2 = Bag::from_tuples([tup![10], tup![20]]);
        let out = eval_view(&v, &[&r1, &r2]).unwrap();
        assert_eq!(out.distinct_len(), 4);
    }
}
