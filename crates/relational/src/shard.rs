//! Value-space partitioning for the sharded warehouse.
//!
//! A [`ShardMap`] deterministically assigns every [`Value`] to one of `S`
//! shards (`S ≤ 64`, so shard *sets* fit a `u64` bitmask). The sharded
//! sweep adapter builds its correctness argument on value **purity**:
//!
//! * a tuple is *pure in shard s* when **every** attribute value maps to
//!   `s`; otherwise it is *impure* (it straddles shards);
//! * equi-joins equate attribute values, so a pure tuple can only join
//!   same-shard pure tuples, and the join of pure tuples is pure — sweeps
//!   confined to disjoint shards never see each other's tuples;
//! * an impure tuple bridges every shard in its band set
//!   ([`ShardMap::tuple_bands`]); the scheduler merges those shards into
//!   one serialization group so a sweep's partial provably stays inside
//!   the group's bands.
//!
//! On the source side, a shard-scoped sweep query keeps a join match only
//! when it is impure or pure in an in-scope shard — by purity, every tuple
//! the full relation could have contributed is among those, so a scoped
//! answer equals the full-scan answer restricted to what can actually
//! join.

use crate::bag::Bag;
use crate::tuple::Tuple;
use crate::value::Value;

/// Deterministic value-space partitioner over `S ≤ 64` shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardMap {
    /// Hash partitioning: every value's deterministic 64-bit hash mod
    /// `shards`. Seed-free and platform-independent — runs agree on the
    /// placement of every tuple.
    Hash {
        /// Number of shards (1..=64).
        shards: usize,
    },
    /// Range partitioning over integer bands: `Int(v)` lands in shard
    /// `clamp(v div width, 0, shards-1)`; non-integer values fall back to
    /// the hash placement. Workload generators that band their value
    /// domain per shard use this to make every generated tuple pure.
    Range {
        /// Width of each shard's integer band.
        width: i64,
        /// Number of shards (1..=64).
        shards: usize,
    },
}

/// How a delta bag relates to the shard space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaClass {
    /// No tuples: the sweep is a no-op for sharding purposes.
    Empty,
    /// Every tuple is pure in this one shard — the update is
    /// *shard-local* and may sweep concurrently with other shards.
    Pure(usize),
    /// The delta straddles shards and must escalate to a global sweep.
    Escalate {
        /// Band masks of the *individually impure* tuples (each with
        /// more than one bit set). After the global sweep installs, the
        /// scheduler unions each mask's shards into one group — pure
        /// tuples of different shards need no union, only tuples that
        /// themselves bridge bands do.
        impure_masks: Vec<u64>,
    },
}

impl ShardMap {
    /// Hash partitioner over `shards` shards. Panics unless
    /// `1 <= shards <= 64`.
    pub fn hash(shards: usize) -> ShardMap {
        assert!((1..=64).contains(&shards), "shards must be in 1..=64");
        ShardMap::Hash { shards }
    }

    /// Range partitioner: integer band `[s·width, (s+1)·width)` maps to
    /// shard `s` (clamped at the ends). Panics unless `1 <= shards <= 64`
    /// and `width > 0`.
    pub fn range(width: i64, shards: usize) -> ShardMap {
        assert!((1..=64).contains(&shards), "shards must be in 1..=64");
        assert!(width > 0, "band width must be positive");
        ShardMap::Range { width, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        match self {
            ShardMap::Hash { shards } | ShardMap::Range { shards, .. } => *shards,
        }
    }

    /// Bitmask with every shard's bit set.
    pub fn full_mask(&self) -> u64 {
        if self.shards() == 64 {
            u64::MAX
        } else {
            (1u64 << self.shards()) - 1
        }
    }

    /// The shard one value maps to.
    pub fn shard_of_value(&self, v: &Value) -> usize {
        match self {
            ShardMap::Hash { shards } => (v.stable_hash() % *shards as u64) as usize,
            ShardMap::Range { width, shards } => match v {
                Value::Int(i) => i.div_euclid(*width).clamp(0, *shards as i64 - 1) as usize,
                other => (other.stable_hash() % *shards as u64) as usize,
            },
        }
    }

    /// Bitmask of the shards a tuple's attribute values touch.
    pub fn tuple_bands(&self, t: &Tuple) -> u64 {
        t.values()
            .iter()
            .fold(0u64, |m, v| m | (1u64 << self.shard_of_value(v)))
    }

    /// `Some(s)` when every attribute of `t` maps to shard `s`; `None`
    /// when the tuple straddles shards (or has no attributes).
    pub fn shard_of_tuple(&self, t: &Tuple) -> Option<usize> {
        let m = self.tuple_bands(t);
        (m.count_ones() == 1).then(|| m.trailing_zeros() as usize)
    }

    /// Classify a delta bag for the sharded scheduler: shard-local
    /// ([`DeltaClass::Pure`]) when every tuple is pure in the same shard,
    /// otherwise an escalation carrying the impure tuples' band masks.
    pub fn classify_delta(&self, delta: &Bag) -> DeltaClass {
        let mut pure: Option<usize> = None;
        let mut impure_masks = Vec::new();
        let mut multi_pure = false;
        for (t, _) in delta.iter() {
            let m = self.tuple_bands(t);
            if m.count_ones() == 1 {
                let s = m.trailing_zeros() as usize;
                match pure {
                    None => pure = Some(s),
                    Some(p) if p != s => multi_pure = true,
                    Some(_) => {}
                }
            } else {
                impure_masks.push(m);
            }
        }
        match (pure, impure_masks.is_empty(), multi_pure) {
            (None, true, _) => DeltaClass::Empty,
            (Some(s), true, false) => DeltaClass::Pure(s),
            _ => DeltaClass::Escalate { impure_masks },
        }
    }
}

/// The shard scope a sweep query runs under: which tuples of each base
/// relation the sources may join.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardScope {
    /// The partitioner the scope's shards are drawn from.
    pub map: ShardMap,
    /// Bitmask of the shards in scope.
    pub mask: u64,
}

impl ShardScope {
    /// Modeled wire size: the map descriptor plus the mask.
    pub fn size_bytes(&self) -> usize {
        24
    }

    /// May `t` join under this scope? Impure tuples always may (they can
    /// bridge into any in-scope partial); pure ones only in an in-scope
    /// shard.
    pub fn admits(&self, t: &Tuple) -> bool {
        self.map
            .shard_of_tuple(t)
            .is_none_or(|s| self.mask & (1u64 << s) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn range_map_bands_integers() {
        let m = ShardMap::range(10, 4);
        assert_eq!(m.shard_of_value(&Value::Int(0)), 0);
        assert_eq!(m.shard_of_value(&Value::Int(9)), 0);
        assert_eq!(m.shard_of_value(&Value::Int(10)), 1);
        assert_eq!(m.shard_of_value(&Value::Int(39)), 3);
        // Out-of-range values clamp instead of wrapping.
        assert_eq!(m.shard_of_value(&Value::Int(-5)), 0);
        assert_eq!(m.shard_of_value(&Value::Int(400)), 3);
    }

    #[test]
    fn hash_map_is_deterministic_and_total() {
        let m = ShardMap::hash(4);
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::float(2.5),
            Value::str("abc"),
        ] {
            let s = m.shard_of_value(&v);
            assert!(s < 4);
            assert_eq!(s, m.shard_of_value(&v), "placement must be stable");
        }
        assert_ne!(
            ShardMap::hash(64).shard_of_value(&Value::str("a")),
            ShardMap::hash(64).shard_of_value(&Value::str("b")),
            "distinct strings should usually spread"
        );
    }

    #[test]
    fn purity_and_band_masks() {
        let m = ShardMap::range(10, 4);
        assert_eq!(m.shard_of_tuple(&tup![1, 2, 3]), Some(0));
        assert_eq!(m.shard_of_tuple(&tup![11, 12]), Some(1));
        assert_eq!(m.shard_of_tuple(&tup![1, 12]), None);
        assert_eq!(m.tuple_bands(&tup![1, 12, 35]), 0b1011);
    }

    #[test]
    fn classify_delta_covers_the_three_regimes() {
        let m = ShardMap::range(10, 4);
        assert_eq!(m.classify_delta(&Bag::new()), DeltaClass::Empty);
        assert_eq!(
            m.classify_delta(&Bag::from_tuples([tup![1, 2], tup![3, 4]])),
            DeltaClass::Pure(0)
        );
        // Pure tuples of two different shards escalate but union nothing.
        assert_eq!(
            m.classify_delta(&Bag::from_tuples([tup![1, 2], tup![13, 14]])),
            DeltaClass::Escalate {
                impure_masks: vec![]
            }
        );
        // An individually impure tuple carries its band mask out.
        assert_eq!(
            m.classify_delta(&Bag::from_tuples([tup![1, 12]])),
            DeltaClass::Escalate {
                impure_masks: vec![0b11]
            }
        );
    }

    #[test]
    fn scope_admits_impure_and_in_scope_pure_tuples() {
        let m = ShardMap::range(10, 2);
        let scope = |mask| ShardScope {
            map: m.clone(),
            mask,
        };
        let (pure0, pure1, mixed) = (tup![1, 2], tup![11, 12], tup![1, 12]);
        assert!(scope(0b01).admits(&pure0) && scope(0b01).admits(&mixed));
        assert!(!scope(0b01).admits(&pure1));
        assert!(scope(0b10).admits(&pure1) && !scope(0b10).admits(&pure0));
        assert!(
            scope(0b00).admits(&mixed),
            "impure tuples are never dropped"
        );
        assert!([&pure0, &pure1, &mixed]
            .iter()
            .all(|t| scope(m.full_mask()).admits(t)));
    }
}
