//! The workloads: seeded inputs only. Every size lives here.
//!
//! The seed drives the update stream, the view draw and the read mix.
//! The view draw only picks selection thresholds inside narrow ranges,
//! so the shape of the work (view widths, operator kinds, row counts) is
//! the same on every seed and two seeds measure the same system.

use dw_relational::{AggFn, AggregateSpec, CmpOp, Tuple, Value};
use dw_rng::Rng64;
use dw_workload::{
    DerivedOp, DerivedSpec, MultiViewConfig, MultiViewScenario, ReadMixConfig, ReadOp,
    StreamConfig, ViewSpec,
};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ChainScale,
    ViewFanout,
}

/// Everything one round runs on.
pub struct Inputs {
    pub scenario: MultiViewScenario,
    /// Scheduled reads, sorted by `(at, reader)`.
    pub reads: Vec<ReadOp>,
}

/// Virtual duration of one sweep over `n` sources: `2(n−1)` messages on
/// the simulator's default 1 ms link (`LatencyModel::default()`).
fn sweep_us(n: usize) -> u64 {
    2 * (n as u64 - 1) * 1_000
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "chain_scale" => Some(Workload::ChainScale),
            "view_fanout" => Some(Workload::ViewFanout),
            _ => None,
        }
    }

    pub fn generate(self, seed: u64) -> Result<Inputs, String> {
        match self {
            Workload::ChainScale => chain_scale(seed),
            Workload::ViewFanout => view_fanout(seed),
        }
    }
}

fn scenario(stream: StreamConfig) -> Result<MultiViewScenario, String> {
    // The generated view set is replaced by each workload's own draw.
    MultiViewConfig {
        stream,
        n_views: 0,
        ..MultiViewConfig::default()
    }
    .generate()
    .map_err(|e| format!("scenario generation: {e}"))
}

fn full_views(count: usize, n: usize) -> Vec<ViewSpec> {
    (0..count)
        .map(|v| ViewSpec::full(format!("V{v}"), n))
        .collect()
}

/// Four sources of 10⁴ rows each, join domain ≈ rows (fanout ≈ 1, a view
/// of ~7.5k rows), one full-span SWEEP view, and arrivals every ~200 µs:
/// far denser than the 6 ms sweep, so sweeps queue, overlap and
/// compensate locally. The source query server and join kernel do the
/// work. A burst of four unbounded point reads per sweep keeps the read
/// path measured without loading it.
fn chain_scale(seed: u64) -> Result<Inputs, String> {
    const N: usize = 4;
    const ROWS: usize = 10_000;
    const UPDATES: usize = 60;
    let mut scenario = scenario(StreamConfig {
        n_sources: N,
        initial_per_source: ROWS,
        domain: 11_000,
        updates: UPDATES,
        mean_gap: 200,
        seed,
        ..StreamConfig::default()
    })?;
    scenario.views = full_views(1, N);
    let reads = ReadMixConfig {
        readers: 1,
        reads_per_reader: 4 * UPDATES,
        start: 0,
        // Four reads per sweep, spread over the whole backlog drain.
        mean_gap: sweep_us(N) / 4,
        n_views: 1,
        point_frac: 1.0,
        scan_frac: 0.0,
        poll_frac: 0.0,
        bound_frac: 0.0,
        bound_window: 0,
        point_column: 0,
        keys: keys_by_matches(&scenario),
        zipf_theta: 1.1,
        seed: seed ^ 0x00C4_A125,
    }
    .generate();
    Ok(Inputs {
        scenario,
        reads: in_bursts(reads),
    })
}

/// Three sources of 1.5k rows, domain 400: four full-span base views of
/// up to ~21k rows with σ/Π, and four derived views (σ/Π and aggregate
/// children), every view on per-update SWEEP. A steady update stream
/// (every ~0.5 ms, twice the sweep rate) and a thousand reads per round
/// in bursts:
/// every install freezes, derives and fans out across 8 views, so the
/// serve write path and the scheduler's shared sweep and cascade do the
/// work.
fn view_fanout(seed: u64) -> Result<Inputs, String> {
    const N: usize = 3;
    const ROWS: usize = 1_500;
    const UPDATES: usize = 70;
    const READERS: usize = 4;
    const READS: usize = 1_000;
    let mut scenario = scenario(StreamConfig {
        n_sources: N,
        initial_per_source: ROWS,
        domain: 400,
        updates: UPDATES,
        mean_gap: 500,
        seed,
        ..StreamConfig::default()
    })?;
    let mut r = Rng64::new(seed ^ 0x0FA2_0077);
    // Thresholds keep at least ~90 % of the rows they filter.
    let mut cut = || Value::Int(r.i64_in(0, 40));
    let keys = |extra: &[&str]| -> Option<Vec<String>> {
        let mut cols: Vec<String> = ["R1.K", "R2.K", "R3.K"].map(String::from).to_vec();
        cols.splice(1..1, extra.iter().map(|s| s.to_string()));
        cols.push("R3.B".to_string());
        Some(cols)
    };
    let mut views = full_views(4, N);
    views[1].selects = vec![(0, 2, CmpOp::Ge, cut())];
    views[2].projection = keys(&[]);
    views[3].selects = vec![(2, 2, CmpOp::Ge, cut())];
    views[3].projection = keys(&["R1.A"]);
    // Columns: V0 is R1.K R1.A R1.B R2.K R2.A R2.B R3.K R3.A R3.B;
    // V2 is R1.K R2.K R3.K R3.B; V3 is R1.K R1.A R2.K R3.K R3.B.
    scenario.derived = vec![
        derived(
            "D0",
            "V0",
            DerivedOp::Select {
                selects: vec![(8, CmpOp::Ge, cut())],
                projection: Some(vec![0, 3, 6, 8]),
            },
        ),
        derived(
            "D1",
            "V0",
            DerivedOp::Aggregate(AggregateSpec {
                group_by: vec![2],
                aggs: vec![AggFn::CountRows, AggFn::Sum(0)],
            }),
        ),
        derived(
            "D2",
            "V2",
            DerivedOp::Select {
                selects: vec![(3, CmpOp::Ge, cut())],
                projection: None,
            },
        ),
        derived(
            "D3",
            "V3",
            DerivedOp::Aggregate(AggregateSpec {
                group_by: vec![4],
                aggs: vec![AggFn::CountRows, AggFn::Max(0)],
            }),
        ),
    ];
    scenario.views = views;
    // The backlog drains one sweep per update: spread reads over it.
    let drain = UPDATES as u64 * sweep_us(N);
    let reads = ReadMixConfig {
        readers: READERS,
        reads_per_reader: READS / READERS,
        start: 0,
        mean_gap: drain / (READS / READERS) as u64,
        n_views: 4,
        point_frac: 0.90,
        scan_frac: 0.05,
        poll_frac: 0.06,
        bound_frac: 0.0,
        bound_window: 0,
        point_column: 0,
        keys: keys_by_matches(&scenario),
        zipf_theta: 1.1,
        seed: seed ^ 0x0FA2_0EAD,
    }
    .generate();
    Ok(Inputs {
        scenario,
        reads: in_bursts(reads),
    })
}

/// Reads a client issues back to back, as a dashboard asking for several
/// keys at once does.
const BURST: usize = 4;

/// Group each reader's ops, [`BURST`] at a time, at the instant of the
/// group's first op, so they resolve back to back. An isolated read
/// between installs finds every cache cold, and its time then follows the
/// host's memory traffic more than the read path's own cost.
fn in_bursts(mut reads: Vec<ReadOp>) -> Vec<ReadOp> {
    // Per reader: ops seen, and the instant of its current burst.
    let mut open: HashMap<usize, (usize, u64)> = HashMap::new();
    for op in &mut reads {
        let (seen, at) = open.entry(op.reader).or_insert((0, op.at));
        if *seen % BURST == 0 {
            *at = op.at;
        }
        op.at = *at;
        *seen += 1;
    }
    // Stable, so each reader's ops keep their order.
    reads.sort_by_key(|op| (op.at, op.reader));
    reads
}

fn derived(name: &str, parent: &str, op: DerivedOp) -> DerivedSpec {
    DerivedSpec {
        name: name.to_string(),
        parent: parent.to_string(),
        op,
    }
}

/// The first relation's keys, most view rows first (ties by key): the
/// zipf-hot keys are the entities with the most joined rows, so the hot
/// set's answer sizes are order statistics of the draw rather than
/// whatever the first few keys happened to join with on this seed.
fn keys_by_matches(sc: &MultiViewScenario) -> Vec<i64> {
    // Columns are [K, A, B] and the chain joins R_i.B = R_{i+1}.A.
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        _ => 0,
    };
    // Rows of the rest of the chain that a tuple reaches through its B
    // value (`None` past the last relation: a tuple reaches itself).
    let reached = |below: &Option<HashMap<i64, i64>>, t: &Tuple| {
        below
            .as_ref()
            .map_or(1, |b| b.get(&int(t.at(2))).copied().unwrap_or(0))
    };
    let mut below: Option<HashMap<i64, i64>> = None;
    for rel in sc.initial[1..].iter().rev() {
        let mut by_a: HashMap<i64, i64> = HashMap::new();
        for (t, m) in rel.iter() {
            *by_a.entry(int(t.at(1))).or_default() += m * reached(&below, t);
        }
        below = Some(by_a);
    }
    let mut keys: Vec<(i64, i64)> = sc.initial[0]
        .iter()
        .map(|(t, m)| (-(m * reached(&below, t)), int(t.at(0))))
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, k)| k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::{tup, Bag};
    use dw_workload::ReadKind;

    #[test]
    fn bursts_share_the_first_ops_instant_per_reader() {
        let op = |at, reader| ReadOp {
            at,
            reader,
            view: 0,
            kind: ReadKind::Scan,
            bound_window: None,
        };
        let reads = (0..10).map(|i| op(10 * i, (i % 2) as usize)).collect();
        let bursts = in_bursts(reads);
        // Reader 0 issues at 0, 20, …, 80; reader 1 at 10, 30, …, 90.
        let at: Vec<u64> = bursts.iter().map(|o| o.at).collect();
        let reader: Vec<usize> = bursts.iter().map(|o| o.reader).collect();
        assert_eq!(at, [0, 0, 0, 0, 10, 10, 10, 10, 80, 90]);
        assert_eq!(reader, [0, 0, 0, 0, 1, 1, 1, 1, 0, 1]);
    }

    #[test]
    fn hot_keys_are_the_ones_with_most_joined_rows() {
        let mut sc = scenario(StreamConfig {
            n_sources: 3,
            updates: 0,
            ..StreamConfig::default()
        })
        .unwrap();
        // R1 key 7 reaches 2 × 2 rows, key 3 reaches 1 × 2, key 5 none.
        sc.initial = vec![
            Bag::from_tuples([tup![3, 0, 1], tup![5, 0, 9], tup![7, 0, 2]]),
            Bag::from_tuples([tup![0, 1, 4], tup![1, 2, 4], tup![2, 2, 4]]),
            Bag::from_tuples([tup![0, 4, 0], tup![1, 4, 0]]),
        ];
        assert_eq!(keys_by_matches(&sc), vec![7, 3, 5]);
    }
}
