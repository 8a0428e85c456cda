//! DAG-maintenance equivalence: across random view stacks × update
//! streams × latency models × engines × fault schedules, every derived
//! view must equal a **fresh recompute of its operator over the
//! parent's contents at the same install epoch** — at every epoch, not
//! just at quiescence. The cascade consumes the same update ids as the
//! parent install, so the two install logs align 1:1 and the oracle is
//! exact.
//!
//! Arms: the flat shared-sweep scheduler, the sharded scheduler, link
//! faults behind the reliability transport, and warehouse state crashes
//! with durability armed. Seeded loops; every failure names the case
//! seed for replay.

use dw_rng::Rng64;
use dwsweep::prelude::*;
use dwsweep::protocol::WAREHOUSE_NODE;

/// Random latency model spanning all four families.
fn arb_latency(r: &mut Rng64) -> LatencyModel {
    match r.usize_below(4) {
        0 => LatencyModel::Constant(r.u64_in(100, 10_000)),
        1 => LatencyModel::Uniform(r.u64_in(100, 3_000), r.u64_in(3_000, 10_000)),
        2 => LatencyModel::Exponential(r.u64_in(200, 5_000)),
        _ => LatencyModel::Jittered {
            base: r.u64_in(100, 2_000),
            jitter: r.u64_in(1, 5_000),
        },
    }
}

/// Modest-but-interfering streams with a derived stack on top: up to 5
/// derived views (σ/Π and Σ mixed, stacks compose over earlier draws).
fn arb_dag(r: &mut Rng64) -> MultiViewConfig {
    MultiViewConfig {
        stream: StreamConfig {
            n_sources: 2 + r.usize_below(3),
            initial_per_source: 5 + r.usize_below(12),
            domain: r.u64_in(4, 16),
            updates: 1 + r.usize_below(10),
            mean_gap: r.u64_in(50, 6_000),
            insert_ratio: 0.1 + r.f64() * 0.8,
            keyed: true,
            seed: r.next_u64(),
            ..Default::default()
        },
        n_views: 1 + r.usize_below(3),
        view_seed: r.next_u64(),
        full_span: r.usize_below(3) == 0,
        n_derived: 1 + r.usize_below(5),
        derived_seed: r.next_u64(),
    }
}

/// Assert every derived view's per-epoch oracle audit came back clean
/// and that each child's install log mirrors its parent's epochs 1:1.
fn assert_dag_clean(report: &MultiViewReport, case: u64, arm: &str) {
    assert!(!report.derived.is_empty(), "case {case} [{arm}]: no stack");
    for d in &report.derived {
        // Snapshots are on in these arms, so every install epoch must
        // have been audited (a parent whose span saw no traffic installs
        // nothing, and its child then legitimately audits zero epochs).
        assert_eq!(
            d.epochs_audited,
            d.installs.len(),
            "case {case} [{arm}]: derived '{}' partially audited",
            d.name
        );
        assert_eq!(
            d.epoch_mismatches, 0,
            "case {case} [{arm}]: derived '{}' (op {}, parent '{}') diverged \
             from its fresh-recompute oracle",
            d.name, d.op, d.parent
        );
        assert!(
            d.final_matches_oracle,
            "case {case} [{arm}]: derived '{}' wrong at quiescence",
            d.name
        );
    }
    assert!(report.quiescent, "case {case} [{arm}]: did not drain");
}

const CASES: u64 = 64;

/// Flat engine, clean network: 64 random DAGs, per-epoch oracle.
#[test]
fn derived_views_equal_fresh_recompute_at_every_epoch() {
    for case in 0..CASES {
        let mut r = Rng64::new(0xDA6_0000 + case);
        let cfg = arb_dag(&mut r);
        let latency = arb_latency(&mut r);
        let net_seed = r.next_u64();
        let scenario = cfg.generate().unwrap();
        let n_derived = scenario.derived.len();

        let report = MultiViewExperiment::new(scenario)
            .latency(latency)
            .seed(net_seed)
            .run()
            .unwrap();
        assert_eq!(report.derived.len(), n_derived, "case {case}");
        assert_dag_clean(&report, case, "flat");
        // The cascade's install counter is exactly the sum of the
        // children's install logs — nothing fed twice, nothing skipped.
        let total: u64 = report.derived.iter().map(|d| d.installs.len() as u64).sum();
        assert_eq!(report.cascade.child_installs, total, "case {case}");
    }
}

/// Child maintenance costs zero source messages: the query/answer bill
/// with the stack registered is byte-identical to the same scenario
/// with the stack removed, across random cases and both modes.
#[test]
fn derived_views_never_touch_the_sources() {
    for case in 0..CASES {
        let mut r = Rng64::new(0xDA6_1000 + case);
        let cfg = arb_dag(&mut r);
        let latency = arb_latency(&mut r);
        let net_seed = r.next_u64();
        let with = cfg.generate().unwrap();
        let mut without = with.clone();
        without.derived.clear();

        let mode = if case % 2 == 0 {
            SchedulerMode::Shared
        } else {
            SchedulerMode::Naive
        };
        let a = MultiViewExperiment::new(with)
            .mode(mode)
            .latency(latency.clone())
            .seed(net_seed)
            .run()
            .unwrap();
        let b = MultiViewExperiment::new(without)
            .mode(mode)
            .latency(latency)
            .seed(net_seed)
            .run()
            .unwrap();
        assert_dag_clean(&a, case, "billed");
        assert_eq!(
            a.query_messages(),
            b.query_messages(),
            "case {case}: registering the stack changed the source bill"
        );
        assert_eq!(a.events, b.events, "case {case}: stack altered traffic");
    }
}

/// Sharded engine: same DAGs over a banded scenario; the cascade rides
/// the sequenced install release, and flat/sharded agree per derived
/// view, epoch for epoch.
#[test]
fn sharded_cascade_matches_flat_per_epoch() {
    for case in 0..32u64 {
        let mut r = Rng64::new(0xDA6_2000 + case);
        let cfg = ShardedConfig {
            n_sources: 2 + r.usize_below(2),
            shards: 1 + r.usize_below(3),
            updates: 4 + r.usize_below(12),
            mean_gap: r.u64_in(100, 2_000),
            n_views: 1 + r.usize_below(2),
            seed: r.next_u64(),
            ..Default::default()
        };
        let mut generated = cfg.generate().unwrap();
        // Stack: σ over V0, Σ over V0, σ over the Σ (three layers).
        generated.scenario.derived = vec![
            DerivedSpec {
                name: "hot".into(),
                parent: "V0".into(),
                op: DerivedOp::Select {
                    selects: vec![(0, CmpOp::Ge, Value::Int(1))],
                    projection: Some(vec![0, 1]),
                },
            },
            DerivedSpec {
                name: "counts".into(),
                parent: "V0".into(),
                op: DerivedOp::Aggregate(AggregateSpec {
                    group_by: vec![0],
                    aggs: vec![AggFn::CountRows, AggFn::Max(1)],
                }),
            },
            DerivedSpec {
                name: "busy".into(),
                parent: "counts".into(),
                op: DerivedOp::Select {
                    selects: vec![(1, CmpOp::Ge, Value::Int(2))],
                    projection: None,
                },
            },
        ];

        let sharded = MultiViewExperiment::new(generated.scenario.clone())
            .sharded(generated.map)
            .run()
            .unwrap();
        let flat = MultiViewExperiment::new(generated.scenario).run().unwrap();
        assert!(sharded.quiescent && flat.quiescent, "case {case}");
        assert!(sharded.derived_clean(), "case {case}: sharded oracle");
        assert_dag_clean(&flat, case, "flat-arm");
        for (s, f) in sharded.derived.iter().zip(flat.derived.iter()) {
            assert_eq!(s.view, f.view, "case {case}: derived '{}'", s.name);
            assert_eq!(
                s.installs.len(),
                f.installs.len(),
                "case {case}: derived '{}' epoch count",
                s.name
            );
            for (si, fi) in s.installs.iter().zip(f.installs.iter()) {
                assert_eq!(
                    si.consumed, fi.consumed,
                    "case {case}: derived '{}' consumed sets",
                    s.name
                );
                assert_eq!(
                    si.view_after, fi.view_after,
                    "case {case}: derived '{}' epoch snapshot",
                    s.name
                );
            }
        }
    }
}

/// Link faults (drops, duplicates, reordering) behind the reliability
/// transport: the oracle must hold at every epoch anyway.
#[test]
fn dag_survives_link_faults_behind_transport() {
    for case in 0..16u64 {
        let mut r = Rng64::new(0xDA6_3000 + case);
        let cfg = arb_dag(&mut r);
        let net_seed = r.next_u64();
        let faults = FaultPlan::default().uniform(LinkFaults {
            drop_rate: 0.10,
            dup_rate: 0.05,
            reorder_rate: 0.05,
            reorder_window: 3_000,
        });
        let report = MultiViewExperiment::new(cfg.generate().unwrap())
            .latency(LatencyModel::Constant(900))
            .seed(net_seed)
            .faults(faults)
            .transport_auto()
            .run()
            .unwrap();
        assert_dag_clean(&report, case, "link-faults");
    }
}

/// Warehouse state crashes with durability armed: recovery replays the
/// WAL's base installs and re-runs the cascade deterministically —
/// derived state (including Σ support multisets) must come back exact.
#[test]
fn dag_survives_warehouse_crashes_with_durability() {
    for case in 0..16u64 {
        let mut r = Rng64::new(0xDA6_4000 + case);
        let cfg = arb_dag(&mut r);
        let net_seed = r.next_u64();
        let scenario = cfg.generate().unwrap();
        // Crash mid-stream: the window opens inside the txn schedule.
        let last_at = scenario.txns.last().map(|t| t.at).unwrap_or(2_000);
        let down = last_at / 2;
        let up = down + r.u64_in(500, 3_000);

        let faulted = MultiViewExperiment::new(scenario.clone())
            .latency(LatencyModel::Constant(1_000))
            .seed(net_seed)
            .faults(FaultPlan::default().state_crash(WAREHOUSE_NODE, down, up))
            .transport_auto()
            .durability(1 + (case as usize % 3))
            .run()
            .unwrap();
        assert_dag_clean(&faulted, case, "crash");

        // Restart-equivalence for the stack: same final bags as the
        // fault-free run of the identical scenario.
        let clean = MultiViewExperiment::new(scenario)
            .latency(LatencyModel::Constant(1_000))
            .seed(net_seed)
            .run()
            .unwrap();
        assert_eq!(faulted.derived.len(), clean.derived.len(), "case {case}");
        for (a, b) in faulted.derived.iter().zip(clean.derived.iter()) {
            assert_eq!(
                a.view, b.view,
                "case {case}: derived '{}' diverged across the crash",
                a.name
            );
        }
    }
}
