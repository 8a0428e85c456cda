//! Cascaded-install ordering through the serving layer: when a base
//! view's install commits, its derived descendants' installs are
//! published in one deterministic, documented ticket order — the parent
//! first, then its children ascending by registry slot, depth-first —
//! and that order is what the `SubscriptionHub` fans out and what the
//! store's publication ledger records. The order must be identical
//! under the flat scheduler, the sharded scheduler's
//! `InstallSequencer`-sequenced releases, and crash-recovery replays.

use dwsweep::prelude::*;
use dwsweep::protocol::WAREHOUSE_NODE;

/// 4-source stream, two generated base views, and a handwritten
/// three-view stack over V0 — deliberately listed out of dependency
/// order ("busy" before its parent "counts") to exercise the
/// registry's order-independent resolution. Registration slots:
/// V0=0, V1=1, hot=2, counts=3, busy=4.
fn scenario(seed: u64) -> MultiViewScenario {
    let mut sc = MultiViewConfig {
        stream: StreamConfig {
            n_sources: 4,
            updates: 20,
            initial_per_source: 12,
            domain: 8,
            mean_gap: 500,
            keyed: true,
            seed,
            ..Default::default()
        },
        n_views: 2,
        view_seed: seed ^ 0xABCD,
        full_span: false,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap();
    sc.derived = vec![
        DerivedSpec {
            name: "busy".into(),
            parent: "counts".into(),
            op: DerivedOp::Select {
                selects: vec![(1, CmpOp::Ge, Value::Int(2))],
                projection: None,
            },
        },
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
                aggs: vec![AggFn::CountRows, AggFn::Sum(1)],
            }),
        },
    ];
    sc
}

/// A serving run with one baseline subscription per slot.
fn serving(sc: MultiViewScenario) -> MultiViewExperiment {
    MultiViewExperiment::new(sc).baseline_subscriptions(true)
}

fn served(report: &MultiViewReport) -> &ServeOutcome {
    report.serve.as_ref().expect("a serving run")
}

/// V0's cascade block in the documented order: the base install at slot
/// 0, then its children ascending by slot (hot=2, counts=3), and
/// counts's own child depth-first (busy=4).
const V0_BLOCK: [usize; 4] = [0, 2, 3, 4];

/// Check the publication ledger against the documented ticket order:
/// per-slot epochs contiguous from 1, and every slot-0 install followed
/// immediately by exactly its descendant block.
fn assert_documented_order(report: &MultiViewReport, arm: &str) {
    let log = &served(report).publication_log;
    assert!(!log.is_empty(), "{arm}: nothing published");

    // Per-slot epoch contiguity: the k-th publication of a slot is its
    // epoch k, and the ledger length matches the install logs exactly.
    let mut seen = vec![0u64; report.views.len() + report.derived.len()];
    for &(slot, epoch) in log {
        seen[slot] += 1;
        assert_eq!(
            epoch, seen[slot],
            "{arm}: slot {slot} published out of order"
        );
    }
    for (slot, &count) in seen.iter().enumerate() {
        let installs = report.installs_for_slot(slot).unwrap();
        assert_eq!(
            count as usize,
            installs.len(),
            "{arm}: slot {slot} ledger/install-log drift"
        );
    }

    // Block structure: a V0 install is immediately followed by its
    // descendants' installs — children ascending by slot, depth-first —
    // as one contiguous block; V1 (slot 1, no children) stands alone.
    let mut i = 0;
    while i < log.len() {
        match log[i].0 {
            0 => {
                let block: Vec<usize> = log[i..i + V0_BLOCK.len()].iter().map(|e| e.0).collect();
                assert_eq!(block, V0_BLOCK, "{arm}: cascade block broke at entry {i}");
                i += V0_BLOCK.len();
            }
            1 => i += 1,
            slot => panic!("{arm}: derived slot {slot} published outside a cascade block"),
        }
    }

    // Child epochs consume exactly what the parent consumed, 1:1.
    for d in &report.derived {
        let parent_slot = if d.parent == "V0" { 0 } else { 3 };
        let parent = report.installs_for_slot(parent_slot).unwrap();
        assert_eq!(d.installs.len(), parent.len(), "{arm}: '{}' epochs", d.name);
        for (mine, theirs) in d.installs.iter().zip(parent.iter()) {
            assert_eq!(mine.consumed, theirs.consumed, "{arm}: '{}'", d.name);
        }
    }
}

#[test]
fn flat_cascade_publishes_in_documented_ticket_order() {
    let report = serving(scenario(31)).run().unwrap();
    assert!(report.quiescent);
    assert!(report.derived_clean(), "derived diverged from oracle");
    assert_documented_order(&report, "flat");
    // The hub fanned every block out: each baseline subscription (base
    // and derived slots alike) replays its view's full install log.
    assert_eq!(
        served(&report).subscriptions.len(),
        5,
        "one baseline sub per slot"
    );
    assert!(report.subscriptions_match_installs());
    assert!(report.cascade.child_installs > 0, "cascade never fired");
}

#[test]
fn sharded_sequencer_releases_the_same_ticket_order() {
    let sc = scenario(32);
    let flat = serving(sc.clone()).run().unwrap();
    let sharded = serving(sc).sharded(ShardMap::hash(2)).run().unwrap();
    assert!(sharded.shard_stats.is_some() && sharded.quiescent);
    assert!(sharded.derived_clean());
    assert_documented_order(&sharded, "sharded");
    assert!(sharded.subscriptions_match_installs());
    // Sequenced per-shard lanes must release the exact flat order:
    // ticket order is arrival order, cascades ride each release.
    assert_eq!(
        served(&sharded).publication_log,
        served(&flat).publication_log,
        "sharded sequencer broke the flat ticket order"
    );
}

#[test]
fn crash_recovery_replays_never_reenter_the_ledger() {
    let sc = scenario(33);
    let crash_at = sc.txns[8].at;
    let report = serving(sc.clone())
        .durability(2)
        .transport_auto()
        .faults(FaultPlan::none().state_crash(WAREHOUSE_NODE, crash_at, crash_at + 2_000))
        .run()
        .unwrap();
    assert!(report.quiescent);
    assert!(report.derived_clean(), "derived state lost in the crash");
    assert_documented_order(&report, "crash");
    assert!(report.subscriptions_match_installs());
    // The crash arm engaged: recovery ran, and any WAL replays that
    // re-published pre-crash installs were swallowed by the store's
    // high-water mark without duplicating ledger entries (checked by the
    // contiguity sweep in `assert_documented_order` above).
    assert!(
        report.recovery.as_ref().unwrap().recoveries >= 1,
        "crash window produced no recovery — crash arm did not engage"
    );
    // Final derived bags equal the fault-free run's (restart equivalence
    // through the serving layer included).
    let clean = serving(sc).run().unwrap();
    for (a, b) in report.derived.iter().zip(clean.derived.iter()) {
        assert_eq!(a.view, b.view, "derived '{}' diverged across crash", a.name);
    }
    assert_eq!(
        served(&report).publication_log,
        served(&clean).publication_log
    );
}
