//! Restart-equivalence under hostile schedules: a warehouse that
//! *state-crashes* mid-run — volatile scheduler state lost, durable
//! checkpoint + sweep WAL intact — must recover to **exactly** the run a
//! fault-free warehouse would have produced: per view, the identical
//! final bag and the identical install fingerprint (consumed-update
//! sequences, in install order).
//!
//! Why that's achievable and not just hoped for: checkpoints are only
//! taken between sweeps, the WAL records a task's consumed set at
//! formation time, and a task leaves the durable pending queue only at
//! its atomic commit record — so replay always re-seeds an aborted
//! in-flight sweep with the *same* consumed set, and epoch fencing (at
//! the sources) plus a qid stale-floor (at the scheduler) shut out every
//! pre-crash query/answer straggler. See DESIGN.md §failure model.
//!
//! Schedules are sparse (constant 200 ms gaps) so each update's sweep —
//! even one interrupted by a crash window and re-driven through the
//! reliability transport's retransmissions — completes before the next
//! update arrives. That pins the install fingerprint to the injection
//! order on both the crashed and fault-free runs, making byte-for-byte
//! equivalence assertable across 128 seeded schedules × adversarial
//! crash placements (mid-hop, answer-in-flight, post-commit, pre-arrival)
//! under both Shared and Naive scheduling.
//!
//! `DW_FUZZ_SCHEDULES=<k>` multiplies the schedule count (`ci.sh --deep`
//! sets it; every failure message names the case seed for replay).

use dwsweep::prelude::*;
use dwsweep::protocol::UpdateId;
use dwsweep::warehouse::InstallRecord;

const SEED_BASE: u64 = 0xD0_0000;

/// Base schedule count, scaled by the `DW_FUZZ_SCHEDULES` multiplier.
fn cases(base: u64) -> u64 {
    std::env::var("DW_FUZZ_SCHEDULES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(base, |mult| base * mult.max(1))
}

/// Sparse multi-view scenario: 3 sources, 200 ms constant gaps, 1–3
/// random span views with random σ/Π/policies.
fn sparse_scenario(k: u64) -> MultiViewScenario {
    MultiViewConfig {
        stream: StreamConfig {
            n_sources: 3,
            initial_per_source: 15,
            domain: 8,
            updates: 4 + (k % 2) as usize,
            mean_gap: 200_000,
            gap: GapKind::Constant,
            keyed: true,
            seed: SEED_BASE + k,
            ..Default::default()
        },
        n_views: 1 + (k % 3) as usize,
        view_seed: k * 37 + 11,
        full_span: false,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap()
}

fn install_fingerprint(installs: &[InstallRecord]) -> Vec<Vec<UpdateId>> {
    installs.iter().map(|r| r.consumed.clone()).collect()
}

/// Adversarial state-crash window for case `k`, anchored on one chosen
/// update's warehouse arrival (`txn.at` + 1 ms link). With 1 ms constant
/// links a sweep hop is a 2 ms round trip, so the offsets place the
/// crash: before the update even arrives (retransmitted into the rebuilt
/// queue), just after task formation (first query in flight), mid-chain
/// (an answer in flight), and after the likely commit (recovery with
/// nothing pending). Window widths stay far below the 200 ms gap so the
/// transport re-drives everything before the next update.
fn crash_window(k: u64, txns: &[ScheduledTxn]) -> (Time, Time) {
    let anchor = txns[(k % txns.len() as u64) as usize].at;
    let offset = [0, 1_050, 2_500, 4_500, 15_000][(k % 5) as usize];
    let width = [800, 3_000, 50_000][(k % 3) as usize];
    let down_at = anchor + offset;
    (down_at, down_at + width)
}

fn run(scenario: &MultiViewScenario, k: u64, faults: FaultPlan) -> dwsweep::core::MultiViewReport {
    let mode = if k.is_multiple_of(2) {
        SchedulerMode::Shared
    } else {
        SchedulerMode::Naive
    };
    MultiViewExperiment::new(scenario.clone())
        .mode(mode)
        .seed(k)
        .faults(faults)
        .transport_auto()
        .durability(1 + (k % 4) as usize)
        .run()
        .unwrap()
}

/// The headline theorem: 128 seeded schedules × adversarial crash
/// placements, Shared and Naive alternating — crashed and fault-free
/// runs are install-fingerprint- and bag-identical, per view.
#[test]
fn state_crash_runs_match_fault_free_runs() {
    let mut crashes_fired = 0u64;
    let n_cases = cases(128);
    for k in 0..n_cases {
        let scenario = sparse_scenario(k);
        let (down_at, up_at) = crash_window(k, &scenario.txns);
        let mut plan = FaultPlan::default().state_crash(0, down_at, up_at);
        if k % 4 == 3 {
            // A second window later in the schedule: recovery must be
            // re-enterable, not a one-shot.
            let (d2, u2) = crash_window(k / 2 + 1, &scenario.txns);
            if d2 >= up_at || u2 <= down_at {
                plan = plan.state_crash(0, d2, u2);
            }
        }

        let clean = run(&scenario, k, FaultPlan::default());
        let crashed = run(&scenario, k, plan);

        assert!(clean.quiescent && crashed.quiescent, "case {k}");
        assert_eq!(clean.views.len(), crashed.views.len(), "case {k}");
        for (a, b) in clean.views.iter().zip(&crashed.views) {
            assert_eq!(
                a.view, b.view,
                "case {k}: view '{}' diverged after crash recovery",
                a.name
            );
            assert_eq!(
                install_fingerprint(&a.installs),
                install_fingerprint(&b.installs),
                "case {k}: view '{}' install fingerprints differ",
                a.name
            );
        }
        let recovery = crashed.recovery.expect("the flat engine reports recovery");
        assert_eq!(clean.recovery.unwrap().recoveries, 0, "case {k}");
        crashes_fired += recovery.recoveries;
        // Recovery accounting is self-consistent: replayed bytes only
        // exist if records were replayed.
        if recovery.wal_bytes_replayed > 0 {
            assert!(recovery.wal_records_replayed > 0, "case {k}");
        }
    }
    // The placements are adversarial, not decorative: the large majority
    // of cases must actually exercise a recovery.
    assert!(
        crashes_fired >= n_cases,
        "only {crashes_fired} recoveries across {n_cases} cases"
    );
}

/// An answer caught in flight by the crash window is retransmitted after
/// recovery and must be dropped by the qid stale-floor, not re-applied.
#[test]
fn stale_answers_are_fenced_by_the_qid_floor() {
    let mut seen_stale_drop = false;
    for k in 0..cases(16) {
        let scenario = sparse_scenario(k);
        // First update arrives at the warehouse at `at + 1_000`, its
        // first query answer lands at `at + 3_000`; a window over
        // [at+2_500, at+3_500] swallows the answer mid-flight, so the
        // transport re-delivers it only after recovery bumped the floor.
        let at = scenario.txns[0].at;
        let plan = FaultPlan::default().state_crash(0, at + 2_500, at + 3_500);
        let crashed = run(&scenario, k, plan);
        let clean = run(&scenario, k, FaultPlan::default());
        assert!(crashed.quiescent, "case {k}");
        for (a, b) in clean.views.iter().zip(&crashed.views) {
            assert_eq!(a.view, b.view, "case {k}: view '{}'", a.name);
        }
        seen_stale_drop |= crashed.recovery.unwrap().stale_answers_dropped > 0;
    }
    assert!(
        seen_stale_drop,
        "no schedule ever exercised the stale-answer floor"
    );
}

/// Durability without any crash must not change the run at all — same
/// bags, same fingerprints, same wire traffic as the undurable engine —
/// while actually checkpointing and journaling.
#[test]
fn durability_is_invisible_without_a_crash() {
    for k in 0..cases(8) {
        let scenario = sparse_scenario(0x100 + k);
        let plain = MultiViewExperiment::new(scenario.clone())
            .seed(k)
            .transport_auto()
            .run()
            .unwrap();
        let durable = MultiViewExperiment::new(scenario)
            .seed(k)
            .transport_auto()
            .durability(2)
            .run()
            .unwrap();
        assert!(plain.quiescent && durable.quiescent, "case {k}");
        assert_eq!(plain.events, durable.events, "case {k}: wire diverged");
        assert_eq!(plain.end_time, durable.end_time, "case {k}");
        for (a, b) in plain.views.iter().zip(&durable.views) {
            assert_eq!(a.view, b.view, "case {k}: view '{}'", a.name);
            assert_eq!(
                install_fingerprint(&a.installs),
                install_fingerprint(&b.installs),
                "case {k}"
            );
        }
        assert_eq!(durable.recovery, Some(Default::default()), "case {k}");
        assert!(durable.checkpoints_taken >= 1, "case {k}");
        assert!(durable.wal_bytes_written > 0, "case {k}");
        assert_eq!(plain.checkpoints_taken, 0, "case {k}");
    }
}

/// Shard-scoped crashes: a state-crash window confined to one shard of
/// the sharded warehouse aborts and re-seeds *that lane only*. The
/// other shards' sweeps must keep running straight through the window —
/// provably overlapping the re-seeded lane's recovery — and the
/// recovered run must still converge to the fault-free run's exact
/// per-view bags and install fingerprints, with every pre-crash answer
/// straggler fenced by the lane's fresh qids.
#[test]
fn shard_scoped_crashes_leave_surviving_shards_sweeping() {
    let mut stale_drops = 0u64;
    let mut reseeds = 0u64;
    let mut survivor_overlapped = false;
    let n_cases = cases(24);
    for k in 0..n_cases {
        let shards = if k.is_multiple_of(2) { 2 } else { 4 };
        let generated = ShardedConfig {
            n_sources: 3,
            shards,
            updates: 12,
            mean_gap: 300,
            seed: SEED_BASE + 0x300 + k,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let target = (k as usize) % shards;
        // Anchor mid-run: with 1 ms links an update injected at `at`
        // reaches the warehouse at `at + 1_000` and its first answers
        // land at `at + 3_000`, so these offsets put `up_at` just after
        // lane formation, mid-chain with an answer in flight, and near
        // the likely commit.
        let anchor = generated.scenario.txns[(4 + k % 4) as usize].at;
        let down_at = anchor + [1_050, 2_500, 3_500][(k % 3) as usize];
        let up_at = down_at + [400, 900, 1_600][(k % 3) as usize];
        let plan = FaultPlan::default().state_crash_shard(0, down_at, up_at, target);

        let clean = MultiViewExperiment::new(generated.scenario.clone())
            .sharded(generated.map.clone())
            .seed(k)
            .run()
            .unwrap();
        let crashed = MultiViewExperiment::new(generated.scenario)
            .sharded(generated.map)
            .seed(k)
            .faults(plan)
            .run()
            .unwrap();

        assert!(clean.quiescent && crashed.quiescent, "case {k}");
        let stats = crashed.shard_stats.as_ref().expect("a sharded run");
        assert_eq!(stats.shard_crashes, 1, "case {k}");
        assert_eq!(
            crashed.install_fingerprint(),
            clean.install_fingerprint(),
            "case {k}: shard {target} crash perturbed the install order"
        );
        for (a, b) in clean.views.iter().zip(&crashed.views) {
            assert_eq!(
                a.view, b.view,
                "case {k}: view '{}' diverged after a shard-{target} crash",
                a.name
            );
        }
        stale_drops += stats.stale_answers_dropped;
        reseeds += stats.sweeps_reseeded;
        // Survivors keep sweeping: the re-seeded lane re-issues its
        // queries at `up_at` and cannot complete before one full 2 ms
        // round trip, so any lane completion inside (up_at, up_at+2ms)
        // belongs to a *different* shard still making progress.
        survivor_overlapped |= stats
            .completions
            .iter()
            .any(|&(_, at)| at > up_at && at < up_at + 2_000);
    }
    assert!(
        reseeds > 0,
        "no window ever caught a lane in flight across {n_cases} cases"
    );
    assert!(
        stale_drops > 0,
        "no crashed lane ever had an answer fenced by its fresh qids"
    );
    assert!(
        survivor_overlapped,
        "no surviving shard ever completed a sweep during another shard's recovery"
    );
}

/// The generated warehouse state-crash schedules from dw-workload's
/// fault-scenario family also recover to the fault-free outcome. Crash
/// placement here is random rather than anchored, and a window can
/// stretch past an inter-arrival gap — stalled updates from different
/// sources may then be re-delivered in either order, legitimately
/// permuting the install fingerprint — so this test asserts the
/// convergence guarantee only: identical final bags per view.
#[test]
fn generated_state_crash_schedules_recover() {
    for k in 0..cases(16) {
        let scenario = sparse_scenario(0x200 + k);
        let horizon = scenario.txns.last().unwrap().at + 50_000;
        let plan = FaultScenarioConfig {
            n_nodes: 4,
            max_drop_rate: 0.0,
            max_dup_rate: 0.0,
            max_reorder_rate: 0.0,
            partitions: 0,
            crashes: 0,
            state_crashes: 1 + (k % 2) as usize,
            horizon,
            ..Default::default()
        }
        .generate(k);
        let clean = run(&scenario, k, FaultPlan::default());
        let crashed = run(&scenario, k, plan);
        assert!(crashed.quiescent, "case {k}");
        for (a, b) in clean.views.iter().zip(&crashed.views) {
            assert_eq!(a.view, b.view, "case {k}: view '{}'", a.name);
        }
    }
}
