//! **E21 — serve at scale**: the E19 maintenance load under a
//! point-heavy, zipf-skewed read schedule, answered twice — once by the
//! linear-scan read path (every point lookup walks the whole pinned
//! bag) and once through per-`(view, epoch)` point indexes with a
//! read-through answer cache in front. Cost is a deterministic work
//! proxy (tuples examined), never wall-clock, so the gated speedup is
//! byte-stable: the accelerated arm must clear **5×** on the skewed mix
//! while returning byte-identical answers, deep-copying a bag exactly
//! once per install (the freeze step — reads never copy), and leaving
//! the maintenance makespan equal to a no-reader referee. A third arm
//! runs one `max_lag = 1` bounded subscription per view under a
//! poll-heavy mix: overflowed subscribers get the typed `Lagged` signal,
//! resume from the snapshot at `resume_epoch` (the paper's Stale View
//! Cleaning move), and the audit proves each recovered stream equivalent
//! to the unbounded one.

use dw_bench::perf::{scale_read_mix, serve_scenario};
use dw_bench::TableWriter;
use dw_core::{audit_lag_recoveries, MultiViewExperiment};
use dw_workload::ReadMixConfig;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    let updates = args.pick(16, 48);
    let scenario = serve_scenario(updates);
    let views = scenario.views.len();
    println!(
        "serve at scale ({views} full-span SWEEP views over a 3-source chain, {updates}\n\
         updates; 6 readers of point lookups over a 64-key domain per mix;\n\
         linear-scan arm vs epoch point-indexes + 64-entry answer cache)\n"
    );

    let referee = MultiViewExperiment::new(scenario.clone()).run().unwrap();
    assert!(referee.quiescent, "referee did not drain");

    let mut t = TableWriter::new([
        "mix",
        "points",
        "linear work",
        "accel work",
        "speedup",
        "idx hits",
        "cache hit%",
        "clones",
        "installs",
        "identical",
    ]);
    for (mix, theta, floor) in [("hot-key-skew", 1.1, 5.0), ("uniform", 0.0, 1.0)] {
        let reads = scale_read_mix(args.smoke, views, theta);
        let points = reads
            .iter()
            .filter(|r| matches!(r.kind, dw_workload::ReadKind::Point { .. }))
            .count();
        let linear = MultiViewExperiment::new(scenario.clone())
            .baseline_subscriptions(true)
            .reads(reads.clone())
            .point_index(false)
            .run()
            .unwrap();
        let accel = MultiViewExperiment::new(scenario.clone())
            .baseline_subscriptions(true)
            .reads(reads)
            .answer_cache(64)
            .run()
            .unwrap();
        assert!(linear.quiescent && accel.quiescent, "{mix}: did not drain");
        let (linear_stats, accel_stats) = (
            &linear.serve.as_ref().expect("a serving run").serve_stats,
            &accel.serve.as_ref().expect("a serving run").serve_stats,
        );
        assert_eq!(
            accel.makespan(),
            referee.makespan(),
            "{mix}: accelerated readers perturbed maintenance"
        );
        assert_eq!(
            accel_stats.bags_deep_cloned, accel_stats.snapshots_published,
            "{mix}: the read path deep-copied a bag outside the freeze step"
        );
        let lw = linear_stats.read_work_tuples + linear_stats.index_maintenance_tuples;
        let aw = accel_stats.read_work_tuples + accel_stats.index_maintenance_tuples;
        let speedup = lw as f64 / aw.max(1) as f64;
        assert!(
            speedup >= floor,
            "{mix}: speedup {speedup:.2} below the {floor}x floor"
        );
        let lookups = accel_stats.cache_hits + accel_stats.cache_misses;
        t.row([
            mix.to_string(),
            points.to_string(),
            lw.to_string(),
            aw.to_string(),
            format!("{speedup:.1}x"),
            accel_stats.point_index_hits.to_string(),
            format!(
                "{:.0}%",
                100.0 * accel_stats.cache_hits as f64 / lookups.max(1) as f64
            ),
            accel_stats.bags_deep_cloned.to_string(),
            accel_stats.snapshots_published.to_string(),
            // The full byte-level comparison is gated in perf.rs; here a
            // cheap fingerprint keeps the demo honest.
            (linear_stats.reads_answered == accel_stats.reads_answered
                && linear_stats.reads_rejected == accel_stats.reads_rejected)
                .to_string(),
        ]);
    }
    t.print();

    println!("\nbackpressure arm (one max_lag=1 subscription per view, poll-heavy mix):\n");
    let lag_reads = ReadMixConfig {
        n_views: views,
        ..ReadMixConfig::laggy_subscribers(4, args.pick(10, 24), 0xE21)
    }
    .generate();
    let lagged = MultiViewExperiment::new(scenario.clone())
        .baseline_subscriptions(true)
        .reads(lag_reads)
        .bounded_subscriptions(1)
        .run()
        .unwrap();
    let audit = audit_lag_recoveries(&scenario, &lagged).unwrap();
    let mut t = TableWriter::new(["subs", "delivered", "lagged", "resumes", "equivalent"]);
    t.row([
        audit.subs.to_string(),
        audit.delivered.to_string(),
        audit.lag_events.to_string(),
        audit.resumes.to_string(),
        audit.clean().to_string(),
    ]);
    t.print();
    assert!(audit.lag_events >= 1, "backpressure never fired");
    assert!(audit.clean(), "a resumed stream diverged: {audit:?}");

    println!(
        "\npaper shape check: the warehouse's answer path must scale past the\n\
         view it maintains — a point query should touch the tuples it returns,\n\
         not the whole view, and a slow subscriber must not pin unbounded\n\
         delta queues. The epoch store makes both safe: indexes derive\n\
         per-epoch from the install delta (never a rescan), the cache keys on\n\
         the immutable (view, epoch, column, key), and a dropped subscriber\n\
         recovers by re-reading the snapshot at its resume epoch — the same\n\
         Stale View Cleaning move the paper uses for missed deltas."
    );
}
