//! **E19 — the serving layer**: attach a snapshot-pinned read frontend to
//! the multi-view maintenance engine and drive seeded point/scan/subscribe
//! mixes against it while the sweeps run. Every committed install becomes
//! an immutable epoch; readers pin an epoch, answer from it, and unpin —
//! so the gated claims are exact: the maintenance makespan and message
//! bill are bit-identical to a no-reader referee run (readers never block
//! installs), every answered read equals a fresh recompute of its view at
//! the pinned epoch, and every staleness-bound rejection matches the
//! delivery-ledger oracle. A second table re-runs the scenario on real OS
//! threads (the livenet runtime) with free-running reader threads:
//! nondeterministic, so the assertions there are torn-read absence and
//! subscription/install agreement, not traces.

use dw_bench::perf::{serve_read_mix, serve_scenario};
use dw_bench::TableWriter;
use dw_core::{audit_reads, MultiViewExperiment};
use dw_livenet::run_live_multiview;
use std::time::Duration;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    let updates = args.pick(16, 48);
    let reads_hint = args.pick(8, 20) * 4;

    let scenario = serve_scenario(updates);
    let views = scenario.views.len();
    println!(
        "serving layer ({views} full-span SWEEP views over a 3-source chain, {updates}\n\
         updates; ~{reads_hint} concurrent reads per mix, half carrying a 2.5 ms\n\
         staleness bound; no-reader run as the interference referee)\n"
    );

    let referee = MultiViewExperiment::new(scenario.clone()).run().unwrap();
    assert!(referee.quiescent, "referee did not drain");

    let mut t = TableWriter::new([
        "mix",
        "reads",
        "answered",
        "rejected",
        "oracle rej",
        "read qps",
        "makespan (ms)",
        "ref (ms)",
        "msgs/upd",
        "snapshots",
        "exact",
    ]);
    let mixes: [(&str, f64, f64); 2] = [("point-heavy", 0.8, 0.15), ("scan-heavy", 0.15, 0.8)];
    for (mix, point_frac, scan_frac) in mixes {
        let reads = serve_read_mix(args.smoke, views, point_frac, scan_frac);
        let report = MultiViewExperiment::new(scenario.clone())
            .baseline_subscriptions(true)
            .reads(reads)
            .run()
            .unwrap();
        assert!(report.quiescent, "{mix}: run did not drain");
        assert_eq!(
            report.makespan(),
            referee.makespan(),
            "{mix}: readers perturbed the maintenance makespan"
        );
        let audit = audit_reads(&scenario, &report).unwrap();
        t.row([
            mix.to_string(),
            audit.reads.to_string(),
            audit.answered.to_string(),
            audit.rejected.to_string(),
            audit.expected_rejected.to_string(),
            format!(
                "{:.0}",
                audit.answered as f64 * 1e6 / report.end_time.max(1) as f64
            ),
            format!("{:.1}", report.makespan() as f64 / 1_000.0),
            format!("{:.1}", referee.makespan() as f64 / 1_000.0),
            format!("{:.1}", report.messages_per_update()),
            report
                .serve
                .as_ref()
                .map_or(0, |s| s.serve_stats.snapshots_published)
                .to_string(),
            (audit.clean() && report.subscriptions_match_installs()).to_string(),
        ]);
    }
    t.print();

    println!("\nlivenet arm (same scenario on OS threads, 4 free-running readers):\n");
    let mut t = TableWriter::new(["readers", "answered", "torn", "subs ok", "wall (ms)"]);
    let live = run_live_multiview(&scenario, None, 4, 20.0, Duration::from_secs(60)).unwrap();
    let wall = live.wall;
    let live = live.serve.expect("live readers attach a frontend");
    assert_eq!(live.torn_reads, 0, "livenet readers saw a torn epoch");
    t.row([
        "4".to_string(),
        live.reads_answered.to_string(),
        live.torn_reads.to_string(),
        live.subs_match_installs.to_string(),
        format!("{:.1}", wall.as_secs_f64() * 1_000.0),
    ]);
    t.print();

    println!(
        "\npaper shape check: the paper's warehouse answers analyst queries from\n\
         the same view the sweeps are patching; pinning each committed install\n\
         as an immutable epoch decouples the two — readers get a consistent\n\
         cut (fresh-recompute fidelity at their epoch) and bounded staleness\n\
         on demand, while the maintenance engine never waits on a lock a\n\
         reader holds. Interference is provably zero: the makespan under\n\
         readers is the referee's, to the microsecond."
    );
}
