//! **E18 — sharded scaling**: partition each base relation into `S`
//! value bands and run `S` per-shard sweep lanes concurrently, funneling
//! every install through one global sequencer. The same logical load —
//! identical source count, update count and arrival gaps — replays at
//! `S ∈ {1, 2, 4}`; the virtual-time makespan (last install minus first
//! arrival, deterministic and machine-independent) must fall near-
//! linearly, while every shard-local sweep still pays the paper's exact
//! `2(n−1)` messages and the install sequence stays byte-identical to
//! the unsharded engine's. A second table re-runs the `S`-way scenarios
//! on real OS threads (the livenet runtime) as a wall-clock sanity arm:
//! nondeterministic, so only convergence and the scheduler's own
//! counters are asserted there.

use dw_bench::perf::sharded_scenario;
use dw_bench::TableWriter;
use dw_core::MultiViewExperiment;
use dw_livenet::run_live_multiview;
use std::time::Duration;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    let updates = args.pick(24, 64);
    let shard_counts: [usize; 3] = [1, 2, 4];

    println!(
        "sharded scaling (3-source chain, 2 full-span SWEEP views, {updates} shard-local\n\
         updates 300 µs apart; virtual-time makespan, unsharded engine as referee)\n"
    );
    let mut t = TableWriter::new([
        "S",
        "makespan (ms)",
        "speedup",
        "floor",
        "msgs/upd",
        "max lanes",
        "escalations",
        "conforms",
    ]);

    let mut base_makespan = 0u64;
    for &s in &shard_counts {
        let generated = sharded_scenario(s, updates);
        let sharded = MultiViewExperiment::new(generated.scenario.clone())
            .sharded(generated.map)
            .run()
            .unwrap();
        let flat = MultiViewExperiment::new(generated.scenario).run().unwrap();
        assert!(sharded.quiescent && flat.quiescent, "S={s}: no drain");
        let shard_stats = sharded.shard_stats.as_ref().expect("a sharded run");
        let conforms = sharded.install_fingerprint() == flat.install_fingerprint()
            && sharded
                .views
                .iter()
                .zip(&flat.views)
                .all(|(a, b)| a.view == b.view);
        let makespan = sharded.makespan();
        if s == 1 {
            base_makespan = makespan;
        }
        let speedup = base_makespan as f64 / makespan as f64;
        t.row([
            s.to_string(),
            format!("{:.1}", makespan as f64 / 1_000.0),
            format!("{speedup:.2}"),
            format!("{:.2}", if s == 1 { 1.0 } else { 0.7 * s as f64 }),
            format!("{:.1}", sharded.messages_per_update()),
            shard_stats.max_concurrent_lanes.to_string(),
            shard_stats.escalations.to_string(),
            conforms.to_string(),
        ]);
    }
    t.print();

    println!("\nlivenet arm (same scenarios on OS threads; wall-clock, nondeterministic):\n");
    let mut t = TableWriter::new(["S", "wall (ms)", "max lanes", "quiescent"]);
    for &s in &shard_counts {
        let generated = sharded_scenario(s, updates);
        let live = run_live_multiview(
            &generated.scenario,
            Some(generated.map),
            0,
            50.0,
            Duration::from_secs(60),
        )
        .unwrap();
        t.row([
            s.to_string(),
            format!("{:.1}", live.wall.as_secs_f64() * 1_000.0),
            live.shard_stats
                .map_or(0, |s| s.max_concurrent_lanes)
                .to_string(),
            live.quiescent.to_string(),
        ]);
    }
    t.print();

    println!(
        "\npaper shape check: the paper's SWEEP serializes updates through one\n\
         warehouse queue; banding the sources by value gives S provably\n\
         non-interfering queues, so S sweeps run at once — the makespan falls\n\
         near-linearly while the message bill per update and the install order\n\
         are exactly the single-engine ones. Concurrency is invisible\n\
         downstream; it only shows up in the clock."
    );
}
