//! Golden install ledgers: fixed seeds × a spread of multi-view engine
//! configurations (flat Shared/Naive, batching, σ pushdown, a durable
//! warehouse state crash, S=2/S=4 sharding, a shard-scoped crash, serve
//! runs with bounded subscriptions, a derived-view stack). Each run's
//! observable maintenance outcome — per-view install fingerprints and
//! final-bag digests, query messages, end time, event count and, for
//! serve runs, every read's `(epoch, answer digest)` — is rendered as
//! text and compared byte-for-byte against the committed fixture
//! `tests/fixtures/golden_ledgers.txt`.
//!
//! The fixture is a referee, not a snapshot to refresh: a diff means the
//! engine's behaviour moved. On mismatch the rendered ledger is written
//! next to the test binary's scratch directory for inspection.

use dwsweep::prelude::*;
use dwsweep::protocol::WAREHOUSE_NODE;
use std::fmt::Write as _;

const SEEDS: [u64; 2] = [5, 9];

/// FNV-1a over a string — a stable, dependency-free digest.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Order-independent digest of a bag (`Bag` wraps a hash map, so hash
/// its sorted contents).
fn bag_digest(b: &Bag) -> String {
    format!("{:016x}", fnv(&format!("{:?}", b.to_sorted_vec())))
}

fn fingerprint(installs: &[dwsweep::warehouse::InstallRecord]) -> String {
    installs
        .iter()
        .map(|r| {
            let ids: Vec<String> = r
                .consumed
                .iter()
                .map(|id| format!("{}.{}", id.source, id.seq))
                .collect();
            format!("[{}]", ids.join(","))
        })
        .collect::<Vec<_>>()
        .join("")
}

fn answer_digest(r: &ReadResult) -> String {
    let text = match r {
        ReadResult::Point {
            multiplicity,
            matches,
        } => format!("point {multiplicity} {matches:?}"),
        ReadResult::Scan { bag } => format!("scan {:?}", bag.to_sorted_vec()),
        ReadResult::Rejected {
            required,
            freshest_admissible,
        } => format!("rejected {required} {freshest_admissible:?}"),
        ReadResult::Subscribed { sub } => format!("subscribed {sub}"),
        ReadResult::Polled { delivered, resumed } => format!("polled {delivered} {resumed}"),
    };
    format!("{:016x}", fnv(&text))
}

/// Run one configuration and render its ledger block.
fn render(out: &mut String, label: &str, seed: u64, exp: MultiViewExperiment) {
    let r = exp.run().unwrap();
    assert!(r.quiescent, "{label} seed={seed}: run did not drain");
    writeln!(out, "== {label} seed={seed}").unwrap();
    writeln!(
        out,
        "query_messages={} end_time={} events={}",
        r.query_messages(),
        r.end_time,
        r.events
    )
    .unwrap();
    for v in &r.views {
        writeln!(
            out,
            "view {} bag={} installs={}",
            v.name,
            bag_digest(&v.view),
            fingerprint(&v.installs)
        )
        .unwrap();
    }
    for d in &r.derived {
        writeln!(
            out,
            "derived {} bag={} installs={}",
            d.name,
            bag_digest(&d.view),
            fingerprint(&d.installs)
        )
        .unwrap();
    }
    for (i, read) in r.serve.iter().flat_map(|s| &s.reads).enumerate() {
        writeln!(
            out,
            "read {i} epoch={} answer={}",
            read.epoch,
            answer_digest(&read.result)
        )
        .unwrap();
    }
}

fn multiview_scenario(seed: u64, n_derived: usize) -> MultiViewScenario {
    MultiViewConfig {
        stream: StreamConfig {
            n_sources: 4,
            updates: 20,
            initial_per_source: 12,
            domain: 8,
            mean_gap: 500,
            seed,
            ..Default::default()
        },
        n_views: 3,
        view_seed: seed ^ 0xABCD,
        full_span: false,
        n_derived,
        derived_seed: seed ^ 0xD0D0,
    }
    .generate()
    .unwrap()
}

fn sharded_scenario(shards: usize, seed: u64) -> ShardedScenario {
    ShardedConfig {
        n_sources: 3,
        shards,
        updates: 18,
        mean_gap: 300,
        seed,
        ..Default::default()
    }
    .generate()
    .unwrap()
}

fn serve_reads(n_views: usize, seed: u64) -> Vec<ReadOp> {
    ReadMixConfig {
        n_views,
        ..ReadMixConfig::laggy_subscribers(4, 12, seed)
    }
    .generate()
}

/// A generated sharded scenario on its own partitioner.
fn sharded(generated: ShardedScenario) -> MultiViewExperiment {
    MultiViewExperiment::new(generated.scenario).sharded(generated.map)
}

/// Every configuration × seed, rendered in a fixed order.
fn ledgers() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        let sc = multiview_scenario(seed, 0);
        render(
            &mut out,
            "flat-shared",
            seed,
            MultiViewExperiment::new(sc.clone()),
        );
        render(
            &mut out,
            "flat-naive",
            seed,
            MultiViewExperiment::new(sc.clone()).mode(SchedulerMode::Naive),
        );
        render(
            &mut out,
            "flat-batch3",
            seed,
            MultiViewExperiment::new(sc.clone()).batch(3),
        );
        render(
            &mut out,
            "flat-pushdown",
            seed,
            MultiViewExperiment::new(sc.clone()).pushdown(true),
        );
        let crash_at = sc.txns[8].at;
        render(
            &mut out,
            "flat-durable-crash",
            seed,
            MultiViewExperiment::new(sc.clone())
                .durability(2)
                .transport_auto()
                .faults(FaultPlan::none().state_crash(WAREHOUSE_NODE, crash_at, crash_at + 2_000)),
        );
        render(
            &mut out,
            "flat-derived-stack",
            seed,
            MultiViewExperiment::new(multiview_scenario(seed, 4)),
        );

        for shards in [2usize, 4] {
            render(
                &mut out,
                &format!("sharded-s{shards}"),
                seed,
                sharded(sharded_scenario(shards, seed)),
            );
        }
        let generated = sharded_scenario(2, seed);
        let crash_at = generated.scenario.txns[6].at;
        render(
            &mut out,
            "sharded-s2-shard-crash",
            seed,
            sharded(generated).faults(FaultPlan::none().state_crash_shard(
                WAREHOUSE_NODE,
                crash_at,
                crash_at + 1_200,
                0,
            )),
        );

        let reads = serve_reads(sc.views.len(), seed);
        render(
            &mut out,
            "serve-bounded",
            seed,
            MultiViewExperiment::new(sc.clone())
                .baseline_subscriptions(true)
                .reads(reads.clone())
                .bounded_subscriptions(1),
        );
        render(
            &mut out,
            "serve-bounded-s2",
            seed,
            MultiViewExperiment::new(sc.clone())
                .baseline_subscriptions(true)
                .sharded(ShardMap::hash(2))
                .reads(reads)
                .bounded_subscriptions(1),
        );
    }
    out
}

#[test]
fn install_ledgers_match_the_committed_fixture() {
    let expected = include_str!("fixtures/golden_ledgers.txt");
    let actual = ledgers();
    if actual != expected {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_ledgers.txt");
        std::fs::write(&path, &actual).unwrap();
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "install ledgers diverged from the fixture at line {} (rendered ledger written to {})",
            first_diff + 1,
            path.display()
        );
    }
}
