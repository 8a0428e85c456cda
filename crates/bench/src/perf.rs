//! The perf-report / perf-gate pipeline.
//!
//! [`collect`] re-runs the ten invariant-bearing experiments —
//! **E1** (Table 1 algorithm comparison), **E6** (SWEEP's `2(n−1)` message
//! linearity), **E12** (reliable-FIFO earned under faults), **E14**
//! (shared-sweep cost independent of view count), **E15**
//! (cross-update batching amortizes the sweep over queued same-source
//! updates), **E16** (σ query pushdown shrinks the answers selective
//! views pull off the wire), **E17** (crash recovery: a warehouse
//! state crash replays checkpoint + WAL back to the fault-free run),
//! **E18** (sharded scaling: S per-shard sweep lanes cut the maintenance
//! makespan near-linearly while installing in the unsharded order) and
//! **E19** (serving layer: snapshot-pinned reads answer at fresh-recompute
//! fidelity, reject staleness bounds exactly per the delivery-ledger
//! oracle, and never perturb the maintenance engine they read from) and
//! **E20** (maintenance DAG: view-over-view stacks are fed locally by the
//! parent's committed install delta — the source-message bill is paid
//! once at the base layer, children cost exactly zero source messages,
//! identical sibling derivations share one evaluation, and every derived
//! view matches a fresh recompute over its parent at every install
//! epoch) — and condenses each into typed rows: messages per update, installs,
//! staleness percentiles, consistency level, plus wall-clock per phase.
//! The result serializes to `BENCH_report.json` (see [`crate::json`]),
//! which is committed as the baseline the CI gate diffs against.
//!
//! [`gate`] is the pure checker the `perf_gate` binary (and its tests)
//! run over a `(baseline, fresh)` pair. It fails on:
//!
//! * **invariant breaks** in the fresh run — any E18 row whose
//!   shard-local sweeps leave the `2(n−1)` line, escalate, diverge from
//!   the unsharded engine's install sequence, or scale worse than
//!   `0.7·S`, any E6 row off the exact
//!   `2(n−1)` line, any E12 row that is not `complete` and quiescent or
//!   whose *logical* messages per update leave `2(n−1)`, any E14 row
//!   whose shared sweep leaves the `2(n−1)` line (it must not scale with
//!   view count) or whose naive baseline leaves `V·2(n−1)`, any E15 row
//!   whose sweep count under a saturated same-source queue leaves the
//!   exact `1 + ⌈(U−1)/k⌉` batching schedule or whose message cost rises
//!   with the batch width, any E16 row where pushdown ships *more*
//!   answer bytes than the unpushed run, changes the query/answer hop
//!   count, or fails to show a reduction on the selective workload, any
//!   E17 row whose crashed run fails to recover to the fault-free bags
//!   and fingerprints, whose recovery staleness spike leaves the recorded
//!   bound, or whose replayed WAL bytes fail to grow monotonically with
//!   the checkpoint interval, any E19 row whose maintenance makespan or
//!   message cost moves at all under concurrent readers, whose answered
//!   reads diverge from a fresh recompute at their pinned epoch, or
//!   whose staleness rejections disagree with the delivery-ledger
//!   oracle, any E20 row whose base bill leaves the exact `2(n−1)` line,
//!   whose derived maintenance adds even one source message over the
//!   stack-free referee, whose sibling memo stops sharing, or whose
//!   derived views diverge from the fresh-recompute oracle;
//! * **consistency downgrades** — a row whose verified consistency level
//!   is weaker than the committed baseline's;
//! * **>25 % regressions on tracked ratios** — messages/update and
//!   staleness p95 (higher is worse), installs (lower is worse), wire
//!   inflation under faults (higher is worse).
//!
//! Wall-clock numbers are recorded but deliberately **not** gated: the
//! simulator is deterministic in virtual time, while host time depends on
//! the machine. Everything the gate enforces is exact.

use crate::json::{self, Json};
use dw_core::{
    audit_lag_recoveries, audit_reads, Experiment, MultiViewExperiment, MultiViewReport,
    PolicyKind, RunReport,
};
use dw_multiview::SchedulerMode;
use dw_relational::{AggFn, AggregateSpec, CmpOp, Value};
use dw_simnet::{FaultPlan, LatencyModel, LinkFaults};
use dw_workload::{
    DerivedOp, DerivedSpec, MultiViewConfig, ReadMixConfig, ShardedConfig, StreamConfig, ViewSpec,
};
use std::collections::BTreeSet;
use std::time::Instant;

/// Schema version stamped into the report; bump when row fields change.
/// v2 added the E14 multi-view block; v3 the E15 cross-update batching
/// block; v4 the E16 σ-pushdown block; v5 the E17 crash-recovery block;
/// v6 the E18 sharded-scaling block; v7 the E19 serving block; v8 the
/// E20 maintenance-DAG block; v9 the E21 serve-at-scale block (point
/// indexes, answer cache, subscriber backpressure).
pub const SCHEMA_VERSION: u64 = 9;

/// Relative regression tolerance on tracked ratios (25 %).
pub const RATIO_TOLERANCE: f64 = 0.25;

/// Tolerance for "exact" float comparisons after a JSON round trip.
const EXACT_EPS: f64 = 1e-9;

/// One algorithm row of the E1 (Table 1) phase.
#[derive(Clone, Debug, PartialEq)]
pub struct E1Row {
    /// Algorithm name as printed in Table 1.
    pub policy: String,
    /// Verified consistency level ("complete", "strong", …).
    pub consistency: String,
    /// Query/answer messages per processed update.
    pub msgs_per_update: f64,
    /// Number of view installs.
    pub installs: u64,
    /// Updates the warehouse processed.
    pub updates: u64,
    /// Local (warehouse-side) compensations.
    pub local_compensations: u64,
    /// Compensating queries sent to sources.
    pub compensation_queries: u64,
    /// Staleness percentiles, µs from delivery to install.
    pub stale_p50_us: u64,
    /// 95th percentile staleness (µs).
    pub stale_p95_us: u64,
    /// 99th percentile staleness (µs).
    pub stale_p99_us: u64,
}

/// One chain-length row of the E6 (message linearity) phase.
#[derive(Clone, Debug, PartialEq)]
pub struct E6Row {
    /// Number of data sources in the chain.
    pub n: u64,
    /// The paper's exact prediction: `2(n−1)`.
    pub expected_msgs_per_update: f64,
    /// Measured messages/update with sparse (non-interfering) updates.
    pub sparse_msgs_per_update: f64,
    /// Measured messages/update with dense (interfering) updates.
    pub dense_msgs_per_update: f64,
    /// Local compensations in the dense run.
    pub dense_compensations: u64,
    /// Verified consistency level of the dense run.
    pub consistency: String,
}

/// One loss-rate row of the E12 (faults + transport) phase.
#[derive(Clone, Debug, PartialEq)]
pub struct E12Row {
    /// Link loss probability in percent.
    pub loss_pct: f64,
    /// Logical (send-once) query/answer messages per update.
    pub logical_msgs_per_update: f64,
    /// The invariant the row must pin to: `2(n−1)`.
    pub expected_msgs_per_update: f64,
    /// Physical wire messages over logical messages (≥ 1).
    pub inflation: f64,
    /// Verified consistency level.
    pub consistency: String,
    /// Whether the run drained to quiescence.
    pub quiescent: bool,
    /// Staleness percentiles, µs from delivery to install.
    pub stale_p50_us: u64,
    /// 95th percentile staleness (µs).
    pub stale_p95_us: u64,
    /// 99th percentile staleness (µs).
    pub stale_p99_us: u64,
}

/// One view-count row of the E14 (multi-view shared sweep) phase.
#[derive(Clone, Debug, PartialEq)]
pub struct E14Row {
    /// Number of registered full-span views.
    pub views: u64,
    /// Number of data sources in the base chain.
    pub n: u64,
    /// The shared-sweep prediction: `2(n−1)`, independent of `views`.
    pub expected_shared: f64,
    /// Measured messages/update in shared mode.
    pub shared_msgs_per_update: f64,
    /// The naive prediction: `V·2(n−1)`.
    pub expected_naive: f64,
    /// Measured messages/update with one dedicated sweep per view.
    pub naive_msgs_per_update: f64,
    /// naive / shared — the amortization factor (≈ `views`).
    pub sharing_ratio: f64,
    /// Weakest per-view consistency level in the shared run.
    pub min_consistency: String,
    /// Cross-view mutual consistency held at the end of the shared run.
    pub mutual_agreement: bool,
    /// Staleness percentiles across all views, µs delivery → install.
    pub stale_p50_us: u64,
    /// 95th percentile staleness (µs).
    pub stale_p95_us: u64,
    /// 99th percentile staleness (µs).
    pub stale_p99_us: u64,
}

/// One batch-width row of the E15 (cross-update batching) phase.
///
/// The workload saturates the warehouse queue with updates from a single
/// mid-chain source (burst arrivals far faster than a sweep round trip),
/// so the sweep count is fully determined: the first update sweeps alone
/// and every later sweep folds exactly `k` queued updates —
/// `1 + ⌈(U−1)/k⌉` sweeps for `U` updates, messages/update falling toward
/// the `2(n−1)/k` amortization floor as `k` grows.
#[derive(Clone, Debug, PartialEq)]
pub struct E15Row {
    /// Batch width `k` (1 = batching off).
    pub batch: u64,
    /// Number of data sources in the base chain.
    pub n: u64,
    /// Burst updates the warehouse processed (`U`).
    pub updates: u64,
    /// Shared sweeps actually run (= installs per view).
    pub sweeps: u64,
    /// The exact prediction: `2(n−1) · (1 + ⌈(U−1)/k⌉) / U`.
    pub expected_msgs_per_update: f64,
    /// Measured query/answer messages per update.
    pub msgs_per_update: f64,
    /// The steady-state amortization floor: `2(n−1)/k`.
    pub amortized_floor: f64,
    /// Weakest per-view consistency level.
    pub min_consistency: String,
    /// Cross-view mutual consistency held at the end of the run.
    pub mutual_agreement: bool,
    /// Whether the run drained to quiescence.
    pub quiescent: bool,
    /// Staleness percentiles across all views, µs delivery → install.
    pub stale_p50_us: u64,
    /// 95th percentile staleness (µs).
    pub stale_p95_us: u64,
    /// 99th percentile staleness (µs).
    pub stale_p99_us: u64,
}

/// One selectivity row of the E16 (σ query pushdown) phase.
///
/// Each row runs the *same* seeded multi-view scenario twice — pushdown
/// off, then on — and compares the wire. Pushdown is a transport
/// optimization, so the hop structure is pinned (identical query/answer
/// message counts) and the answers can only shrink; on the selective
/// workload they *must* shrink, and on the σ-free control the two runs
/// must be byte-identical.
#[derive(Clone, Debug, PartialEq)]
pub struct E16Row {
    /// Workload label: "none" (σ-free control), "keep-all" (a pushed σ
    /// every tuple satisfies) or "selective" (σ keeps a small fraction).
    pub label: String,
    /// Number of data sources in the base chain.
    pub n: u64,
    /// Number of registered views.
    pub views: u64,
    /// Updates the warehouse processed.
    pub updates: u64,
    /// Query/answer messages without pushdown.
    pub query_msgs_plain: u64,
    /// Query/answer messages with pushdown — must equal the plain count.
    pub query_msgs_pushed: u64,
    /// Query bytes without pushdown.
    pub query_bytes_plain: u64,
    /// Query bytes with pushdown (partials shrink, predicates ride along).
    pub query_bytes_pushed: u64,
    /// Answer bytes without pushdown — the tuples-on-wire baseline.
    pub answer_bytes_plain: u64,
    /// Answer bytes with pushdown — never more than the plain run.
    pub answer_bytes_pushed: u64,
    /// `100·(plain − pushed)/plain` answer-byte reduction (0 when the
    /// plain run shipped nothing).
    pub answer_reduction_pct: f64,
    /// Weakest per-view consistency level across *both* runs.
    pub min_consistency: String,
    /// Cross-view mutual consistency held in both runs.
    pub mutual_agreement: bool,
    /// Both runs drained to quiescence.
    pub quiescent: bool,
}

/// One checkpoint-interval row of the E17 (crash recovery) phase.
///
/// Each row runs the *same* seeded sparse multi-view scenario twice —
/// fault-free, then with a warehouse state-crash window interrupting the
/// last update's sweep mid-hop — with durable checkpoints every
/// `checkpoint_every` sweep commits. Recovery replays checkpoint + WAL,
/// re-seeds the aborted sweep, and must land on the fault-free run's
/// exact per-view bags and install fingerprints. Rows are ordered by
/// rising `checkpoint_every`, so replayed WAL bytes must rise
/// monotonically down the table (rarer checkpoints ⇒ longer replay).
#[derive(Clone, Debug, PartialEq)]
pub struct E17Row {
    /// Durable checkpoint cadence (sweep commits per checkpoint).
    pub checkpoint_every: u64,
    /// Number of data sources in the base chain.
    pub n: u64,
    /// Number of registered views.
    pub views: u64,
    /// Updates the warehouse processed.
    pub updates: u64,
    /// Crashed run matched the fault-free run: per-view bags and install
    /// fingerprints identical, both runs drained.
    pub converged: bool,
    /// State-crash recoveries the scheduler performed (≥ 1 by design).
    pub recoveries: u64,
    /// WAL records replayed across all recoveries.
    pub wal_records_replayed: u64,
    /// Modeled WAL bytes replayed across all recoveries.
    pub wal_bytes_replayed: u64,
    /// In-flight sweeps aborted by the crash and re-seeded from the
    /// durable pending queue.
    pub sweeps_reseeded: u64,
    /// Pre-crash answers fenced off by the post-recovery qid floor.
    pub stale_answers_dropped: u64,
    /// Durable checkpoints taken over the crashed run.
    pub checkpoints_taken: u64,
    /// Total modeled WAL bytes appended over the crashed run.
    pub wal_bytes_written: u64,
    /// Extra virtual time the crashed run needed to drain, vs the
    /// fault-free run (µs) — the recovery latency.
    pub recovery_latency_us: u64,
    /// Worst install staleness in the crashed run (µs).
    pub stale_max_us: u64,
    /// The recorded staleness budget: fault-free worst case + crash
    /// window + retransmission allowance (µs). The spike must stay under
    /// it.
    pub stale_bound_us: u64,
    /// Both runs drained to quiescence.
    pub quiescent: bool,
}

/// One shard-count row of the E18 (sharded scaling) phase.
///
/// Every row replays the *same* logical load — identical source count,
/// update count and arrival gaps, seeded identically — banded for `S`
/// shards, and runs it through the sharded scheduler. The `shards = 1`
/// row is the serialization baseline the speedups divide. Makespan is
/// deterministic **virtual time** (last install minus first arrival), so
/// the speedup column is exact and machine-independent; the gate demands
/// near-linear scaling (`≥ 0.7·S`) and that shard-local sweeps stay on
/// the unsharded cost line: exactly `2(n−1)` messages per update, zero
/// escalations, and an install sequence identical to the unsharded
/// engine on the same scenario (`conforms`).
#[derive(Clone, Debug, PartialEq)]
pub struct E18Row {
    /// Shard count `S` (1 = the serialization baseline).
    pub shards: u64,
    /// Number of data sources in the base chain.
    pub n: u64,
    /// Number of registered full-span SWEEP views.
    pub views: u64,
    /// Updates the warehouse processed.
    pub updates: u64,
    /// Virtual-time maintenance makespan: last install − first arrival (µs).
    pub makespan_us: u64,
    /// `makespan(S = 1) / makespan(S)` — exact, deterministic.
    pub speedup: f64,
    /// The gated floor: `0.7·S` for `S > 1`, `1.0` for the baseline row.
    pub expected_min_speedup: f64,
    /// Measured query/answer messages per update.
    pub msgs_per_update: f64,
    /// The invariant: shard-local sweeps pay the same `2(n−1)`.
    pub expected_msgs_per_update: f64,
    /// Global sweeps forced by cross-shard updates (0 on this workload).
    pub escalations: u64,
    /// Peak concurrently in-flight sweep lanes.
    pub max_lanes: u64,
    /// Final bags, install fingerprints and query count all matched the
    /// unsharded engine on the same scenario.
    pub conforms: bool,
    /// Run drained to quiescence.
    pub quiescent: bool,
}

/// One read-mix row of the E19 (serving layer) phase.
///
/// Each row replays the *same* seeded multi-view maintenance load with a
/// different concurrent read mix resolved against the snapshot-pinned
/// serving layer, and pairs it with a **no-reader referee**: the identical
/// harness with an empty read schedule. Because reads resolve against
/// immutable epoch snapshots at the warehouse, the maintenance engine must
/// be bit-for-bit oblivious to them — same virtual-time makespan, same
/// message cost. Every answered read is audited against a fresh recompute
/// of its view at the pinned epoch, and every accept/reject verdict
/// against the delivery-ledger staleness oracle.
#[derive(Clone, Debug, PartialEq)]
pub struct E19Row {
    /// Read-mix label ("point-heavy", "scan-heavy").
    pub mix: String,
    /// Number of data sources in the base chain.
    pub n: u64,
    /// Number of registered views.
    pub views: u64,
    /// Updates the warehouse processed.
    pub updates: u64,
    /// Point + scan reads issued (subscriptions excluded).
    pub reads: u64,
    /// Reads answered from a pinned epoch.
    pub answered: u64,
    /// Reads rejected with `TooStale`.
    pub rejected: u64,
    /// Rejections the delivery-ledger oracle demands. Must equal
    /// `rejected` exactly.
    pub expected_rejected: u64,
    /// Answered reads per virtual second — the serving throughput the
    /// gate tracks against the baseline.
    pub read_qps: f64,
    /// Virtual-time maintenance makespan under concurrent readers (µs).
    pub makespan_us: u64,
    /// The no-reader referee's makespan (µs). Must equal `makespan_us`
    /// exactly: readers never block installs.
    pub baseline_makespan_us: u64,
    /// Query/answer messages per update under concurrent readers.
    pub msgs_per_update: f64,
    /// The no-reader referee's message cost. Must match exactly: reads
    /// are warehouse-local and add zero network traffic.
    pub baseline_msgs_per_update: f64,
    /// Epoch snapshots published by the install pipeline.
    pub snapshots_published: u64,
    /// Unpinned snapshots garbage-collected.
    pub snapshots_gced: u64,
    /// Every answered read equaled a fresh recompute at its pinned epoch
    /// and every verdict matched the staleness oracle.
    pub reads_match_recompute: bool,
    /// Every subscription stream replayed the install log exactly, in
    /// ticket order.
    pub subs_match_installs: bool,
    /// Run drained to quiescence.
    pub quiescent: bool,
}

/// One stack-shape row of the E20 (maintenance DAG) phase.
///
/// Each row replays the *same* seeded base-view maintenance load with a
/// handwritten view-over-view stack registered on top, and pairs it with
/// a **stack-free referee**: the identical scenario with no derived
/// views. Derived views are fed locally by the cascade from the parent's
/// committed install delta, so the source-message bill must be
/// byte-identical — the `2(n−1)` toll is paid exactly once at the base
/// layer, and child maintenance costs exactly zero source messages.
/// Every derived view is audited per install epoch against a fresh
/// recompute of its operator over the parent's same-epoch snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct E20Row {
    /// Stack-shape label ("sibling-fanout", "deep-stack").
    pub label: String,
    /// Number of data sources in the base chain.
    pub n: u64,
    /// Registered base views.
    pub views: u64,
    /// Registered derived views in the stack.
    pub derived: u64,
    /// Updates the warehouse processed.
    pub updates: u64,
    /// The paper line the base bill must sit on: `2(n−1)`.
    pub expected_msgs_per_update: f64,
    /// Query/answer messages per update with the stack registered.
    pub msgs_per_update: f64,
    /// The stack-free referee's message cost. Must match exactly.
    pub baseline_msgs_per_update: f64,
    /// |query messages with stack − without stack|. Must be exactly 0:
    /// child maintenance never touches a source.
    pub derived_source_msgs: u64,
    /// Child installs the cascade performed.
    pub child_installs: u64,
    /// Linear sibling derivations served from the shared memo.
    pub shared_derivations: u64,
    /// Linear derivations evaluated fresh.
    pub linear_evals: u64,
    /// shared/(shared+fresh) — the sweep-sharing ratio the gate tracks.
    pub sharing_ratio: f64,
    /// Every derived view (σ/Π and Σ alike) matched the fresh-recompute
    /// oracle at every audited install epoch and at quiescence.
    pub aggregate_fidelity: bool,
    /// Both runs drained to quiescence.
    pub quiescent: bool,
}

/// One key-distribution row of the E21 (serve at scale) phase.
///
/// Each row replays the *same* seeded maintenance load under a
/// point-heavy read mix twice: a **linear-scan arm** (point index off,
/// cache off — every point read walks the whole pinned bag) and an
/// **accelerated arm** (per-epoch point indexes plus the read-through
/// answer cache). Cost is a deterministic work proxy — tuples examined —
/// never wall-clock: linear scans bill the bag's distinct size, index
/// builds bill the bag walked once, incremental derives bill the
/// delta-touched groups, group walks bill the group length, cache hits
/// bill zero. The two arms must return byte-identical answers; the
/// accelerated arm must clear `expected_min_speedup` on total work. A
/// third **lag arm** runs bounded subscriptions with polls under the
/// same load and proves every overflowed subscriber's
/// deltas-plus-resume-snapshot history equivalent to the unbounded
/// stream.
#[derive(Clone, Debug, PartialEq)]
pub struct E21Row {
    /// Key-distribution label ("hot-key-skew", "uniform").
    pub mix: String,
    /// Number of data sources in the base chain.
    pub n: u64,
    /// Number of registered views.
    pub views: u64,
    /// Updates the warehouse processed.
    pub updates: u64,
    /// Point reads issued (both arms see the identical schedule).
    pub point_reads: u64,
    /// Total tuples examined by the linear-scan arm (reads + index
    /// maintenance, the latter zero by construction).
    pub linear_work_tuples: u64,
    /// Total tuples examined by the accelerated arm (group walks, index
    /// builds, incremental derives; cache hits are free).
    pub accel_work_tuples: u64,
    /// `linear_work_tuples / max(1, accel_work_tuples)` — the gated
    /// point-read speedup.
    pub speedup: f64,
    /// The floor `speedup` must clear (5.0 on the skewed mix).
    pub expected_min_speedup: f64,
    /// Full index builds in the accelerated arm (first point read on a
    /// `(view, epoch, column)`).
    pub index_builds: u64,
    /// Incremental index derivations at publish.
    pub index_derives: u64,
    /// Point reads answered through an already-present index.
    pub index_hits: u64,
    /// Answer-cache hits in the accelerated arm.
    pub cache_hits: u64,
    /// Answer-cache misses in the accelerated arm.
    pub cache_misses: u64,
    /// Answer-cache entries evicted at capacity.
    pub cache_evictions: u64,
    /// hits/(hits+misses) — the cache effectiveness ratio the gate
    /// tracks against the baseline.
    pub cache_hit_ratio: f64,
    /// Serve-side bag deep copies in the accelerated arm. Must equal
    /// `snapshots_published` exactly: one per install's freeze step,
    /// zero per read — the zero-copy promise, enforced.
    pub bags_deep_cloned: u64,
    /// Epoch snapshots published by the install pipeline.
    pub snapshots_published: u64,
    /// Both arms returned byte-identical answers for every read.
    pub answers_match: bool,
    /// Virtual-time maintenance makespan under the accelerated arm (µs).
    pub makespan_us: u64,
    /// The no-reader referee's makespan (µs). Must equal `makespan_us`
    /// exactly: acceleration changes read cost, never maintenance.
    pub baseline_makespan_us: u64,
    /// Bounded subscriptions that overflowed their `max_lag` bound in
    /// the lag arm. Must be ≥ 1: the backpressure path was exercised.
    pub lag_events: u64,
    /// Snapshot resumes taken by lagged subscribers.
    pub lag_resumes: u64,
    /// Every lagged subscriber's delivered-deltas-plus-resume-snapshot
    /// history reconstructed the unbounded stream exactly.
    pub lag_stream_equivalent: bool,
    /// All three arms drained to quiescence.
    pub quiescent: bool,
}

/// The full report: one entry per phase plus host wall-clock timings.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfReport {
    /// "smoke" or "full".
    pub mode: String,
    /// E1 — Table 1 rows.
    pub e1: Vec<E1Row>,
    /// E6 — message-linearity rows.
    pub e6: Vec<E6Row>,
    /// E12 — fault-sweep rows.
    pub e12: Vec<E12Row>,
    /// E14 — multi-view shared-sweep rows.
    pub e14: Vec<E14Row>,
    /// E15 — cross-update batching rows.
    pub e15: Vec<E15Row>,
    /// E16 — σ-pushdown rows.
    pub e16: Vec<E16Row>,
    /// E17 — crash-recovery rows.
    pub e17: Vec<E17Row>,
    /// E18 — sharded-scaling rows.
    pub e18: Vec<E18Row>,
    /// E19 — serving-layer rows.
    pub e19: Vec<E19Row>,
    /// E20 — maintenance-DAG rows.
    pub e20: Vec<E20Row>,
    /// E21 — serve-at-scale rows.
    pub e21: Vec<E21Row>,
    /// Host wall-clock per phase, milliseconds. Informational only.
    pub phase_wall_ms: Vec<(String, f64)>,
}

fn stale_percentiles(report: &RunReport) -> (u64, u64, u64) {
    (
        report.metrics.staleness_percentile(50.0),
        report.metrics.staleness_percentile(95.0),
        report.metrics.staleness_percentile(99.0),
    )
}

/// Run the E1–E16 scenarios and build the report.
///
/// Smoke mode shrinks the workload (fewer sweep points, shorter streams)
/// but keeps the scenario *shapes* — every invariant the gate enforces
/// holds in both modes (asserted by the smoke-vs-full agreement test).
pub fn collect(smoke: bool) -> PerfReport {
    let mut phase_wall_ms = Vec::new();

    let t0 = Instant::now();
    let e1 = collect_e1(smoke);
    phase_wall_ms.push(("E1".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    let t0 = Instant::now();
    let e6 = collect_e6(smoke);
    phase_wall_ms.push(("E6".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    let t0 = Instant::now();
    let e12 = collect_e12(smoke);
    phase_wall_ms.push(("E12".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    let t0 = Instant::now();
    let e14 = collect_e14(smoke);
    phase_wall_ms.push(("E14".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    let t0 = Instant::now();
    let e15 = collect_e15(smoke);
    phase_wall_ms.push(("E15".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    let t0 = Instant::now();
    let e16 = collect_e16(smoke);
    phase_wall_ms.push(("E16".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    let t0 = Instant::now();
    let e17 = collect_e17(smoke);
    phase_wall_ms.push(("E17".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    let t0 = Instant::now();
    let e18 = collect_e18(smoke);
    phase_wall_ms.push(("E18".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    let t0 = Instant::now();
    let e19 = collect_e19(smoke);
    phase_wall_ms.push(("E19".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    let t0 = Instant::now();
    let e20 = collect_e20(smoke);
    phase_wall_ms.push(("E20".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    let t0 = Instant::now();
    let e21 = collect_e21(smoke);
    phase_wall_ms.push(("E21".to_string(), t0.elapsed().as_secs_f64() * 1e3));

    PerfReport {
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        e1,
        e6,
        e12,
        e14,
        e15,
        e16,
        e17,
        e18,
        e19,
        e20,
        e21,
        phase_wall_ms,
    }
}

/// E1 — the Table 1 comparison (`table1` binary's scenario).
fn collect_e1(smoke: bool) -> Vec<E1Row> {
    let n = 4;
    let updates = crate::pick(smoke, 12, 40);
    let policies: [(&str, PolicyKind); 6] = [
        ("ECA", PolicyKind::Eca),
        ("Strobe", PolicyKind::Strobe),
        ("C-strobe", PolicyKind::CStrobe),
        ("SWEEP", PolicyKind::Sweep(Default::default())),
        ("Nested SWEEP", PolicyKind::NestedSweep(Default::default())),
        ("Recompute", PolicyKind::Recompute),
    ];
    policies
        .into_iter()
        .map(|(name, kind)| {
            let scenario = StreamConfig {
                n_sources: n,
                initial_per_source: 30,
                updates,
                mean_gap: 800,
                domain: 10,
                keyed: true,
                seed: 7,
                ..Default::default()
            }
            .generate()
            .unwrap();
            let report = Experiment::new(scenario)
                .policy(kind)
                .latency(LatencyModel::Constant(2_000))
                .run()
                .unwrap();
            let (stale_p50_us, stale_p95_us, stale_p99_us) = stale_percentiles(&report);
            E1Row {
                policy: name.to_string(),
                consistency: report.consistency.as_ref().unwrap().level.to_string(),
                msgs_per_update: report.messages_per_update(),
                installs: report.metrics.installs,
                updates: report.metrics.updates_received,
                local_compensations: report.metrics.local_compensations,
                compensation_queries: report.metrics.compensation_queries,
                stale_p50_us,
                stale_p95_us,
                stale_p99_us,
            }
        })
        .collect()
}

/// E6 — SWEEP's message linearity (`sweep_linear` binary's scenario).
fn collect_e6(smoke: bool) -> Vec<E6Row> {
    let ns: &[usize] = crate::pick(smoke, &[2, 4, 8], &[2, 3, 4, 6, 8, 12, 16]);
    let updates = crate::pick(smoke, 10, 25);
    ns.iter()
        .map(|&n| {
            let mut sparse = 0.0;
            let mut dense = 0.0;
            let mut dense_compensations = 0;
            let mut consistency = String::new();
            for gap in [50_000u64, 300] {
                let scenario = StreamConfig {
                    n_sources: n,
                    initial_per_source: 15,
                    updates,
                    mean_gap: gap,
                    domain: 15,
                    seed: 21,
                    ..Default::default()
                }
                .generate()
                .unwrap();
                let report = Experiment::new(scenario)
                    .policy(PolicyKind::Sweep(Default::default()))
                    .latency(LatencyModel::Constant(1_500))
                    .run()
                    .unwrap();
                if gap == 300 {
                    dense = report.messages_per_update();
                    dense_compensations = report.metrics.local_compensations;
                    consistency = report.consistency.as_ref().unwrap().level.to_string();
                } else {
                    sparse = report.messages_per_update();
                }
            }
            E6Row {
                n: n as u64,
                expected_msgs_per_update: (2 * (n - 1)) as f64,
                sparse_msgs_per_update: sparse,
                dense_msgs_per_update: dense,
                dense_compensations,
                consistency,
            }
        })
        .collect()
}

/// E12 — faults + reliability transport (`fault_sweep` binary's scenario).
fn collect_e12(smoke: bool) -> Vec<E12Row> {
    let losses: &[f64] = crate::pick(smoke, &[0.0, 0.05, 0.20], &[0.0, 0.01, 0.05, 0.10, 0.20]);
    let updates = crate::pick(smoke, 15, 40);
    let n = 3usize;
    losses
        .iter()
        .map(|&loss| {
            let scenario = StreamConfig {
                n_sources: n,
                initial_per_source: 30,
                updates,
                mean_gap: 2_000,
                domain: 20,
                seed: 12,
                ..Default::default()
            }
            .generate()
            .unwrap();
            let plan = FaultPlan::default().uniform(LinkFaults {
                drop_rate: loss,
                dup_rate: if loss > 0.0 { 0.02 } else { 0.0 },
                reorder_rate: if loss > 0.0 { 0.02 } else { 0.0 },
                reorder_window: 4_000,
            });
            let report = Experiment::new(scenario)
                .policy(PolicyKind::Sweep(Default::default()))
                .latency(LatencyModel::Constant(2_000))
                .faults(plan)
                .transport_auto()
                .run()
                .unwrap();
            let (stale_p50_us, stale_p95_us, stale_p99_us) = stale_percentiles(&report);
            E12Row {
                loss_pct: loss * 100.0,
                logical_msgs_per_update: report.logical_messages_per_update(),
                expected_msgs_per_update: (2 * (n - 1)) as f64,
                inflation: report.net.inflation(),
                consistency: report.consistency.as_ref().unwrap().level.to_string(),
                quiescent: report.quiescent,
                stale_p50_us,
                stale_p95_us,
                stale_p99_us,
            }
        })
        .collect()
}

/// E14 — shared-sweep amortization (`multiview` binary's scenario). All
/// views are full-span so the invariants are exact: shared mode must sit
/// on `2(n−1)` whatever the view count, naive mode on `V·2(n−1)`.
fn collect_e14(smoke: bool) -> Vec<E14Row> {
    let n = 4usize;
    let view_counts: &[usize] = crate::pick(smoke, &[1, 3, 6], &[1, 2, 4, 8]);
    let updates = crate::pick(smoke, 12, 30);
    view_counts
        .iter()
        .map(|&views| {
            let cfg = MultiViewConfig {
                stream: StreamConfig {
                    n_sources: n,
                    initial_per_source: 20,
                    updates,
                    mean_gap: 800,
                    domain: 10,
                    seed: 31,
                    ..Default::default()
                },
                n_views: views,
                view_seed: 0xE14 ^ views as u64,
                full_span: true,
                n_derived: 0,
                derived_seed: 0,
            };
            let shared = MultiViewExperiment::new(cfg.generate().unwrap())
                .latency(LatencyModel::Constant(2_000))
                .run()
                .unwrap();
            let naive = MultiViewExperiment::new(cfg.generate().unwrap())
                .mode(SchedulerMode::Naive)
                .latency(LatencyModel::Constant(2_000))
                .run()
                .unwrap();
            E14Row {
                views: views as u64,
                n: n as u64,
                expected_shared: (2 * (n - 1)) as f64,
                shared_msgs_per_update: shared.messages_per_update(),
                expected_naive: (views * 2 * (n - 1)) as f64,
                naive_msgs_per_update: naive.messages_per_update(),
                sharing_ratio: naive.messages_per_update() / shared.messages_per_update(),
                min_consistency: shared
                    .min_consistency()
                    .map(|l| l.to_string())
                    .unwrap_or_default(),
                mutual_agreement: shared.mutual.as_ref().is_some_and(|m| m.final_agreement),
                stale_p50_us: shared.staleness_percentile(50.0).unwrap_or(0),
                stale_p95_us: shared.staleness_percentile(95.0).unwrap_or(0),
                stale_p99_us: shared.staleness_percentile(99.0).unwrap_or(0),
            }
        })
        .collect()
}

/// E15 — cross-update batching (`batching` binary's scenario). Every
/// update comes from one mid-chain source, injected back-to-back far
/// faster than a sweep round trip, so the queue stays saturated while a
/// sweep is in flight — the regime batching amortizes. The sweep count is
/// then exact: the first update sweeps alone, every later sweep folds
/// `k` queued updates, and messages/update is pinned to
/// `2(n−1)·(1 + ⌈(U−1)/k⌉)/U`.
fn collect_e15(smoke: bool) -> Vec<E15Row> {
    let n = 5usize;
    let batches: &[usize] = crate::pick(smoke, &[1, 4], &[1, 2, 4, 8]);
    let scenario = burst_scenario(n, crate::pick(smoke, 60, 150));
    batches
        .iter()
        .map(|&k| {
            let report = MultiViewExperiment::new(scenario.clone())
                .batch(k)
                .latency(LatencyModel::Constant(2_000))
                .run()
                .unwrap();
            let updates = report.scheduler_metrics.updates_received;
            let sweeps = report.views[0].installs.len() as u64;
            let expected_sweeps = 1 + (updates - 1).div_ceil(k as u64);
            E15Row {
                batch: k as u64,
                n: n as u64,
                updates,
                sweeps,
                expected_msgs_per_update: (2 * (n - 1)) as f64 * expected_sweeps as f64
                    / updates as f64,
                msgs_per_update: report.messages_per_update(),
                amortized_floor: (2 * (n - 1)) as f64 / k as f64,
                min_consistency: report
                    .min_consistency()
                    .map(|l| l.to_string())
                    .unwrap_or_default(),
                mutual_agreement: report.mutual.as_ref().is_some_and(|m| m.final_agreement),
                quiescent: report.quiescent,
                stale_p50_us: report.staleness_percentile(50.0).unwrap_or(0),
                stale_p95_us: report.staleness_percentile(95.0).unwrap_or(0),
                stale_p99_us: report.staleness_percentile(99.0).unwrap_or(0),
            }
        })
        .collect()
}

/// The E15 workload: two full-span SWEEP views over an `n`-source chain,
/// with the generated stream reshaped into a single-source burst — only
/// updates from the middle source, re-stamped 10 µs apart so every one
/// of them is queued before the first sweep's round trip completes.
pub fn burst_scenario(n: usize, updates: usize) -> dw_workload::MultiViewScenario {
    let cfg = MultiViewConfig {
        stream: StreamConfig {
            n_sources: n,
            initial_per_source: 20,
            updates,
            mean_gap: 500,
            domain: 10,
            seed: 15,
            ..Default::default()
        },
        n_views: 2,
        view_seed: 0xE15,
        full_span: true,
        n_derived: 0,
        derived_seed: 0,
    };
    let mut scenario = cfg.generate().unwrap();
    scenario.views = vec![
        dw_workload::ViewSpec::full("burst-a", n),
        dw_workload::ViewSpec::full("burst-b", n),
    ];
    let burst_source = n / 2;
    scenario.txns.retain(|t| t.source == burst_source);
    for (i, t) in scenario.txns.iter_mut().enumerate() {
        t.at = 1 + 10 * i as u64;
    }
    assert!(
        scenario.txns.len() > 1,
        "burst workload needs at least two updates from source {burst_source}"
    );
    scenario
}

/// E16 — σ query pushdown (`pushdown` binary's scenario). Each row runs
/// the same seeded two-view workload with pushdown off and on. The hop
/// structure is pinned — pushdown rewrites payloads, never the message
/// count — so the comparison isolates bytes: the σ-free control must be
/// byte-identical, a σ every tuple satisfies must leave the answers
/// untouched, and the selective σ must visibly shrink them.
fn collect_e16(smoke: bool) -> Vec<E16Row> {
    let n = 4usize;
    let views = 2usize;
    let updates = crate::pick(smoke, 10, 25);
    let cases: [(&str, Option<i64>); 3] = [
        ("none", None),
        ("keep-all", Some(0)),
        ("selective", Some(7)),
    ];
    cases
        .into_iter()
        .map(|(label, threshold)| {
            let scenario = selective_scenario(n, updates, views, threshold);
            let plain = MultiViewExperiment::new(scenario.clone())
                .latency(LatencyModel::Constant(2_000))
                .run()
                .unwrap();
            let pushed = MultiViewExperiment::new(scenario)
                .pushdown(true)
                .latency(LatencyModel::Constant(2_000))
                .run()
                .unwrap();
            let (pq, pa) = (plain.net.label("query"), plain.net.label("answer"));
            let (uq, ua) = (pushed.net.label("query"), pushed.net.label("answer"));
            let reduction = if pa.bytes == 0 {
                0.0
            } else {
                100.0 * (pa.bytes - ua.bytes) as f64 / pa.bytes as f64
            };
            E16Row {
                label: label.to_string(),
                n: n as u64,
                views: views as u64,
                updates: plain.scheduler_metrics.updates_received,
                query_msgs_plain: pq.messages + pa.messages,
                query_msgs_pushed: uq.messages + ua.messages,
                query_bytes_plain: pq.bytes,
                query_bytes_pushed: uq.bytes,
                answer_bytes_plain: pa.bytes,
                answer_bytes_pushed: ua.bytes,
                answer_reduction_pct: reduction,
                min_consistency: plain
                    .min_consistency()
                    .min(pushed.min_consistency())
                    .map(|l| l.to_string())
                    .unwrap_or_default(),
                mutual_agreement: plain.mutual.as_ref().is_some_and(|m| m.final_agreement)
                    && pushed.mutual.as_ref().is_some_and(|m| m.final_agreement),
                quiescent: plain.quiescent && pushed.quiescent,
            }
        })
        .collect()
}

/// The E16 workload: `views` full-span SWEEP views over an `n`-source
/// chain. With `threshold = Some(t)`, view `v` selects
/// `B >= t + v` on *every* span relation — every relation carries a σ
/// from every view, so the pushed predicate is the OR-union
/// `B >= t ∨ B >= t+1 ∨ …` (= `B >= t`, join values live in
/// `0..domain`). `None` leaves the views selection-free, the control
/// where pushdown must be a wire no-op.
pub fn selective_scenario(
    n: usize,
    updates: usize,
    views: usize,
    threshold: Option<i64>,
) -> dw_workload::MultiViewScenario {
    let cfg = MultiViewConfig {
        stream: StreamConfig {
            n_sources: n,
            initial_per_source: 20,
            updates,
            mean_gap: 800,
            domain: 10,
            seed: 0xE16,
            ..Default::default()
        },
        n_views: views,
        view_seed: 0xE16,
        full_span: true,
        n_derived: 0,
        derived_seed: 0,
    };
    let mut scenario = cfg.generate().unwrap();
    scenario.views = (0..views)
        .map(|v| {
            let mut spec = ViewSpec::full(format!("sel-{v}"), n);
            if let Some(t) = threshold {
                for k in 0..n {
                    let attr = scenario.base.schema(k).arity() - 1;
                    spec.selects
                        .push((k, attr, CmpOp::Ge, Value::Int(t + v as i64)));
                }
            }
            spec
        })
        .collect();
    scenario
}

/// E17 — crash recovery (`recovery` binary's scenario). One seeded sparse
/// workload, swept over checkpoint intervals; each row pairs a fault-free
/// run against a run whose warehouse state-crashes mid-sweep on the last
/// update. The crash window opens 50 µs after the last update's sweep
/// launched (first query already in flight) and closes 3 ms later, so
/// recovery must fence the in-flight answer, re-seed the aborted sweep
/// from the durable pending queue, and replay exactly the WAL suffix the
/// checkpoint cadence left behind.
fn collect_e17(smoke: bool) -> Vec<E17Row> {
    let n = 4usize;
    let views = 2usize;
    let cadences: &[usize] = crate::pick(smoke, &[1, 16], &[1, 4, 16]);
    let updates = crate::pick(smoke, 6, 12);
    let scenario = recovery_scenario(n, updates, views);
    let anchor = scenario.txns.last().unwrap().at;
    let window = 3_000u64;
    let down_at = anchor + 1_050;
    let plan = FaultPlan::default().state_crash(0, down_at, down_at + window);
    // Slack for the transport to re-drive the fenced answer and the
    // re-seeded sweep's round trips after the window closes.
    let retransmit_allowance = 60_000u64;

    cadences
        .iter()
        .map(|&k| {
            let clean = MultiViewExperiment::new(scenario.clone())
                .transport_auto()
                .durability(k)
                .run()
                .unwrap();
            let crashed = MultiViewExperiment::new(scenario.clone())
                .faults(plan.clone())
                .transport_auto()
                .durability(k)
                .run()
                .unwrap();
            let matched = clean.views.len() == crashed.views.len()
                && clean.views.iter().zip(&crashed.views).all(|(a, b)| {
                    a.view == b.view
                        && a.installs
                            .iter()
                            .map(|r| &r.consumed)
                            .eq(b.installs.iter().map(|r| &r.consumed))
                });
            let stale_max_us = crashed.staleness_percentile(100.0).unwrap_or(0);
            let recovery = crashed.recovery.expect("the flat engine reports recovery");
            let clean_max = clean.staleness_percentile(100.0).unwrap_or(0);
            E17Row {
                checkpoint_every: k as u64,
                n: n as u64,
                views: views as u64,
                updates: crashed.scheduler_metrics.updates_received,
                converged: matched && clean.quiescent && crashed.quiescent,
                recoveries: recovery.recoveries,
                wal_records_replayed: recovery.wal_records_replayed,
                wal_bytes_replayed: recovery.wal_bytes_replayed,
                sweeps_reseeded: recovery.sweeps_reseeded,
                stale_answers_dropped: recovery.stale_answers_dropped,
                checkpoints_taken: crashed.checkpoints_taken,
                wal_bytes_written: crashed.wal_bytes_written,
                recovery_latency_us: crashed.end_time.saturating_sub(clean.end_time),
                stale_max_us,
                stale_bound_us: clean_max + window + retransmit_allowance,
                quiescent: clean.quiescent && crashed.quiescent,
            }
        })
        .collect()
}

/// The E17 workload: `views` full-span SWEEP views over an `n`-source
/// chain, constant 200 ms gaps — sparse enough that every sweep (even one
/// interrupted by the crash window and re-driven through the transport)
/// finishes before the next update arrives, which pins the install
/// fingerprint on both the crashed and fault-free runs.
pub fn recovery_scenario(n: usize, updates: usize, views: usize) -> dw_workload::MultiViewScenario {
    let cfg = MultiViewConfig {
        stream: StreamConfig {
            n_sources: n,
            initial_per_source: 20,
            updates,
            mean_gap: 200_000,
            gap: dw_workload::GapKind::Constant,
            domain: 10,
            keyed: true,
            seed: 0xE17,
            ..Default::default()
        },
        n_views: views,
        view_seed: 0xE17,
        full_span: true,
        n_derived: 0,
        derived_seed: 0,
    };
    cfg.generate().unwrap()
}

/// E18 — sharded scaling (`sharded` binary's scenario). One logical load
/// (same n, update count and constant arrival gaps), banded for each
/// shard count; the `S = 1` run is the serialization baseline. Each
/// sharded run is also pitted against the *unsharded* engine on the same
/// scenario — final bags, install fingerprints and query counts must all
/// match, which is the install-order-sequencer claim in miniature.
fn collect_e18(smoke: bool) -> Vec<E18Row> {
    let shard_counts: [usize; 3] = [1, 2, 4];
    let updates = crate::pick(smoke, 24, 64);
    let mut base_makespan = 0u64;
    shard_counts
        .iter()
        .map(|&s| {
            let generated = sharded_scenario(s, updates);
            let n = generated.scenario.base.num_relations();
            let views = generated.scenario.views.len();
            let sharded = MultiViewExperiment::new(generated.scenario.clone())
                .sharded(generated.map)
                .run()
                .unwrap();
            let flat = MultiViewExperiment::new(generated.scenario).run().unwrap();
            let shard_stats = sharded.shard_stats.as_ref().expect("a sharded run");
            let conforms = flat.quiescent
                && sharded.install_fingerprint() == flat.install_fingerprint()
                && sharded
                    .views
                    .iter()
                    .zip(&flat.views)
                    .all(|(a, b)| a.view == b.view)
                && sharded.query_messages() == flat.query_messages();
            let makespan = sharded.makespan();
            if s == 1 {
                base_makespan = makespan;
            }
            E18Row {
                shards: s as u64,
                n: n as u64,
                views: views as u64,
                updates: sharded.scheduler_metrics.updates_received,
                makespan_us: makespan,
                speedup: base_makespan as f64 / makespan as f64,
                expected_min_speedup: if s == 1 { 1.0 } else { 0.7 * s as f64 },
                msgs_per_update: sharded.messages_per_update(),
                expected_msgs_per_update: (2 * (n - 1)) as f64,
                escalations: shard_stats.escalations,
                max_lanes: shard_stats.max_concurrent_lanes as u64,
                conforms,
                quiescent: sharded.quiescent,
            }
        })
        .collect()
}

/// The E18 workload: a banded chain whose updates are all shard-local
/// (pure in one band), homes assigned round-robin so every lane carries
/// an equal share, arriving every 300 µs — far faster than a sweep's
/// round trips, so the S-lane engine overlaps what the 1-lane engine
/// serializes.
pub fn sharded_scenario(shards: usize, updates: usize) -> dw_workload::ShardedScenario {
    ShardedConfig {
        n_sources: 3,
        shards,
        updates,
        mean_gap: 300,
        cross_shard_frac: 0.0,
        seed: 0xE18,
        ..Default::default()
    }
    .generate()
    .unwrap()
}

/// E19 — the serving layer (`serve` binary's scenario). One seeded
/// multi-view maintenance load, replayed once per read mix with concurrent
/// snapshot-pinned readers and once as a **no-reader referee**. The gated
/// claims are exact: identical makespan and message cost with and without
/// readers (reads resolve against frozen epochs at the warehouse — zero
/// engine interference), answered reads bit-equal to a fresh recompute at
/// their pinned epoch, and staleness rejections equal to the
/// delivery-ledger oracle's count.
fn collect_e19(smoke: bool) -> Vec<E19Row> {
    let updates = crate::pick(smoke, 16, 48);
    let scenario = serve_scenario(updates);
    let n = scenario.base.num_relations();
    let views = scenario.views.len();
    let referee = MultiViewExperiment::new(scenario.clone()).run().unwrap();
    let mixes: [(&str, f64, f64); 2] = [("point-heavy", 0.8, 0.15), ("scan-heavy", 0.15, 0.8)];
    mixes
        .into_iter()
        .map(|(mix, point_frac, scan_frac)| {
            let reads = serve_read_mix(smoke, views, point_frac, scan_frac);
            let issued = reads
                .iter()
                .filter(|r| !matches!(r.kind, dw_workload::ReadKind::Subscribe))
                .count() as u64;
            let report = MultiViewExperiment::new(scenario.clone())
                .baseline_subscriptions(true)
                .reads(reads)
                .run()
                .unwrap();
            let serve_stats = &report.serve.as_ref().expect("a serving run").serve_stats;
            let audit = audit_reads(&scenario, &report).unwrap();
            debug_assert_eq!(audit.reads, issued);
            E19Row {
                mix: mix.to_string(),
                n: n as u64,
                views: views as u64,
                updates: report.scheduler_metrics.updates_received,
                reads: audit.reads,
                answered: audit.answered,
                rejected: audit.rejected,
                expected_rejected: audit.expected_rejected,
                read_qps: audit.answered as f64 * 1e6 / report.end_time.max(1) as f64,
                makespan_us: report.makespan(),
                baseline_makespan_us: referee.makespan(),
                msgs_per_update: report.messages_per_update(),
                baseline_msgs_per_update: referee.messages_per_update(),
                snapshots_published: serve_stats.snapshots_published,
                snapshots_gced: serve_stats.snapshots_gced,
                reads_match_recompute: audit.clean(),
                subs_match_installs: report.subscriptions_match_installs(),
                quiescent: report.quiescent,
            }
        })
        .collect()
}

/// The E19 maintenance load: `3` full-span SWEEP views over a 3-source
/// chain, updates arriving faster than a sweep's round trips so the
/// install queue (and therefore observable staleness) actually builds —
/// tight read bounds then have something to reject.
pub fn serve_scenario(updates: usize) -> dw_workload::MultiViewScenario {
    MultiViewConfig {
        stream: StreamConfig {
            n_sources: 3,
            initial_per_source: 20,
            updates,
            mean_gap: 1_500,
            domain: 12,
            keyed: true,
            seed: 0xE19,
            ..Default::default()
        },
        n_views: 3,
        view_seed: 0xE19,
        full_span: true,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap()
}

/// The E19 read schedule: 4 readers issuing seeded point/scan reads over
/// the scenario's span, half of them carrying a staleness bound tight
/// enough to be rejected while the sweep queue is deep.
pub fn serve_read_mix(
    smoke: bool,
    n_views: usize,
    point_frac: f64,
    scan_frac: f64,
) -> Vec<dw_workload::ReadOp> {
    ReadMixConfig {
        readers: 4,
        reads_per_reader: crate::pick(smoke, 8, 20),
        start: 500,
        mean_gap: 3_000,
        n_views,
        point_frac,
        scan_frac,
        bound_frac: 0.5,
        bound_window: 2_500,
        seed: 0xE19,
        ..Default::default()
    }
    .generate()
}

/// E20 — the maintenance DAG (`dag` binary's scenario). One seeded
/// base-view load, replayed once per stack shape with the stack
/// registered and once as a **stack-free referee**. The gated claims are
/// exact: the base bill sits on `2(n−1)` and is byte-identical with and
/// without the stack (children are fed locally by the cascade — zero
/// source messages), identical sibling σ/Π derivations share one
/// evaluation per epoch, and every derived view — aggregates included —
/// equals a fresh recompute over its parent at every install epoch.
fn collect_e20(smoke: bool) -> Vec<E20Row> {
    let updates = crate::pick(smoke, 14, 40);
    ["sibling-fanout", "deep-stack"]
        .into_iter()
        .map(|label| {
            let scenario = dag_scenario(updates, label);
            let n = scenario.base.num_relations();
            let views = scenario.views.len();
            let derived = scenario.derived.len();
            let mut referee_scenario = scenario.clone();
            referee_scenario.derived.clear();
            let report = MultiViewExperiment::new(scenario)
                .latency(LatencyModel::Constant(2_000))
                .run()
                .unwrap();
            let referee = MultiViewExperiment::new(referee_scenario)
                .latency(LatencyModel::Constant(2_000))
                .run()
                .unwrap();
            E20Row {
                label: label.to_string(),
                n: n as u64,
                views: views as u64,
                derived: derived as u64,
                updates: report.scheduler_metrics.updates_received,
                expected_msgs_per_update: (2 * (n - 1)) as f64,
                msgs_per_update: report.messages_per_update(),
                baseline_msgs_per_update: referee.messages_per_update(),
                derived_source_msgs: report.query_messages().abs_diff(referee.query_messages()),
                child_installs: report.cascade.child_installs,
                shared_derivations: report.cascade.shared_derivations,
                linear_evals: report.cascade.linear_evals,
                sharing_ratio: report.sharing_ratio(),
                aggregate_fidelity: report.derived_clean(),
                quiescent: report.quiescent && referee.quiescent,
            }
        })
        .collect()
}

/// The E20 maintenance load: one full-span SWEEP base view over a
/// 3-source chain, with the named stack registered on top.
pub fn dag_scenario(updates: usize, stack: &str) -> dw_workload::MultiViewScenario {
    let mut scenario = MultiViewConfig {
        stream: StreamConfig {
            n_sources: 3,
            initial_per_source: 20,
            updates,
            mean_gap: 1_200,
            domain: 10,
            keyed: true,
            seed: 0xE20,
            ..Default::default()
        },
        n_views: 1,
        view_seed: 0xE20,
        full_span: true,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap();
    scenario.derived = dag_stack(stack);
    scenario
}

/// The two stack shapes E20 measures. `sibling-fanout`: three
/// *identical* σ/Π siblings of the base view — the cascade's shared memo
/// must pay one evaluation and two hits per epoch (shared = 2·fresh,
/// checked exactly by the gate) — plus one Σ/group-by sibling.
/// `deep-stack`: σ → Σ → σ, three layers of view-over-view with the
/// aggregate in the middle.
pub fn dag_stack(label: &str) -> Vec<DerivedSpec> {
    let hot = |name: &str, parent: &str| DerivedSpec {
        name: name.to_string(),
        parent: parent.to_string(),
        op: DerivedOp::Select {
            selects: vec![(0, CmpOp::Ge, Value::Int(2))],
            projection: Some(vec![0, 1]),
        },
    };
    match label {
        "sibling-fanout" => vec![
            hot("hot-a", "V0"),
            hot("hot-b", "V0"),
            hot("hot-c", "V0"),
            DerivedSpec {
                name: "counts".to_string(),
                parent: "V0".to_string(),
                op: DerivedOp::Aggregate(AggregateSpec {
                    group_by: vec![0],
                    aggs: vec![AggFn::CountRows, AggFn::Sum(1)],
                }),
            },
        ],
        "deep-stack" => vec![
            hot("hot", "V0"),
            DerivedSpec {
                name: "counts".to_string(),
                parent: "hot".to_string(),
                op: DerivedOp::Aggregate(AggregateSpec {
                    group_by: vec![0],
                    aggs: vec![AggFn::CountRows, AggFn::Max(1)],
                }),
            },
            DerivedSpec {
                name: "busy".to_string(),
                parent: "counts".to_string(),
                op: DerivedOp::Select {
                    selects: vec![(1, CmpOp::Ge, Value::Int(2))],
                    projection: None,
                },
            },
        ],
        other => panic!("unknown E20 stack shape '{other}'"),
    }
}

/// E21 — serve at scale (`serve_scale` binary's scenario). The E19
/// maintenance load replayed under a point-heavy read schedule, once
/// with the serving accelerators off (linear-scan arm) and once with
/// per-epoch point indexes plus the answer cache on (accelerated arm),
/// per key distribution. The gated claims: byte-identical answers, a
/// deterministic-work speedup of ≥ 5× on the skewed mix, exactly one
/// serve-side bag deep copy per install (the zero-copy promise),
/// maintenance makespan equal to the no-reader referee, and — in the
/// bounded-subscription lag arm — every overflowed subscriber recovering
/// a provably equivalent stream through its resume snapshot.
fn collect_e21(smoke: bool) -> Vec<E21Row> {
    let updates = crate::pick(smoke, 16, 48);
    let scenario = serve_scenario(updates);
    let n = scenario.base.num_relations();
    let views = scenario.views.len();
    let referee = MultiViewExperiment::new(scenario.clone()).run().unwrap();
    let mixes: [(&str, f64, f64); 2] = [("hot-key-skew", 1.1, 5.0), ("uniform", 0.0, 1.0)];
    mixes
        .into_iter()
        .map(|(mix, zipf_theta, expected_min_speedup)| {
            let reads = scale_read_mix(smoke, views, zipf_theta);
            let point_reads = reads
                .iter()
                .filter(|r| matches!(r.kind, dw_workload::ReadKind::Point { .. }))
                .count() as u64;
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
            let linear_stats = &linear.serve.as_ref().expect("a serving run").serve_stats;
            let accel_stats = &accel.serve.as_ref().expect("a serving run").serve_stats;
            let linear_work = linear_stats.read_work_tuples + linear_stats.index_maintenance_tuples;
            let accel_work = accel_stats.read_work_tuples + accel_stats.index_maintenance_tuples;
            let cache_lookups = accel_stats.cache_hits + accel_stats.cache_misses;

            // The lag arm: the same maintenance load under a poll-heavy
            // mix with one bounded subscription (max_lag = 1) per view.
            let lag_reads = dw_workload::ReadMixConfig {
                n_views: views,
                ..dw_workload::ReadMixConfig::laggy_subscribers(
                    4,
                    crate::pick(smoke, 10, 24),
                    0xE21,
                )
            }
            .generate();
            let lagged = MultiViewExperiment::new(scenario.clone())
                .baseline_subscriptions(true)
                .reads(lag_reads)
                .bounded_subscriptions(1)
                .run()
                .unwrap();
            let lag_audit = audit_lag_recoveries(&scenario, &lagged).unwrap();

            E21Row {
                mix: mix.to_string(),
                n: n as u64,
                views: views as u64,
                updates: accel.scheduler_metrics.updates_received,
                point_reads,
                linear_work_tuples: linear_work,
                accel_work_tuples: accel_work,
                speedup: linear_work as f64 / accel_work.max(1) as f64,
                expected_min_speedup,
                index_builds: accel_stats.point_index_builds,
                index_derives: accel_stats.point_index_derived,
                index_hits: accel_stats.point_index_hits,
                cache_hits: accel_stats.cache_hits,
                cache_misses: accel_stats.cache_misses,
                cache_evictions: accel_stats.cache_evictions,
                cache_hit_ratio: accel_stats.cache_hits as f64 / cache_lookups.max(1) as f64,
                bags_deep_cloned: accel_stats.bags_deep_cloned,
                snapshots_published: accel_stats.snapshots_published,
                answers_match: serve_answers_identical(&linear, &accel),
                makespan_us: accel.makespan(),
                baseline_makespan_us: referee.makespan(),
                lag_events: lag_audit.lag_events,
                lag_resumes: lag_audit.resumes,
                lag_stream_equivalent: lag_audit.clean(),
                quiescent: linear.quiescent && accel.quiescent && lagged.quiescent,
            }
        })
        .collect()
}

/// The E21 read schedule: 6 readers hammering point lookups over a
/// 64-key domain at the given zipf skew — the mix where per-epoch
/// indexes and the answer cache earn their keep.
pub fn scale_read_mix(smoke: bool, n_views: usize, zipf_theta: f64) -> Vec<dw_workload::ReadOp> {
    ReadMixConfig {
        n_views,
        zipf_theta,
        ..ReadMixConfig::hot_key_points(6, crate::pick(smoke, 24, 60), 0xE21)
    }
    .generate()
}

/// Byte-equality of two runs' read outcomes, field-wise (`Bag` wraps a
/// HashMap, so Debug-string comparison would be iteration-order noise).
fn serve_answers_identical(a: &MultiViewReport, b: &MultiViewReport) -> bool {
    use dw_core::ReadResult;
    let (Some(a), Some(b)) = (&a.serve, &b.serve) else {
        return false;
    };
    a.reads.len() == b.reads.len()
        && a.reads.iter().zip(&b.reads).all(|(x, y)| {
            x.op == y.op
                && x.epoch == y.epoch
                && x.deliveries_seen == y.deliveries_seen
                && match (&x.result, &y.result) {
                    (
                        ReadResult::Point {
                            multiplicity: m1,
                            matches: t1,
                        },
                        ReadResult::Point {
                            multiplicity: m2,
                            matches: t2,
                        },
                    ) => m1 == m2 && t1 == t2,
                    (ReadResult::Scan { bag: b1 }, ReadResult::Scan { bag: b2 }) => b1 == b2,
                    (
                        ReadResult::Rejected {
                            required: r1,
                            freshest_admissible: f1,
                        },
                        ReadResult::Rejected {
                            required: r2,
                            freshest_admissible: f2,
                        },
                    ) => r1 == r2 && f1 == f2,
                    (ReadResult::Subscribed { .. }, ReadResult::Subscribed { .. }) => true,
                    (
                        ReadResult::Polled {
                            delivered: d1,
                            resumed: p1,
                        },
                        ReadResult::Polled {
                            delivered: d2,
                            resumed: p2,
                        },
                    ) => d1 == d2 && p1 == p2,
                    _ => false,
                }
        })
}

// ---------------------------------------------------------------- JSON

impl PerfReport {
    /// Serialize to the `BENCH_report.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("mode", Json::Str(self.mode.clone())),
            (
                "e1_table1",
                Json::Arr(self.e1.iter().map(e1_to_json).collect()),
            ),
            (
                "e6_sweep_linear",
                Json::Arr(self.e6.iter().map(e6_to_json).collect()),
            ),
            (
                "e12_fault_sweep",
                Json::Arr(self.e12.iter().map(e12_to_json).collect()),
            ),
            (
                "e14_multiview",
                Json::Arr(self.e14.iter().map(e14_to_json).collect()),
            ),
            (
                "e15_batching",
                Json::Arr(self.e15.iter().map(e15_to_json).collect()),
            ),
            (
                "e16_pushdown",
                Json::Arr(self.e16.iter().map(e16_to_json).collect()),
            ),
            (
                "e17_recovery",
                Json::Arr(self.e17.iter().map(e17_to_json).collect()),
            ),
            (
                "e18_sharded",
                Json::Arr(self.e18.iter().map(e18_to_json).collect()),
            ),
            (
                "e19_serve",
                Json::Arr(self.e19.iter().map(e19_to_json).collect()),
            ),
            (
                "e20_dag",
                Json::Arr(self.e20.iter().map(e20_to_json).collect()),
            ),
            (
                "e21_serve_scale",
                Json::Arr(self.e21.iter().map(e21_to_json).collect()),
            ),
            (
                "phase_wall_ms",
                Json::Obj(
                    self.phase_wall_ms
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a report back from JSON, validating the schema version.
    pub fn from_json(doc: &Json) -> Result<PerfReport, String> {
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} != supported {SCHEMA_VERSION}; re-baseline"
            ));
        }
        let mode = doc
            .get("mode")
            .and_then(Json::as_str)
            .ok_or("missing mode")?
            .to_string();
        let e1 = doc
            .get("e1_table1")
            .and_then(Json::as_arr)
            .ok_or("missing e1_table1")?
            .iter()
            .map(e1_from_json)
            .collect::<Result<_, _>>()?;
        let e6 = doc
            .get("e6_sweep_linear")
            .and_then(Json::as_arr)
            .ok_or("missing e6_sweep_linear")?
            .iter()
            .map(e6_from_json)
            .collect::<Result<_, _>>()?;
        let e12 = doc
            .get("e12_fault_sweep")
            .and_then(Json::as_arr)
            .ok_or("missing e12_fault_sweep")?
            .iter()
            .map(e12_from_json)
            .collect::<Result<_, _>>()?;
        let e14 = doc
            .get("e14_multiview")
            .and_then(Json::as_arr)
            .ok_or("missing e14_multiview")?
            .iter()
            .map(e14_from_json)
            .collect::<Result<_, _>>()?;
        let e15 = doc
            .get("e15_batching")
            .and_then(Json::as_arr)
            .ok_or("missing e15_batching")?
            .iter()
            .map(e15_from_json)
            .collect::<Result<_, _>>()?;
        let e16 = doc
            .get("e16_pushdown")
            .and_then(Json::as_arr)
            .ok_or("missing e16_pushdown")?
            .iter()
            .map(e16_from_json)
            .collect::<Result<_, _>>()?;
        let e17 = doc
            .get("e17_recovery")
            .and_then(Json::as_arr)
            .ok_or("missing e17_recovery")?
            .iter()
            .map(e17_from_json)
            .collect::<Result<_, _>>()?;
        let e18 = doc
            .get("e18_sharded")
            .and_then(Json::as_arr)
            .ok_or("missing e18_sharded")?
            .iter()
            .map(e18_from_json)
            .collect::<Result<_, _>>()?;
        let e19 = doc
            .get("e19_serve")
            .and_then(Json::as_arr)
            .ok_or("missing e19_serve")?
            .iter()
            .map(e19_from_json)
            .collect::<Result<_, _>>()?;
        let e20 = doc
            .get("e20_dag")
            .and_then(Json::as_arr)
            .ok_or("missing e20_dag")?
            .iter()
            .map(e20_from_json)
            .collect::<Result<_, _>>()?;
        let e21 = doc
            .get("e21_serve_scale")
            .and_then(Json::as_arr)
            .ok_or("missing e21_serve_scale")?
            .iter()
            .map(e21_from_json)
            .collect::<Result<_, _>>()?;
        let phase_wall_ms = match doc.get("phase_wall_ms") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_num()
                        .map(|ms| (k.clone(), ms))
                        .ok_or_else(|| format!("bad phase_wall_ms entry {k}"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("missing phase_wall_ms".to_string()),
        };
        Ok(PerfReport {
            mode,
            e1,
            e6,
            e12,
            e14,
            e15,
            e16,
            e17,
            e18,
            e19,
            e20,
            e21,
            phase_wall_ms,
        })
    }

    /// Parse from raw file contents.
    pub fn from_text(text: &str) -> Result<PerfReport, String> {
        PerfReport::from_json(&json::parse(text)?)
    }
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing number {key}"))
}

fn uint(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer {key}"))
}

fn string(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string {key}"))
}

fn e1_to_json(r: &E1Row) -> Json {
    Json::obj(vec![
        ("policy", Json::Str(r.policy.clone())),
        ("consistency", Json::Str(r.consistency.clone())),
        ("msgs_per_update", Json::Num(r.msgs_per_update)),
        ("installs", Json::Num(r.installs as f64)),
        ("updates", Json::Num(r.updates as f64)),
        (
            "local_compensations",
            Json::Num(r.local_compensations as f64),
        ),
        (
            "compensation_queries",
            Json::Num(r.compensation_queries as f64),
        ),
        ("stale_p50_us", Json::Num(r.stale_p50_us as f64)),
        ("stale_p95_us", Json::Num(r.stale_p95_us as f64)),
        ("stale_p99_us", Json::Num(r.stale_p99_us as f64)),
    ])
}

fn e1_from_json(doc: &Json) -> Result<E1Row, String> {
    Ok(E1Row {
        policy: string(doc, "policy")?,
        consistency: string(doc, "consistency")?,
        msgs_per_update: num(doc, "msgs_per_update")?,
        installs: uint(doc, "installs")?,
        updates: uint(doc, "updates")?,
        local_compensations: uint(doc, "local_compensations")?,
        compensation_queries: uint(doc, "compensation_queries")?,
        stale_p50_us: uint(doc, "stale_p50_us")?,
        stale_p95_us: uint(doc, "stale_p95_us")?,
        stale_p99_us: uint(doc, "stale_p99_us")?,
    })
}

fn e6_to_json(r: &E6Row) -> Json {
    Json::obj(vec![
        ("n", Json::Num(r.n as f64)),
        (
            "expected_msgs_per_update",
            Json::Num(r.expected_msgs_per_update),
        ),
        (
            "sparse_msgs_per_update",
            Json::Num(r.sparse_msgs_per_update),
        ),
        ("dense_msgs_per_update", Json::Num(r.dense_msgs_per_update)),
        (
            "dense_compensations",
            Json::Num(r.dense_compensations as f64),
        ),
        ("consistency", Json::Str(r.consistency.clone())),
    ])
}

fn e6_from_json(doc: &Json) -> Result<E6Row, String> {
    Ok(E6Row {
        n: uint(doc, "n")?,
        expected_msgs_per_update: num(doc, "expected_msgs_per_update")?,
        sparse_msgs_per_update: num(doc, "sparse_msgs_per_update")?,
        dense_msgs_per_update: num(doc, "dense_msgs_per_update")?,
        dense_compensations: uint(doc, "dense_compensations")?,
        consistency: string(doc, "consistency")?,
    })
}

fn e12_to_json(r: &E12Row) -> Json {
    Json::obj(vec![
        ("loss_pct", Json::Num(r.loss_pct)),
        (
            "logical_msgs_per_update",
            Json::Num(r.logical_msgs_per_update),
        ),
        (
            "expected_msgs_per_update",
            Json::Num(r.expected_msgs_per_update),
        ),
        ("inflation", Json::Num(r.inflation)),
        ("consistency", Json::Str(r.consistency.clone())),
        ("quiescent", Json::Bool(r.quiescent)),
        ("stale_p50_us", Json::Num(r.stale_p50_us as f64)),
        ("stale_p95_us", Json::Num(r.stale_p95_us as f64)),
        ("stale_p99_us", Json::Num(r.stale_p99_us as f64)),
    ])
}

fn e12_from_json(doc: &Json) -> Result<E12Row, String> {
    Ok(E12Row {
        loss_pct: num(doc, "loss_pct")?,
        logical_msgs_per_update: num(doc, "logical_msgs_per_update")?,
        expected_msgs_per_update: num(doc, "expected_msgs_per_update")?,
        inflation: num(doc, "inflation")?,
        consistency: string(doc, "consistency")?,
        quiescent: doc
            .get("quiescent")
            .and_then(Json::as_bool)
            .ok_or("missing bool quiescent")?,
        stale_p50_us: uint(doc, "stale_p50_us")?,
        stale_p95_us: uint(doc, "stale_p95_us")?,
        stale_p99_us: uint(doc, "stale_p99_us")?,
    })
}

fn e14_to_json(r: &E14Row) -> Json {
    Json::obj(vec![
        ("views", Json::Num(r.views as f64)),
        ("n", Json::Num(r.n as f64)),
        ("expected_shared", Json::Num(r.expected_shared)),
        (
            "shared_msgs_per_update",
            Json::Num(r.shared_msgs_per_update),
        ),
        ("expected_naive", Json::Num(r.expected_naive)),
        ("naive_msgs_per_update", Json::Num(r.naive_msgs_per_update)),
        ("sharing_ratio", Json::Num(r.sharing_ratio)),
        ("min_consistency", Json::Str(r.min_consistency.clone())),
        ("mutual_agreement", Json::Bool(r.mutual_agreement)),
        ("stale_p50_us", Json::Num(r.stale_p50_us as f64)),
        ("stale_p95_us", Json::Num(r.stale_p95_us as f64)),
        ("stale_p99_us", Json::Num(r.stale_p99_us as f64)),
    ])
}

fn e14_from_json(doc: &Json) -> Result<E14Row, String> {
    Ok(E14Row {
        views: uint(doc, "views")?,
        n: uint(doc, "n")?,
        expected_shared: num(doc, "expected_shared")?,
        shared_msgs_per_update: num(doc, "shared_msgs_per_update")?,
        expected_naive: num(doc, "expected_naive")?,
        naive_msgs_per_update: num(doc, "naive_msgs_per_update")?,
        sharing_ratio: num(doc, "sharing_ratio")?,
        min_consistency: string(doc, "min_consistency")?,
        mutual_agreement: doc
            .get("mutual_agreement")
            .and_then(Json::as_bool)
            .ok_or("missing bool mutual_agreement")?,
        stale_p50_us: uint(doc, "stale_p50_us")?,
        stale_p95_us: uint(doc, "stale_p95_us")?,
        stale_p99_us: uint(doc, "stale_p99_us")?,
    })
}

fn e15_to_json(r: &E15Row) -> Json {
    Json::obj(vec![
        ("batch", Json::Num(r.batch as f64)),
        ("n", Json::Num(r.n as f64)),
        ("updates", Json::Num(r.updates as f64)),
        ("sweeps", Json::Num(r.sweeps as f64)),
        (
            "expected_msgs_per_update",
            Json::Num(r.expected_msgs_per_update),
        ),
        ("msgs_per_update", Json::Num(r.msgs_per_update)),
        ("amortized_floor", Json::Num(r.amortized_floor)),
        ("min_consistency", Json::Str(r.min_consistency.clone())),
        ("mutual_agreement", Json::Bool(r.mutual_agreement)),
        ("quiescent", Json::Bool(r.quiescent)),
        ("stale_p50_us", Json::Num(r.stale_p50_us as f64)),
        ("stale_p95_us", Json::Num(r.stale_p95_us as f64)),
        ("stale_p99_us", Json::Num(r.stale_p99_us as f64)),
    ])
}

fn e15_from_json(doc: &Json) -> Result<E15Row, String> {
    Ok(E15Row {
        batch: uint(doc, "batch")?,
        n: uint(doc, "n")?,
        updates: uint(doc, "updates")?,
        sweeps: uint(doc, "sweeps")?,
        expected_msgs_per_update: num(doc, "expected_msgs_per_update")?,
        msgs_per_update: num(doc, "msgs_per_update")?,
        amortized_floor: num(doc, "amortized_floor")?,
        min_consistency: string(doc, "min_consistency")?,
        mutual_agreement: doc
            .get("mutual_agreement")
            .and_then(Json::as_bool)
            .ok_or("missing bool mutual_agreement")?,
        quiescent: doc
            .get("quiescent")
            .and_then(Json::as_bool)
            .ok_or("missing bool quiescent")?,
        stale_p50_us: uint(doc, "stale_p50_us")?,
        stale_p95_us: uint(doc, "stale_p95_us")?,
        stale_p99_us: uint(doc, "stale_p99_us")?,
    })
}

fn e16_to_json(r: &E16Row) -> Json {
    Json::obj(vec![
        ("label", Json::Str(r.label.clone())),
        ("n", Json::Num(r.n as f64)),
        ("views", Json::Num(r.views as f64)),
        ("updates", Json::Num(r.updates as f64)),
        ("query_msgs_plain", Json::Num(r.query_msgs_plain as f64)),
        ("query_msgs_pushed", Json::Num(r.query_msgs_pushed as f64)),
        ("query_bytes_plain", Json::Num(r.query_bytes_plain as f64)),
        ("query_bytes_pushed", Json::Num(r.query_bytes_pushed as f64)),
        ("answer_bytes_plain", Json::Num(r.answer_bytes_plain as f64)),
        (
            "answer_bytes_pushed",
            Json::Num(r.answer_bytes_pushed as f64),
        ),
        ("answer_reduction_pct", Json::Num(r.answer_reduction_pct)),
        ("min_consistency", Json::Str(r.min_consistency.clone())),
        ("mutual_agreement", Json::Bool(r.mutual_agreement)),
        ("quiescent", Json::Bool(r.quiescent)),
    ])
}

fn e16_from_json(doc: &Json) -> Result<E16Row, String> {
    Ok(E16Row {
        label: string(doc, "label")?,
        n: uint(doc, "n")?,
        views: uint(doc, "views")?,
        updates: uint(doc, "updates")?,
        query_msgs_plain: uint(doc, "query_msgs_plain")?,
        query_msgs_pushed: uint(doc, "query_msgs_pushed")?,
        query_bytes_plain: uint(doc, "query_bytes_plain")?,
        query_bytes_pushed: uint(doc, "query_bytes_pushed")?,
        answer_bytes_plain: uint(doc, "answer_bytes_plain")?,
        answer_bytes_pushed: uint(doc, "answer_bytes_pushed")?,
        answer_reduction_pct: num(doc, "answer_reduction_pct")?,
        min_consistency: string(doc, "min_consistency")?,
        mutual_agreement: doc
            .get("mutual_agreement")
            .and_then(Json::as_bool)
            .ok_or("missing bool mutual_agreement")?,
        quiescent: doc
            .get("quiescent")
            .and_then(Json::as_bool)
            .ok_or("missing bool quiescent")?,
    })
}

fn e17_to_json(r: &E17Row) -> Json {
    Json::obj(vec![
        ("checkpoint_every", Json::Num(r.checkpoint_every as f64)),
        ("n", Json::Num(r.n as f64)),
        ("views", Json::Num(r.views as f64)),
        ("updates", Json::Num(r.updates as f64)),
        ("converged", Json::Bool(r.converged)),
        ("recoveries", Json::Num(r.recoveries as f64)),
        (
            "wal_records_replayed",
            Json::Num(r.wal_records_replayed as f64),
        ),
        ("wal_bytes_replayed", Json::Num(r.wal_bytes_replayed as f64)),
        ("sweeps_reseeded", Json::Num(r.sweeps_reseeded as f64)),
        (
            "stale_answers_dropped",
            Json::Num(r.stale_answers_dropped as f64),
        ),
        ("checkpoints_taken", Json::Num(r.checkpoints_taken as f64)),
        ("wal_bytes_written", Json::Num(r.wal_bytes_written as f64)),
        (
            "recovery_latency_us",
            Json::Num(r.recovery_latency_us as f64),
        ),
        ("stale_max_us", Json::Num(r.stale_max_us as f64)),
        ("stale_bound_us", Json::Num(r.stale_bound_us as f64)),
        ("quiescent", Json::Bool(r.quiescent)),
    ])
}

fn e17_from_json(doc: &Json) -> Result<E17Row, String> {
    Ok(E17Row {
        checkpoint_every: uint(doc, "checkpoint_every")?,
        n: uint(doc, "n")?,
        views: uint(doc, "views")?,
        updates: uint(doc, "updates")?,
        converged: doc
            .get("converged")
            .and_then(Json::as_bool)
            .ok_or("missing bool converged")?,
        recoveries: uint(doc, "recoveries")?,
        wal_records_replayed: uint(doc, "wal_records_replayed")?,
        wal_bytes_replayed: uint(doc, "wal_bytes_replayed")?,
        sweeps_reseeded: uint(doc, "sweeps_reseeded")?,
        stale_answers_dropped: uint(doc, "stale_answers_dropped")?,
        checkpoints_taken: uint(doc, "checkpoints_taken")?,
        wal_bytes_written: uint(doc, "wal_bytes_written")?,
        recovery_latency_us: uint(doc, "recovery_latency_us")?,
        stale_max_us: uint(doc, "stale_max_us")?,
        stale_bound_us: uint(doc, "stale_bound_us")?,
        quiescent: doc
            .get("quiescent")
            .and_then(Json::as_bool)
            .ok_or("missing bool quiescent")?,
    })
}

fn e18_to_json(r: &E18Row) -> Json {
    Json::obj(vec![
        ("shards", Json::Num(r.shards as f64)),
        ("n", Json::Num(r.n as f64)),
        ("views", Json::Num(r.views as f64)),
        ("updates", Json::Num(r.updates as f64)),
        ("makespan_us", Json::Num(r.makespan_us as f64)),
        ("speedup", Json::Num(r.speedup)),
        ("expected_min_speedup", Json::Num(r.expected_min_speedup)),
        ("msgs_per_update", Json::Num(r.msgs_per_update)),
        (
            "expected_msgs_per_update",
            Json::Num(r.expected_msgs_per_update),
        ),
        ("escalations", Json::Num(r.escalations as f64)),
        ("max_lanes", Json::Num(r.max_lanes as f64)),
        ("conforms", Json::Bool(r.conforms)),
        ("quiescent", Json::Bool(r.quiescent)),
    ])
}

fn e18_from_json(doc: &Json) -> Result<E18Row, String> {
    Ok(E18Row {
        shards: uint(doc, "shards")?,
        n: uint(doc, "n")?,
        views: uint(doc, "views")?,
        updates: uint(doc, "updates")?,
        makespan_us: uint(doc, "makespan_us")?,
        speedup: num(doc, "speedup")?,
        expected_min_speedup: num(doc, "expected_min_speedup")?,
        msgs_per_update: num(doc, "msgs_per_update")?,
        expected_msgs_per_update: num(doc, "expected_msgs_per_update")?,
        escalations: uint(doc, "escalations")?,
        max_lanes: uint(doc, "max_lanes")?,
        conforms: doc
            .get("conforms")
            .and_then(Json::as_bool)
            .ok_or("missing bool conforms")?,
        quiescent: doc
            .get("quiescent")
            .and_then(Json::as_bool)
            .ok_or("missing bool quiescent")?,
    })
}

fn e19_to_json(r: &E19Row) -> Json {
    Json::obj(vec![
        ("mix", Json::Str(r.mix.clone())),
        ("n", Json::Num(r.n as f64)),
        ("views", Json::Num(r.views as f64)),
        ("updates", Json::Num(r.updates as f64)),
        ("reads", Json::Num(r.reads as f64)),
        ("answered", Json::Num(r.answered as f64)),
        ("rejected", Json::Num(r.rejected as f64)),
        ("expected_rejected", Json::Num(r.expected_rejected as f64)),
        ("read_qps", Json::Num(r.read_qps)),
        ("makespan_us", Json::Num(r.makespan_us as f64)),
        (
            "baseline_makespan_us",
            Json::Num(r.baseline_makespan_us as f64),
        ),
        ("msgs_per_update", Json::Num(r.msgs_per_update)),
        (
            "baseline_msgs_per_update",
            Json::Num(r.baseline_msgs_per_update),
        ),
        (
            "snapshots_published",
            Json::Num(r.snapshots_published as f64),
        ),
        ("snapshots_gced", Json::Num(r.snapshots_gced as f64)),
        ("reads_match_recompute", Json::Bool(r.reads_match_recompute)),
        ("subs_match_installs", Json::Bool(r.subs_match_installs)),
        ("quiescent", Json::Bool(r.quiescent)),
    ])
}

fn e19_from_json(doc: &Json) -> Result<E19Row, String> {
    Ok(E19Row {
        mix: string(doc, "mix")?,
        n: uint(doc, "n")?,
        views: uint(doc, "views")?,
        updates: uint(doc, "updates")?,
        reads: uint(doc, "reads")?,
        answered: uint(doc, "answered")?,
        rejected: uint(doc, "rejected")?,
        expected_rejected: uint(doc, "expected_rejected")?,
        read_qps: num(doc, "read_qps")?,
        makespan_us: uint(doc, "makespan_us")?,
        baseline_makespan_us: uint(doc, "baseline_makespan_us")?,
        msgs_per_update: num(doc, "msgs_per_update")?,
        baseline_msgs_per_update: num(doc, "baseline_msgs_per_update")?,
        snapshots_published: uint(doc, "snapshots_published")?,
        snapshots_gced: uint(doc, "snapshots_gced")?,
        reads_match_recompute: doc
            .get("reads_match_recompute")
            .and_then(Json::as_bool)
            .ok_or("missing bool reads_match_recompute")?,
        subs_match_installs: doc
            .get("subs_match_installs")
            .and_then(Json::as_bool)
            .ok_or("missing bool subs_match_installs")?,
        quiescent: doc
            .get("quiescent")
            .and_then(Json::as_bool)
            .ok_or("missing bool quiescent")?,
    })
}

fn e20_to_json(r: &E20Row) -> Json {
    Json::obj(vec![
        ("label", Json::Str(r.label.clone())),
        ("n", Json::Num(r.n as f64)),
        ("views", Json::Num(r.views as f64)),
        ("derived", Json::Num(r.derived as f64)),
        ("updates", Json::Num(r.updates as f64)),
        (
            "expected_msgs_per_update",
            Json::Num(r.expected_msgs_per_update),
        ),
        ("msgs_per_update", Json::Num(r.msgs_per_update)),
        (
            "baseline_msgs_per_update",
            Json::Num(r.baseline_msgs_per_update),
        ),
        (
            "derived_source_msgs",
            Json::Num(r.derived_source_msgs as f64),
        ),
        ("child_installs", Json::Num(r.child_installs as f64)),
        ("shared_derivations", Json::Num(r.shared_derivations as f64)),
        ("linear_evals", Json::Num(r.linear_evals as f64)),
        ("sharing_ratio", Json::Num(r.sharing_ratio)),
        ("aggregate_fidelity", Json::Bool(r.aggregate_fidelity)),
        ("quiescent", Json::Bool(r.quiescent)),
    ])
}

fn e20_from_json(doc: &Json) -> Result<E20Row, String> {
    Ok(E20Row {
        label: string(doc, "label")?,
        n: uint(doc, "n")?,
        views: uint(doc, "views")?,
        derived: uint(doc, "derived")?,
        updates: uint(doc, "updates")?,
        expected_msgs_per_update: num(doc, "expected_msgs_per_update")?,
        msgs_per_update: num(doc, "msgs_per_update")?,
        baseline_msgs_per_update: num(doc, "baseline_msgs_per_update")?,
        derived_source_msgs: uint(doc, "derived_source_msgs")?,
        child_installs: uint(doc, "child_installs")?,
        shared_derivations: uint(doc, "shared_derivations")?,
        linear_evals: uint(doc, "linear_evals")?,
        sharing_ratio: num(doc, "sharing_ratio")?,
        aggregate_fidelity: doc
            .get("aggregate_fidelity")
            .and_then(Json::as_bool)
            .ok_or("missing bool aggregate_fidelity")?,
        quiescent: doc
            .get("quiescent")
            .and_then(Json::as_bool)
            .ok_or("missing bool quiescent")?,
    })
}

fn e21_to_json(r: &E21Row) -> Json {
    Json::obj(vec![
        ("mix", Json::Str(r.mix.clone())),
        ("n", Json::Num(r.n as f64)),
        ("views", Json::Num(r.views as f64)),
        ("updates", Json::Num(r.updates as f64)),
        ("point_reads", Json::Num(r.point_reads as f64)),
        ("linear_work_tuples", Json::Num(r.linear_work_tuples as f64)),
        ("accel_work_tuples", Json::Num(r.accel_work_tuples as f64)),
        ("speedup", Json::Num(r.speedup)),
        ("expected_min_speedup", Json::Num(r.expected_min_speedup)),
        ("index_builds", Json::Num(r.index_builds as f64)),
        ("index_derives", Json::Num(r.index_derives as f64)),
        ("index_hits", Json::Num(r.index_hits as f64)),
        ("cache_hits", Json::Num(r.cache_hits as f64)),
        ("cache_misses", Json::Num(r.cache_misses as f64)),
        ("cache_evictions", Json::Num(r.cache_evictions as f64)),
        ("cache_hit_ratio", Json::Num(r.cache_hit_ratio)),
        ("bags_deep_cloned", Json::Num(r.bags_deep_cloned as f64)),
        (
            "snapshots_published",
            Json::Num(r.snapshots_published as f64),
        ),
        ("answers_match", Json::Bool(r.answers_match)),
        ("makespan_us", Json::Num(r.makespan_us as f64)),
        (
            "baseline_makespan_us",
            Json::Num(r.baseline_makespan_us as f64),
        ),
        ("lag_events", Json::Num(r.lag_events as f64)),
        ("lag_resumes", Json::Num(r.lag_resumes as f64)),
        ("lag_stream_equivalent", Json::Bool(r.lag_stream_equivalent)),
        ("quiescent", Json::Bool(r.quiescent)),
    ])
}

fn e21_from_json(doc: &Json) -> Result<E21Row, String> {
    Ok(E21Row {
        mix: string(doc, "mix")?,
        n: uint(doc, "n")?,
        views: uint(doc, "views")?,
        updates: uint(doc, "updates")?,
        point_reads: uint(doc, "point_reads")?,
        linear_work_tuples: uint(doc, "linear_work_tuples")?,
        accel_work_tuples: uint(doc, "accel_work_tuples")?,
        speedup: num(doc, "speedup")?,
        expected_min_speedup: num(doc, "expected_min_speedup")?,
        index_builds: uint(doc, "index_builds")?,
        index_derives: uint(doc, "index_derives")?,
        index_hits: uint(doc, "index_hits")?,
        cache_hits: uint(doc, "cache_hits")?,
        cache_misses: uint(doc, "cache_misses")?,
        cache_evictions: uint(doc, "cache_evictions")?,
        cache_hit_ratio: num(doc, "cache_hit_ratio")?,
        bags_deep_cloned: uint(doc, "bags_deep_cloned")?,
        snapshots_published: uint(doc, "snapshots_published")?,
        answers_match: doc
            .get("answers_match")
            .and_then(Json::as_bool)
            .ok_or("missing bool answers_match")?,
        makespan_us: uint(doc, "makespan_us")?,
        baseline_makespan_us: uint(doc, "baseline_makespan_us")?,
        lag_events: uint(doc, "lag_events")?,
        lag_resumes: uint(doc, "lag_resumes")?,
        lag_stream_equivalent: doc
            .get("lag_stream_equivalent")
            .and_then(Json::as_bool)
            .ok_or("missing bool lag_stream_equivalent")?,
        quiescent: doc
            .get("quiescent")
            .and_then(Json::as_bool)
            .ok_or("missing bool quiescent")?,
    })
}

// ---------------------------------------------------------------- gate

fn level_rank(level: &str) -> i32 {
    match level {
        "complete" => 4,
        "strong" => 3,
        "weak" => 2,
        "convergent" => 1,
        _ => 0,
    }
}

fn check_downgrade(violations: &mut Vec<String>, what: &str, baseline: &str, fresh: &str) {
    if level_rank(fresh) < level_rank(baseline) {
        violations.push(format!(
            "{what}: consistency downgraded from '{baseline}' to '{fresh}'"
        ));
    }
}

/// Flag `fresh` if it regressed more than [`RATIO_TOLERANCE`] relative to
/// `baseline`. `higher_is_worse` picks the bad direction. Zero baselines
/// only flag when the fresh value moved off zero in the bad direction by
/// more than a unit (ratios against zero are meaningless).
fn check_ratio(
    violations: &mut Vec<String>,
    what: &str,
    baseline: f64,
    fresh: f64,
    higher_is_worse: bool,
) {
    let (base, new) = if higher_is_worse {
        (baseline, fresh)
    } else {
        (fresh, baseline)
    };
    let bad = if base.abs() < EXACT_EPS {
        new > 1.0
    } else {
        (new - base) / base > RATIO_TOLERANCE
    };
    if bad {
        violations.push(format!(
            "{what}: {fresh} vs baseline {baseline} ({} by more than {:.0}%)",
            if higher_is_worse { "up" } else { "down" },
            RATIO_TOLERANCE * 100.0
        ));
    }
}

/// Check the exact invariants on a single report (no baseline needed):
/// E6 rows on the `2(n−1)` line, E12 complete + quiescent + logically
/// pinned.
pub fn invariant_violations(report: &PerfReport) -> Vec<String> {
    let mut v = Vec::new();
    for row in &report.e6 {
        let expect = (2 * (row.n - 1)) as f64;
        if (row.expected_msgs_per_update - expect).abs() > EXACT_EPS {
            v.push(format!(
                "E6 n={}: recorded expectation {} != 2(n-1) = {expect}",
                row.n, row.expected_msgs_per_update
            ));
        }
        for (label, measured) in [
            ("sparse", row.sparse_msgs_per_update),
            ("dense", row.dense_msgs_per_update),
        ] {
            if (measured - expect).abs() > EXACT_EPS {
                v.push(format!(
                    "E6 n={} ({label}): msgs/update {measured} != 2(n-1) = {expect}",
                    row.n
                ));
            }
        }
        if row.consistency != "complete" {
            v.push(format!(
                "E6 n={}: consistency '{}' != 'complete'",
                row.n, row.consistency
            ));
        }
    }
    for row in &report.e12 {
        if (row.logical_msgs_per_update - row.expected_msgs_per_update).abs() > EXACT_EPS {
            v.push(format!(
                "E12 loss={}%: logical msgs/update {} != 2(n-1) = {}",
                row.loss_pct, row.logical_msgs_per_update, row.expected_msgs_per_update
            ));
        }
        if row.consistency != "complete" {
            v.push(format!(
                "E12 loss={}%: consistency '{}' != 'complete'",
                row.loss_pct, row.consistency
            ));
        }
        if !row.quiescent {
            v.push(format!("E12 loss={}%: run did not drain", row.loss_pct));
        }
    }
    for row in &report.e14 {
        let shared_expect = (2 * (row.n - 1)) as f64;
        let naive_expect = (row.views * 2 * (row.n - 1)) as f64;
        if (row.expected_shared - shared_expect).abs() > EXACT_EPS
            || (row.expected_naive - naive_expect).abs() > EXACT_EPS
        {
            v.push(format!(
                "E14 V={}: recorded expectations ({}, {}) != (2(n-1), V*2(n-1)) = ({shared_expect}, {naive_expect})",
                row.views, row.expected_shared, row.expected_naive
            ));
        }
        if (row.shared_msgs_per_update - shared_expect).abs() > EXACT_EPS {
            v.push(format!(
                "E14 V={}: shared msgs/update {} != 2(n-1) = {shared_expect} — shared sweep must not scale with view count",
                row.views, row.shared_msgs_per_update
            ));
        }
        if (row.naive_msgs_per_update - naive_expect).abs() > EXACT_EPS {
            v.push(format!(
                "E14 V={}: naive msgs/update {} != V*2(n-1) = {naive_expect}",
                row.views, row.naive_msgs_per_update
            ));
        }
        if level_rank(&row.min_consistency) < level_rank("strong") {
            v.push(format!(
                "E14 V={}: weakest view consistency '{}' below 'strong'",
                row.views, row.min_consistency
            ));
        }
        if !row.mutual_agreement {
            v.push(format!(
                "E14 V={}: views disagree on shared sources after drain",
                row.views
            ));
        }
    }
    for row in &report.e15 {
        if row.batch == 0 || row.updates < 2 {
            v.push(format!(
                "E15 k={}: degenerate row ({} updates)",
                row.batch, row.updates
            ));
            continue;
        }
        let expected_sweeps = 1 + (row.updates - 1).div_ceil(row.batch);
        if row.sweeps != expected_sweeps {
            v.push(format!(
                "E15 k={}: {} sweeps for {} saturated same-source updates != 1 + ceil((U-1)/k) = {expected_sweeps} — batching did not fold the queue",
                row.batch, row.sweeps, row.updates
            ));
        }
        let expect = (2 * (row.n - 1)) as f64 * expected_sweeps as f64 / row.updates as f64;
        if (row.expected_msgs_per_update - expect).abs() > EXACT_EPS {
            v.push(format!(
                "E15 k={}: recorded expectation {} != 2(n-1)*(1+ceil((U-1)/k))/U = {expect}",
                row.batch, row.expected_msgs_per_update
            ));
        }
        if (row.msgs_per_update - expect).abs() > EXACT_EPS {
            v.push(format!(
                "E15 k={}: msgs/update {} != {expect}",
                row.batch, row.msgs_per_update
            ));
        }
        let floor = (2 * (row.n - 1)) as f64 / row.batch as f64;
        if (row.amortized_floor - floor).abs() > EXACT_EPS {
            v.push(format!(
                "E15 k={}: recorded floor {} != 2(n-1)/k = {floor}",
                row.batch, row.amortized_floor
            ));
        }
        if level_rank(&row.min_consistency) < level_rank("strong") {
            v.push(format!(
                "E15 k={}: weakest view consistency '{}' below 'strong'",
                row.batch, row.min_consistency
            ));
        }
        if !row.mutual_agreement {
            v.push(format!(
                "E15 k={}: views disagree on shared sources after drain",
                row.batch
            ));
        }
        if !row.quiescent {
            v.push(format!("E15 k={}: run did not drain", row.batch));
        }
    }
    for pair in report.e15.windows(2) {
        if pair[1].msgs_per_update > pair[0].msgs_per_update + EXACT_EPS {
            v.push(format!(
                "E15: msgs/update rose from {} (k={}) to {} (k={}) — widening the batch must never cost messages",
                pair[0].msgs_per_update, pair[0].batch, pair[1].msgs_per_update, pair[1].batch
            ));
        }
    }
    for row in &report.e16 {
        if row.query_msgs_pushed != row.query_msgs_plain {
            v.push(format!(
                "E16 {}: pushdown changed the query/answer hop count ({} vs {}) — it must rewrite payloads, never the message structure",
                row.label, row.query_msgs_pushed, row.query_msgs_plain
            ));
        }
        if row.answer_bytes_pushed > row.answer_bytes_plain {
            v.push(format!(
                "E16 {}: pushdown shipped {} answer bytes vs {} unpushed — a pushed σ must never ship more tuples",
                row.label, row.answer_bytes_pushed, row.answer_bytes_plain
            ));
        }
        let expect_pct = if row.answer_bytes_plain == 0 {
            0.0
        } else {
            100.0 * (row.answer_bytes_plain as f64 - row.answer_bytes_pushed as f64)
                / row.answer_bytes_plain as f64
        };
        if (row.answer_reduction_pct - expect_pct).abs() > EXACT_EPS {
            v.push(format!(
                "E16 {}: recorded reduction {}% != {expect_pct}%",
                row.label, row.answer_reduction_pct
            ));
        }
        // σ-free views collapse the pushed predicate to True, which is
        // never sent: the runs must be byte-identical.
        if row.label == "none"
            && (row.query_bytes_pushed != row.query_bytes_plain
                || row.answer_bytes_pushed != row.answer_bytes_plain)
        {
            v.push(format!(
                "E16 {}: σ-free control diverged on the wire (query {} vs {}, answer {} vs {})",
                row.label,
                row.query_bytes_pushed,
                row.query_bytes_plain,
                row.answer_bytes_pushed,
                row.answer_bytes_plain
            ));
        }
        // A σ every tuple satisfies rides the queries but filters
        // nothing: the answers must not move.
        if row.label == "keep-all" && row.answer_bytes_pushed != row.answer_bytes_plain {
            v.push(format!(
                "E16 {}: a σ every tuple satisfies changed the answers ({} vs {} bytes)",
                row.label, row.answer_bytes_pushed, row.answer_bytes_plain
            ));
        }
        // The headline: selective σ must show a measurable reduction.
        if row.label == "selective" && row.answer_bytes_pushed >= row.answer_bytes_plain {
            v.push(format!(
                "E16 {}: no measurable reduction ({} vs {} answer bytes) — the pushed σ filtered nothing",
                row.label, row.answer_bytes_pushed, row.answer_bytes_plain
            ));
        }
        if level_rank(&row.min_consistency) < level_rank("strong") {
            v.push(format!(
                "E16 {}: weakest view consistency '{}' below 'strong'",
                row.label, row.min_consistency
            ));
        }
        if !row.mutual_agreement {
            v.push(format!(
                "E16 {}: views disagree on shared sources after drain",
                row.label
            ));
        }
        if !row.quiescent {
            v.push(format!("E16 {}: a run did not drain", row.label));
        }
    }
    for row in &report.e17 {
        if !row.converged {
            v.push(format!(
                "E17 ckpt={}: crashed run did not converge to the fault-free bags and fingerprints",
                row.checkpoint_every
            ));
        }
        if row.recoveries == 0 {
            v.push(format!(
                "E17 ckpt={}: no recovery fired — the crash window missed the run",
                row.checkpoint_every
            ));
        }
        if row.stale_max_us > row.stale_bound_us {
            v.push(format!(
                "E17 ckpt={}: recovery staleness spike {}µs exceeds the recorded bound {}µs",
                row.checkpoint_every, row.stale_max_us, row.stale_bound_us
            ));
        }
        if row.wal_bytes_replayed > row.wal_bytes_written {
            v.push(format!(
                "E17 ckpt={}: replayed {} WAL bytes but only {} were ever written",
                row.checkpoint_every, row.wal_bytes_replayed, row.wal_bytes_written
            ));
        }
        if !row.quiescent {
            v.push(format!(
                "E17 ckpt={}: a run did not drain",
                row.checkpoint_every
            ));
        }
    }
    for pair in report.e17.windows(2) {
        if pair[1].checkpoint_every > pair[0].checkpoint_every
            && pair[1].wal_bytes_replayed < pair[0].wal_bytes_replayed
        {
            v.push(format!(
                "E17: replayed WAL bytes fell from {} (ckpt={}) to {} (ckpt={}) — rarer checkpoints must never shorten the replay",
                pair[0].wal_bytes_replayed,
                pair[0].checkpoint_every,
                pair[1].wal_bytes_replayed,
                pair[1].checkpoint_every
            ));
        }
    }
    let e18_base = report.e18.iter().find(|r| r.shards == 1);
    for row in &report.e18 {
        let expect = (2 * (row.n - 1)) as f64;
        if (row.expected_msgs_per_update - expect).abs() > EXACT_EPS {
            v.push(format!(
                "E18 S={}: recorded expectation {} != 2(n-1) = {expect}",
                row.shards, row.expected_msgs_per_update
            ));
        }
        if (row.msgs_per_update - expect).abs() > EXACT_EPS {
            v.push(format!(
                "E18 S={}: msgs/update {} != 2(n-1) = {expect} — shard locality must buy concurrency, never extra traffic",
                row.shards, row.msgs_per_update
            ));
        }
        if row.escalations != 0 {
            v.push(format!(
                "E18 S={}: {} escalations on a shard-local workload — the partitioner misclassified pure updates",
                row.shards, row.escalations
            ));
        }
        let floor = if row.shards == 1 {
            1.0
        } else {
            0.7 * row.shards as f64
        };
        if (row.expected_min_speedup - floor).abs() > EXACT_EPS {
            v.push(format!(
                "E18 S={}: recorded speedup floor {} != 0.7*S = {floor}",
                row.shards, row.expected_min_speedup
            ));
        }
        if row.speedup + EXACT_EPS < row.expected_min_speedup {
            v.push(format!(
                "E18 S={}: speedup {:.3} below the {:.2} near-linear floor — parallel lanes are not cutting the makespan",
                row.shards, row.speedup, row.expected_min_speedup
            ));
        }
        if let Some(base) = e18_base {
            let expect_speedup = base.makespan_us as f64 / row.makespan_us as f64;
            if (row.speedup - expect_speedup).abs() > EXACT_EPS {
                v.push(format!(
                    "E18 S={}: recorded speedup {} != makespan(1)/makespan(S) = {expect_speedup}",
                    row.shards, row.speedup
                ));
            }
        }
        if row.shards > 1 && row.max_lanes < 2 {
            v.push(format!(
                "E18 S={}: lanes never overlapped — partitioning bought no concurrency",
                row.shards
            ));
        }
        if !row.conforms {
            v.push(format!(
                "E18 S={}: sharded run diverged from the unsharded engine (bags, install sequence or query count)",
                row.shards
            ));
        }
        if !row.quiescent {
            v.push(format!("E18 S={}: run did not drain", row.shards));
        }
    }
    let e19_mixes: BTreeSet<&str> = report.e19.iter().map(|r| r.mix.as_str()).collect();
    if e19_mixes.len() < 2 {
        v.push(format!(
            "E19: serving must be exercised at >= 2 distinct read-mix levels, got {:?}",
            e19_mixes
        ));
    }
    for row in &report.e19 {
        if row.makespan_us != row.baseline_makespan_us {
            v.push(format!(
                "E19 {}: readers must never block installs — makespan {}us under readers != {}us no-reader baseline",
                row.mix, row.makespan_us, row.baseline_makespan_us
            ));
        }
        if (row.msgs_per_update - row.baseline_msgs_per_update).abs() > EXACT_EPS {
            v.push(format!(
                "E19 {}: readers added network traffic — {} msgs/update under readers != {} no-reader baseline",
                row.mix, row.msgs_per_update, row.baseline_msgs_per_update
            ));
        }
        if row.answered + row.rejected != row.reads {
            v.push(format!(
                "E19 {}: answered {} + rejected {} != {} reads issued — reads went unaccounted",
                row.mix, row.answered, row.rejected, row.reads
            ));
        }
        if row.rejected != row.expected_rejected {
            v.push(format!(
                "E19 {}: staleness rejections {} diverged from the delivery-ledger oracle's {}",
                row.mix, row.rejected, row.expected_rejected
            ));
        }
        if !row.reads_match_recompute {
            v.push(format!(
                "E19 {}: an answered read diverged from fresh recompute at its pinned epoch",
                row.mix
            ));
        }
        if !row.subs_match_installs {
            v.push(format!(
                "E19 {}: a subscription stream did not replay the install log in ticket order",
                row.mix
            ));
        }
        if row.snapshots_published == 0 {
            v.push(format!(
                "E19 {}: the install pipeline published no snapshots — the serving layer saw nothing",
                row.mix
            ));
        }
        if row.answered == 0 || row.read_qps <= 0.0 {
            v.push(format!(
                "E19 {}: answered {} reads (read_qps {}) — the read path is dead",
                row.mix, row.answered, row.read_qps
            ));
        }
        if !row.quiescent {
            v.push(format!("E19 {}: run did not drain", row.mix));
        }
    }
    let e20_labels: BTreeSet<&str> = report.e20.iter().map(|r| r.label.as_str()).collect();
    if e20_labels.len() < 2 {
        v.push(format!(
            "E20: the DAG must be exercised at >= 2 distinct stack shapes, got {:?}",
            e20_labels
        ));
    }
    for row in &report.e20 {
        let expect = (2 * (row.n - 1)) as f64;
        if (row.expected_msgs_per_update - expect).abs() > EXACT_EPS {
            v.push(format!(
                "E20 {}: recorded expectation {} != 2(n-1) = {expect}",
                row.label, row.expected_msgs_per_update
            ));
        }
        if (row.msgs_per_update - expect).abs() > EXACT_EPS {
            v.push(format!(
                "E20 {}: base maintenance left the 2(n-1) line — {} msgs/update != {expect}",
                row.label, row.msgs_per_update
            ));
        }
        if (row.msgs_per_update - row.baseline_msgs_per_update).abs() > EXACT_EPS
            || row.derived_source_msgs != 0
        {
            v.push(format!(
                "E20 {}: derived maintenance touched the sources — {} msgs/update with the \
                 stack vs {} without ({} extra source messages); children must be fed \
                 locally by the cascade",
                row.label,
                row.msgs_per_update,
                row.baseline_msgs_per_update,
                row.derived_source_msgs
            ));
        }
        if row.derived == 0 {
            v.push(format!("E20 {}: no derived stack registered", row.label));
        }
        if row.child_installs == 0 {
            v.push(format!(
                "E20 {}: the cascade never fed a child — derived views went unmaintained",
                row.label
            ));
        }
        if !row.aggregate_fidelity {
            v.push(format!(
                "E20 {}: a derived view diverged from fresh recompute over its parent at \
                 an install epoch",
                row.label
            ));
        }
        if row.label == "sibling-fanout" && row.shared_derivations != 2 * row.linear_evals {
            v.push(format!(
                "E20 {}: the sibling memo broke — {} shared derivations != 2 x {} fresh \
                 evaluations for 3 identical siblings",
                row.label, row.shared_derivations, row.linear_evals
            ));
        }
        if !row.quiescent {
            v.push(format!("E20 {}: run did not drain", row.label));
        }
    }
    let e21_mixes: BTreeSet<&str> = report.e21.iter().map(|r| r.mix.as_str()).collect();
    if e21_mixes.len() < 2 {
        v.push(format!(
            "E21: serving scale must be exercised at >= 2 distinct key distributions, got {:?}",
            e21_mixes
        ));
    }
    for row in &report.e21 {
        if !row.answers_match {
            v.push(format!(
                "E21 {}: the accelerated arm's answers diverged from the linear-scan arm — \
                 the index or cache is visible to correctness",
                row.mix
            ));
        }
        if row.speedup + EXACT_EPS < row.expected_min_speedup {
            v.push(format!(
                "E21 {}: point-read speedup {:.2} below the {}x floor — {} linear work tuples \
                 vs {} accelerated",
                row.mix,
                row.speedup,
                row.expected_min_speedup,
                row.linear_work_tuples,
                row.accel_work_tuples
            ));
        }
        if row.bags_deep_cloned != row.snapshots_published {
            v.push(format!(
                "E21 {}: {} serve-side bag deep copies != {} installs — the read path broke \
                 the one-copy-per-freeze promise",
                row.mix, row.bags_deep_cloned, row.snapshots_published
            ));
        }
        if row.makespan_us != row.baseline_makespan_us {
            v.push(format!(
                "E21 {}: accelerated readers perturbed maintenance — makespan {}us != {}us \
                 no-reader baseline",
                row.mix, row.makespan_us, row.baseline_makespan_us
            ));
        }
        if row.index_builds == 0 || row.index_hits == 0 {
            v.push(format!(
                "E21 {}: the point index never engaged ({} builds, {} hits)",
                row.mix, row.index_builds, row.index_hits
            ));
        }
        if row.cache_hits == 0 {
            v.push(format!(
                "E21 {}: the answer cache never hit — the read-through path is dead",
                row.mix
            ));
        }
        if row.lag_events == 0 || row.lag_resumes == 0 {
            v.push(format!(
                "E21 {}: backpressure never fired ({} lag events, {} resumes) — the bounded \
                 subscription arm is dead",
                row.mix, row.lag_events, row.lag_resumes
            ));
        }
        if !row.lag_stream_equivalent {
            v.push(format!(
                "E21 {}: a lagged subscriber's resumed stream diverged from the unbounded \
                 stream — Stale View Cleaning recovery is broken",
                row.mix
            ));
        }
        if row.point_reads == 0 {
            v.push(format!("E21 {}: no point reads issued", row.mix));
        }
        if !row.quiescent {
            v.push(format!("E21 {}: run did not drain", row.mix));
        }
    }
    v
}

/// Diff a fresh report against the committed baseline. Returns the list
/// of violations; empty means the gate passes. Wall-clock is never
/// compared here — see the module docs.
pub fn gate(baseline: &PerfReport, fresh: &PerfReport) -> Vec<String> {
    let mut v = Vec::new();
    if baseline.mode != fresh.mode {
        v.push(format!(
            "mode mismatch: baseline '{}' vs fresh '{}' — rerun with the matching mode",
            baseline.mode, fresh.mode
        ));
        return v;
    }

    v.extend(invariant_violations(fresh));

    for base_row in &baseline.e1 {
        let Some(row) = fresh.e1.iter().find(|r| r.policy == base_row.policy) else {
            v.push(format!(
                "E1: policy '{}' missing from fresh report",
                base_row.policy
            ));
            continue;
        };
        let what = format!("E1 {}", row.policy);
        check_downgrade(&mut v, &what, &base_row.consistency, &row.consistency);
        check_ratio(
            &mut v,
            &format!("{what} msgs/update"),
            base_row.msgs_per_update,
            row.msgs_per_update,
            true,
        );
        check_ratio(
            &mut v,
            &format!("{what} installs"),
            base_row.installs as f64,
            row.installs as f64,
            false,
        );
        check_ratio(
            &mut v,
            &format!("{what} staleness p95"),
            base_row.stale_p95_us as f64,
            row.stale_p95_us as f64,
            true,
        );
    }

    for base_row in &baseline.e6 {
        let Some(row) = fresh.e6.iter().find(|r| r.n == base_row.n) else {
            v.push(format!("E6: n={} missing from fresh report", base_row.n));
            continue;
        };
        check_downgrade(
            &mut v,
            &format!("E6 n={}", row.n),
            &base_row.consistency,
            &row.consistency,
        );
    }

    for base_row in &baseline.e12 {
        let Some(row) = fresh
            .e12
            .iter()
            .find(|r| (r.loss_pct - base_row.loss_pct).abs() < EXACT_EPS)
        else {
            v.push(format!(
                "E12: loss={}% missing from fresh report",
                base_row.loss_pct
            ));
            continue;
        };
        let what = format!("E12 loss={}%", row.loss_pct);
        check_downgrade(&mut v, &what, &base_row.consistency, &row.consistency);
        check_ratio(
            &mut v,
            &format!("{what} wire inflation"),
            base_row.inflation,
            row.inflation,
            true,
        );
        check_ratio(
            &mut v,
            &format!("{what} staleness p95"),
            base_row.stale_p95_us as f64,
            row.stale_p95_us as f64,
            true,
        );
    }

    for base_row in &baseline.e14 {
        let Some(row) = fresh.e14.iter().find(|r| r.views == base_row.views) else {
            v.push(format!(
                "E14: V={} missing from fresh report",
                base_row.views
            ));
            continue;
        };
        let what = format!("E14 V={}", row.views);
        check_downgrade(
            &mut v,
            &what,
            &base_row.min_consistency,
            &row.min_consistency,
        );
        check_ratio(
            &mut v,
            &format!("{what} staleness p95"),
            base_row.stale_p95_us as f64,
            row.stale_p95_us as f64,
            true,
        );
    }

    for base_row in &baseline.e15 {
        let Some(row) = fresh.e15.iter().find(|r| r.batch == base_row.batch) else {
            v.push(format!(
                "E15: k={} missing from fresh report",
                base_row.batch
            ));
            continue;
        };
        let what = format!("E15 k={}", row.batch);
        check_downgrade(
            &mut v,
            &what,
            &base_row.min_consistency,
            &row.min_consistency,
        );
        check_ratio(
            &mut v,
            &format!("{what} msgs/update"),
            base_row.msgs_per_update,
            row.msgs_per_update,
            true,
        );
        check_ratio(
            &mut v,
            &format!("{what} staleness p95"),
            base_row.stale_p95_us as f64,
            row.stale_p95_us as f64,
            true,
        );
    }

    for base_row in &baseline.e16 {
        let Some(row) = fresh.e16.iter().find(|r| r.label == base_row.label) else {
            v.push(format!(
                "E16: label '{}' missing from fresh report",
                base_row.label
            ));
            continue;
        };
        let what = format!("E16 {}", row.label);
        check_downgrade(
            &mut v,
            &what,
            &base_row.min_consistency,
            &row.min_consistency,
        );
        check_ratio(
            &mut v,
            &format!("{what} pushed answer bytes"),
            base_row.answer_bytes_pushed as f64,
            row.answer_bytes_pushed as f64,
            true,
        );
        check_ratio(
            &mut v,
            &format!("{what} answer reduction"),
            base_row.answer_reduction_pct,
            row.answer_reduction_pct,
            false,
        );
    }

    for base_row in &baseline.e17 {
        let Some(row) = fresh
            .e17
            .iter()
            .find(|r| r.checkpoint_every == base_row.checkpoint_every)
        else {
            v.push(format!(
                "E17: ckpt={} missing from fresh report",
                base_row.checkpoint_every
            ));
            continue;
        };
        let what = format!("E17 ckpt={}", row.checkpoint_every);
        check_ratio(
            &mut v,
            &format!("{what} recovery latency"),
            base_row.recovery_latency_us as f64,
            row.recovery_latency_us as f64,
            true,
        );
        check_ratio(
            &mut v,
            &format!("{what} replayed WAL bytes"),
            base_row.wal_bytes_replayed as f64,
            row.wal_bytes_replayed as f64,
            true,
        );
        check_ratio(
            &mut v,
            &format!("{what} staleness spike"),
            base_row.stale_max_us as f64,
            row.stale_max_us as f64,
            true,
        );
    }

    for base_row in &baseline.e18 {
        let Some(row) = fresh.e18.iter().find(|r| r.shards == base_row.shards) else {
            v.push(format!(
                "E18: S={} missing from fresh report",
                base_row.shards
            ));
            continue;
        };
        let what = format!("E18 S={}", row.shards);
        check_ratio(
            &mut v,
            &format!("{what} speedup"),
            base_row.speedup,
            row.speedup,
            false,
        );
        check_ratio(
            &mut v,
            &format!("{what} makespan"),
            base_row.makespan_us as f64,
            row.makespan_us as f64,
            true,
        );
    }

    for base_row in &baseline.e19 {
        let Some(row) = fresh.e19.iter().find(|r| r.mix == base_row.mix) else {
            v.push(format!(
                "E19: mix '{}' missing from fresh report",
                base_row.mix
            ));
            continue;
        };
        let what = format!("E19 {}", row.mix);
        check_ratio(
            &mut v,
            &format!("{what} read qps"),
            base_row.read_qps,
            row.read_qps,
            false,
        );
        check_ratio(
            &mut v,
            &format!("{what} makespan"),
            base_row.makespan_us as f64,
            row.makespan_us as f64,
            true,
        );
    }

    for base_row in &baseline.e20 {
        let Some(row) = fresh.e20.iter().find(|r| r.label == base_row.label) else {
            v.push(format!(
                "E20: stack '{}' missing from fresh report",
                base_row.label
            ));
            continue;
        };
        let what = format!("E20 {}", row.label);
        check_ratio(
            &mut v,
            &format!("{what} sharing ratio"),
            base_row.sharing_ratio,
            row.sharing_ratio,
            false,
        );
        check_ratio(
            &mut v,
            &format!("{what} child installs"),
            base_row.child_installs as f64,
            row.child_installs as f64,
            false,
        );
    }

    for base_row in &baseline.e21 {
        let Some(row) = fresh.e21.iter().find(|r| r.mix == base_row.mix) else {
            v.push(format!(
                "E21: mix '{}' missing from fresh report",
                base_row.mix
            ));
            continue;
        };
        let what = format!("E21 {}", row.mix);
        check_ratio(
            &mut v,
            &format!("{what} point-read speedup"),
            base_row.speedup,
            row.speedup,
            false,
        );
        check_ratio(
            &mut v,
            &format!("{what} cache hit ratio"),
            base_row.cache_hit_ratio,
            row.cache_hit_ratio,
            false,
        );
        check_ratio(
            &mut v,
            &format!("{what} accelerated work"),
            base_row.accel_work_tuples as f64,
            row.accel_work_tuples as f64,
            true,
        );
    }

    v
}

// ----------------------------------------------------- invariant digest

/// The mode-independent facts of a report: what must agree between a
/// `--smoke` run and a full run even though the workloads differ in size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantDigest {
    /// Verified consistency level per E1 policy.
    pub e1_levels: Vec<(String, String)>,
    /// Every E6 row sits exactly on the `2(n−1)` line.
    pub e6_exact: bool,
    /// Distinct consistency levels across E6 rows.
    pub e6_levels: BTreeSet<String>,
    /// Every E12 row pins logical msgs/update to `2(n−1)` and drains.
    pub e12_pinned: bool,
    /// Distinct consistency levels across E12 rows.
    pub e12_levels: BTreeSet<String>,
    /// Every E14 row keeps shared cost on `2(n−1)` (view-count
    /// independent), naive cost on `V·2(n−1)`, and mutual agreement.
    pub e14_flat: bool,
    /// Distinct weakest-view consistency levels across E14 rows.
    pub e14_levels: BTreeSet<String>,
    /// Every E15 row sits on the exact `1 + ⌈(U−1)/k⌉` batching
    /// schedule, drains, and keeps mutual agreement.
    pub e15_amortized: bool,
    /// Distinct weakest-view consistency levels across E15 rows.
    pub e15_levels: BTreeSet<String>,
    /// Every E16 row keeps the hop count pinned and never inflates the
    /// answers, and the selective row strictly shrinks them.
    pub e16_reduced: bool,
    /// Distinct weakest-view consistency levels across E16 rows.
    pub e16_levels: BTreeSet<String>,
    /// Every E17 row recovers to the fault-free run (converged, drained,
    /// ≥ 1 recovery), the staleness spike stays bounded, and replayed WAL
    /// bytes are monotone in the checkpoint interval.
    pub e17_recovered: bool,
    /// Every E18 row stays on `2(n−1)` with zero escalations, clears its
    /// `0.7·S` speedup floor, conforms to the unsharded install sequence,
    /// and drains.
    pub e18_scaled: bool,
    /// Every E19 row serves without perturbing maintenance (makespan and
    /// message cost equal the no-reader referee), answers at
    /// fresh-recompute fidelity, rejects exactly per the staleness
    /// oracle, and replays installs to subscribers in ticket order.
    pub e19_served: bool,
    /// Every E20 row keeps the base bill on the exact `2(n−1)` line and
    /// byte-identical to the stack-free referee (derived maintenance
    /// costs zero source messages), feeds every child through the
    /// cascade, keeps the sibling memo sharing, and holds fresh-recompute
    /// fidelity for the whole stack.
    pub e20_dag: bool,
    /// Every E21 row answers byte-identically with and without the
    /// accelerators, clears its speedup floor, keeps exactly one
    /// serve-side bag deep copy per install, leaves maintenance
    /// untouched, and recovers every lagged subscriber through an
    /// equivalent resumed stream.
    pub e21_scaled: bool,
}

impl InvariantDigest {
    /// Extract the digest from a report.
    pub fn of(report: &PerfReport) -> InvariantDigest {
        InvariantDigest {
            e1_levels: report
                .e1
                .iter()
                .map(|r| (r.policy.clone(), r.consistency.clone()))
                .collect(),
            e6_exact: report.e6.iter().all(|r| {
                let expect = (2 * (r.n - 1)) as f64;
                (r.sparse_msgs_per_update - expect).abs() < EXACT_EPS
                    && (r.dense_msgs_per_update - expect).abs() < EXACT_EPS
            }),
            e6_levels: report.e6.iter().map(|r| r.consistency.clone()).collect(),
            e12_pinned: report.e12.iter().all(|r| {
                (r.logical_msgs_per_update - r.expected_msgs_per_update).abs() < EXACT_EPS
                    && r.quiescent
            }),
            e12_levels: report.e12.iter().map(|r| r.consistency.clone()).collect(),
            e14_flat: report.e14.iter().all(|r| {
                (r.shared_msgs_per_update - (2 * (r.n - 1)) as f64).abs() < EXACT_EPS
                    && (r.naive_msgs_per_update - (r.views * 2 * (r.n - 1)) as f64).abs()
                        < EXACT_EPS
                    && r.mutual_agreement
            }),
            e14_levels: report
                .e14
                .iter()
                .map(|r| r.min_consistency.clone())
                .collect(),
            e15_amortized: report.e15.iter().all(|r| {
                r.batch > 0
                    && r.updates > 0
                    && r.sweeps == 1 + (r.updates - 1).div_ceil(r.batch)
                    && (r.msgs_per_update
                        - (2 * (r.n - 1)) as f64 * r.sweeps as f64 / r.updates as f64)
                        .abs()
                        < EXACT_EPS
                    && r.mutual_agreement
                    && r.quiescent
            }),
            e15_levels: report
                .e15
                .iter()
                .map(|r| r.min_consistency.clone())
                .collect(),
            e16_reduced: report.e16.iter().all(|r| {
                r.query_msgs_pushed == r.query_msgs_plain
                    && r.answer_bytes_pushed <= r.answer_bytes_plain
                    && (r.label != "selective" || r.answer_bytes_pushed < r.answer_bytes_plain)
                    && r.mutual_agreement
                    && r.quiescent
            }),
            e16_levels: report
                .e16
                .iter()
                .map(|r| r.min_consistency.clone())
                .collect(),
            e17_recovered: report.e17.iter().all(|r| {
                r.converged
                    && r.quiescent
                    && r.recoveries >= 1
                    && r.stale_max_us <= r.stale_bound_us
            }) && report.e17.windows(2).all(|p| {
                p[1].checkpoint_every <= p[0].checkpoint_every
                    || p[1].wal_bytes_replayed >= p[0].wal_bytes_replayed
            }),
            e18_scaled: report.e18.iter().all(|r| {
                (r.msgs_per_update - (2 * (r.n - 1)) as f64).abs() < EXACT_EPS
                    && r.escalations == 0
                    && r.speedup + EXACT_EPS >= r.expected_min_speedup
                    && r.conforms
                    && r.quiescent
            }),
            e19_served: report.e19.iter().all(|r| {
                r.makespan_us == r.baseline_makespan_us
                    && (r.msgs_per_update - r.baseline_msgs_per_update).abs() < EXACT_EPS
                    && r.answered + r.rejected == r.reads
                    && r.rejected == r.expected_rejected
                    && r.answered > 0
                    && r.snapshots_published > 0
                    && r.reads_match_recompute
                    && r.subs_match_installs
                    && r.quiescent
            }),
            e20_dag: report.e20.iter().all(|r| {
                (r.msgs_per_update - (2 * (r.n - 1)) as f64).abs() < EXACT_EPS
                    && (r.msgs_per_update - r.baseline_msgs_per_update).abs() < EXACT_EPS
                    && r.derived_source_msgs == 0
                    && r.derived > 0
                    && r.child_installs > 0
                    && (r.label != "sibling-fanout" || r.shared_derivations == 2 * r.linear_evals)
                    && r.aggregate_fidelity
                    && r.quiescent
            }),
            e21_scaled: report.e21.iter().all(|r| {
                r.answers_match
                    && r.speedup + EXACT_EPS >= r.expected_min_speedup
                    && r.bags_deep_cloned == r.snapshots_published
                    && r.makespan_us == r.baseline_makespan_us
                    && r.index_builds > 0
                    && r.cache_hits > 0
                    && r.lag_events > 0
                    && r.lag_stream_equivalent
                    && r.quiescent
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built healthy report matching the shapes `collect` emits.
    fn healthy() -> PerfReport {
        PerfReport {
            mode: "smoke".to_string(),
            e1: vec![
                E1Row {
                    policy: "SWEEP".to_string(),
                    consistency: "complete".to_string(),
                    msgs_per_update: 6.0,
                    installs: 12,
                    updates: 12,
                    local_compensations: 9,
                    compensation_queries: 0,
                    stale_p50_us: 12_000,
                    stale_p95_us: 20_000,
                    stale_p99_us: 21_000,
                },
                E1Row {
                    policy: "Strobe".to_string(),
                    consistency: "strong".to_string(),
                    msgs_per_update: 6.5,
                    installs: 3,
                    updates: 12,
                    local_compensations: 0,
                    compensation_queries: 4,
                    stale_p50_us: 30_000,
                    stale_p95_us: 55_000,
                    stale_p99_us: 60_000,
                },
            ],
            e6: vec![
                E6Row {
                    n: 2,
                    expected_msgs_per_update: 2.0,
                    sparse_msgs_per_update: 2.0,
                    dense_msgs_per_update: 2.0,
                    dense_compensations: 3,
                    consistency: "complete".to_string(),
                },
                E6Row {
                    n: 8,
                    expected_msgs_per_update: 14.0,
                    sparse_msgs_per_update: 14.0,
                    dense_msgs_per_update: 14.0,
                    dense_compensations: 40,
                    consistency: "complete".to_string(),
                },
            ],
            e12: vec![E12Row {
                loss_pct: 5.0,
                logical_msgs_per_update: 4.0,
                expected_msgs_per_update: 4.0,
                inflation: 1.2,
                consistency: "complete".to_string(),
                quiescent: true,
                stale_p50_us: 14_000,
                stale_p95_us: 80_000,
                stale_p99_us: 90_000,
            }],
            e14: vec![E14Row {
                views: 3,
                n: 4,
                expected_shared: 6.0,
                shared_msgs_per_update: 6.0,
                expected_naive: 18.0,
                naive_msgs_per_update: 18.0,
                sharing_ratio: 3.0,
                min_consistency: "strong".to_string(),
                mutual_agreement: true,
                stale_p50_us: 9_000,
                stale_p95_us: 30_000,
                stale_p99_us: 34_000,
            }],
            e15: vec![
                E15Row {
                    batch: 1,
                    n: 5,
                    updates: 25,
                    sweeps: 25,
                    expected_msgs_per_update: 8.0,
                    msgs_per_update: 8.0,
                    amortized_floor: 8.0,
                    min_consistency: "complete".to_string(),
                    mutual_agreement: true,
                    quiescent: true,
                    stale_p50_us: 90_000,
                    stale_p95_us: 180_000,
                    stale_p99_us: 195_000,
                },
                E15Row {
                    batch: 4,
                    n: 5,
                    updates: 25,
                    sweeps: 7,
                    expected_msgs_per_update: 8.0 * 7.0 / 25.0,
                    msgs_per_update: 8.0 * 7.0 / 25.0,
                    amortized_floor: 2.0,
                    min_consistency: "strong".to_string(),
                    mutual_agreement: true,
                    quiescent: true,
                    stale_p50_us: 60_000,
                    stale_p95_us: 120_000,
                    stale_p99_us: 130_000,
                },
            ],
            e16: vec![
                E16Row {
                    label: "none".to_string(),
                    n: 4,
                    views: 2,
                    updates: 10,
                    query_msgs_plain: 60,
                    query_msgs_pushed: 60,
                    query_bytes_plain: 5_000,
                    query_bytes_pushed: 5_000,
                    answer_bytes_plain: 8_000,
                    answer_bytes_pushed: 8_000,
                    answer_reduction_pct: 0.0,
                    min_consistency: "strong".to_string(),
                    mutual_agreement: true,
                    quiescent: true,
                },
                E16Row {
                    label: "selective".to_string(),
                    n: 4,
                    views: 2,
                    updates: 10,
                    query_msgs_plain: 60,
                    query_msgs_pushed: 60,
                    query_bytes_plain: 5_000,
                    query_bytes_pushed: 4_200,
                    answer_bytes_plain: 8_000,
                    answer_bytes_pushed: 3_000,
                    answer_reduction_pct: 100.0 * 5_000.0 / 8_000.0,
                    min_consistency: "strong".to_string(),
                    mutual_agreement: true,
                    quiescent: true,
                },
            ],
            e17: vec![
                E17Row {
                    checkpoint_every: 1,
                    n: 4,
                    views: 2,
                    updates: 6,
                    converged: true,
                    recoveries: 1,
                    wal_records_replayed: 4,
                    wal_bytes_replayed: 300,
                    sweeps_reseeded: 1,
                    stale_answers_dropped: 1,
                    checkpoints_taken: 7,
                    wal_bytes_written: 2_400,
                    recovery_latency_us: 9_000,
                    stale_max_us: 24_000,
                    stale_bound_us: 75_000,
                    quiescent: true,
                },
                E17Row {
                    checkpoint_every: 16,
                    n: 4,
                    views: 2,
                    updates: 6,
                    converged: true,
                    recoveries: 1,
                    wal_records_replayed: 40,
                    wal_bytes_replayed: 2_100,
                    sweeps_reseeded: 1,
                    stale_answers_dropped: 1,
                    checkpoints_taken: 2,
                    wal_bytes_written: 2_400,
                    recovery_latency_us: 9_000,
                    stale_max_us: 24_000,
                    stale_bound_us: 75_000,
                    quiescent: true,
                },
            ],
            e18: vec![
                E18Row {
                    shards: 1,
                    n: 3,
                    views: 2,
                    updates: 24,
                    makespan_us: 96_000,
                    speedup: 1.0,
                    expected_min_speedup: 1.0,
                    msgs_per_update: 4.0,
                    expected_msgs_per_update: 4.0,
                    escalations: 0,
                    max_lanes: 1,
                    conforms: true,
                    quiescent: true,
                },
                E18Row {
                    shards: 2,
                    n: 3,
                    views: 2,
                    updates: 24,
                    makespan_us: 48_000,
                    speedup: 2.0,
                    expected_min_speedup: 1.4,
                    msgs_per_update: 4.0,
                    expected_msgs_per_update: 4.0,
                    escalations: 0,
                    max_lanes: 2,
                    conforms: true,
                    quiescent: true,
                },
                E18Row {
                    shards: 4,
                    n: 3,
                    views: 2,
                    updates: 24,
                    makespan_us: 24_000,
                    speedup: 4.0,
                    expected_min_speedup: 2.8,
                    msgs_per_update: 4.0,
                    expected_msgs_per_update: 4.0,
                    escalations: 0,
                    max_lanes: 4,
                    conforms: true,
                    quiescent: true,
                },
            ],
            e19: vec![
                E19Row {
                    mix: "point-heavy".to_string(),
                    n: 3,
                    views: 3,
                    updates: 16,
                    reads: 30,
                    answered: 26,
                    rejected: 4,
                    expected_rejected: 4,
                    read_qps: 260.0,
                    makespan_us: 96_000,
                    baseline_makespan_us: 96_000,
                    msgs_per_update: 4.0,
                    baseline_msgs_per_update: 4.0,
                    snapshots_published: 48,
                    snapshots_gced: 45,
                    reads_match_recompute: true,
                    subs_match_installs: true,
                    quiescent: true,
                },
                E19Row {
                    mix: "scan-heavy".to_string(),
                    n: 3,
                    views: 3,
                    updates: 16,
                    reads: 31,
                    answered: 25,
                    rejected: 6,
                    expected_rejected: 6,
                    read_qps: 250.0,
                    makespan_us: 96_000,
                    baseline_makespan_us: 96_000,
                    msgs_per_update: 4.0,
                    baseline_msgs_per_update: 4.0,
                    snapshots_published: 48,
                    snapshots_gced: 44,
                    reads_match_recompute: true,
                    subs_match_installs: true,
                    quiescent: true,
                },
            ],
            e20: vec![
                E20Row {
                    label: "sibling-fanout".to_string(),
                    n: 3,
                    views: 1,
                    derived: 4,
                    updates: 14,
                    expected_msgs_per_update: 4.0,
                    msgs_per_update: 4.0,
                    baseline_msgs_per_update: 4.0,
                    derived_source_msgs: 0,
                    child_installs: 56,
                    shared_derivations: 28,
                    linear_evals: 14,
                    sharing_ratio: 2.0 / 3.0,
                    aggregate_fidelity: true,
                    quiescent: true,
                },
                E20Row {
                    label: "deep-stack".to_string(),
                    n: 3,
                    views: 1,
                    derived: 3,
                    updates: 14,
                    expected_msgs_per_update: 4.0,
                    msgs_per_update: 4.0,
                    baseline_msgs_per_update: 4.0,
                    derived_source_msgs: 0,
                    child_installs: 42,
                    shared_derivations: 0,
                    linear_evals: 28,
                    sharing_ratio: 0.0,
                    aggregate_fidelity: true,
                    quiescent: true,
                },
            ],
            e21: vec![
                E21Row {
                    mix: "hot-key-skew".to_string(),
                    n: 3,
                    views: 3,
                    updates: 16,
                    point_reads: 130,
                    linear_work_tuples: 8_200,
                    accel_work_tuples: 640,
                    speedup: 8_200.0 / 640.0,
                    expected_min_speedup: 5.0,
                    index_builds: 3,
                    index_derives: 90,
                    index_hits: 120,
                    cache_hits: 70,
                    cache_misses: 60,
                    cache_evictions: 4,
                    cache_hit_ratio: 70.0 / 130.0,
                    bags_deep_cloned: 48,
                    snapshots_published: 48,
                    answers_match: true,
                    makespan_us: 96_000,
                    baseline_makespan_us: 96_000,
                    lag_events: 3,
                    lag_resumes: 3,
                    lag_stream_equivalent: true,
                    quiescent: true,
                },
                E21Row {
                    mix: "uniform".to_string(),
                    n: 3,
                    views: 3,
                    updates: 16,
                    point_reads: 128,
                    linear_work_tuples: 8_000,
                    accel_work_tuples: 1_900,
                    speedup: 8_000.0 / 1_900.0,
                    expected_min_speedup: 1.0,
                    index_builds: 3,
                    index_derives: 90,
                    index_hits: 118,
                    cache_hits: 12,
                    cache_misses: 116,
                    cache_evictions: 30,
                    cache_hit_ratio: 12.0 / 128.0,
                    bags_deep_cloned: 48,
                    snapshots_published: 48,
                    answers_match: true,
                    makespan_us: 96_000,
                    baseline_makespan_us: 96_000,
                    lag_events: 3,
                    lag_resumes: 3,
                    lag_stream_equivalent: true,
                    quiescent: true,
                },
            ],
            phase_wall_ms: vec![("E1".to_string(), 12.5)],
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let report = healthy();
        let text = report.to_json().render();
        let back = PerfReport::from_text(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn schema_version_mismatch_rejected() {
        let mut doc = healthy().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::Num(999.0);
        }
        let err = PerfReport::from_json(&doc).unwrap_err();
        assert!(err.contains("re-baseline"), "{err}");
    }

    #[test]
    fn clean_report_passes_gate() {
        assert_eq!(gate(&healthy(), &healthy()), Vec::<String>::new());
    }

    #[test]
    fn injected_message_linearity_violation_fails_gate() {
        // The acceptance demo: a run whose SWEEP stops being 2(n−1) —
        // say a regression starts sending one extra query per update —
        // must be caught even if the baseline is healthy.
        let mut fresh = healthy();
        fresh.e6[1].dense_msgs_per_update = 16.0; // 2(n−1) = 14 for n = 8
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("2(n-1)")),
            "expected a 2(n-1) violation, got {violations:?}"
        );
    }

    #[test]
    fn consistency_downgrade_fails_gate() {
        let mut fresh = healthy();
        fresh.e12[0].consistency = "strong".to_string();
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("downgraded") || v.contains("!= 'complete'")),
            "expected a downgrade violation, got {violations:?}"
        );

        let mut fresh = healthy();
        fresh.e1[1].consistency = "weak".to_string();
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("downgraded from 'strong' to 'weak'")),
            "got {violations:?}"
        );
    }

    #[test]
    fn ratio_regression_fails_gate_and_improvement_passes() {
        // >25% more messages per update: fail.
        let mut fresh = healthy();
        fresh.e1[1].msgs_per_update = healthy().e1[1].msgs_per_update * 1.3;
        assert!(!gate(&healthy(), &fresh).is_empty());

        // >25% fewer installs (view goes stale): fail.
        let mut fresh = healthy();
        fresh.e1[0].installs = 8;
        assert!(!gate(&healthy(), &fresh).is_empty());

        // Staleness p95 blow-up under faults: fail.
        let mut fresh = healthy();
        fresh.e12[0].stale_p95_us = 120_000;
        assert!(!gate(&healthy(), &fresh).is_empty());

        // Improvements in the good direction never trip the gate.
        let mut fresh = healthy();
        fresh.e1[1].msgs_per_update = 4.0;
        fresh.e1[0].installs = 24;
        fresh.e12[0].stale_p95_us = 10_000;
        fresh.e12[0].inflation = 1.0;
        assert_eq!(gate(&healthy(), &fresh), Vec::<String>::new());
    }

    #[test]
    fn shared_sweep_losing_view_independence_fails_gate() {
        // The new E14 rule: shared sweep drifting off 2(n−1) — e.g. a
        // regression that stops reusing the per-hop answer across views
        // and starts paying per view — must trip the gate even against a
        // healthy baseline.
        let mut fresh = healthy();
        fresh.e14[0].shared_msgs_per_update = 10.0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("must not scale with view count")),
            "expected a view-count-independence violation, got {violations:?}"
        );

        let mut fresh = healthy();
        fresh.e14[0].mutual_agreement = false;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("disagree")),
            "expected a mutual-agreement violation, got {violations:?}"
        );

        let mut fresh = healthy();
        fresh.e14[0].min_consistency = "convergent".to_string();
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("below 'strong'")),
            "expected a consistency-floor violation, got {violations:?}"
        );

        let mut fresh = healthy();
        fresh.e14.clear();
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("E14") && v.contains("missing")),
            "expected a missing-row violation, got {violations:?}"
        );
    }

    #[test]
    fn broken_batching_amortization_fails_gate() {
        // A regression that stops folding the queue — every queued update
        // still pays its own sweep — breaks the exact sweep-count
        // schedule even against a healthy baseline.
        let mut fresh = healthy();
        fresh.e15[1].sweeps = 25;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("did not fold the queue")),
            "expected a fold violation, got {violations:?}"
        );

        // Message cost rising with the batch width is flagged even when
        // each row is internally consistent with its own sweep count.
        let mut fresh = healthy();
        fresh.e15[1].sweeps = 29;
        fresh.e15[1].msgs_per_update = 8.0 * 29.0 / 25.0;
        fresh.e15[1].expected_msgs_per_update = 8.0 * 29.0 / 25.0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("must never cost")),
            "expected a monotonicity violation, got {violations:?}"
        );

        // Batched installs may skip states (strong) but never weaker.
        let mut fresh = healthy();
        fresh.e15[1].min_consistency = "weak".to_string();
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("below 'strong'")),
            "expected a consistency-floor violation, got {violations:?}"
        );

        let mut fresh = healthy();
        fresh.e15.remove(1);
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("E15") && v.contains("missing")),
            "expected a missing-row violation, got {violations:?}"
        );
    }

    #[test]
    fn pushdown_inflating_the_wire_fails_gate() {
        // A regression that ships *more* tuples under pushdown — say the
        // source stops filtering but the warehouse still pays the
        // predicate bytes — must be caught against a healthy baseline.
        let mut fresh = healthy();
        fresh.e16[1].answer_bytes_pushed = 9_000;
        fresh.e16[1].answer_reduction_pct = 100.0 * -1_000.0 / 8_000.0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("must never ship more tuples")),
            "expected an answer-inflation violation, got {violations:?}"
        );

        // Pushdown silently degrading to a no-op on the selective
        // workload kills the headline reduction.
        let mut fresh = healthy();
        fresh.e16[1].answer_bytes_pushed = 8_000;
        fresh.e16[1].query_bytes_pushed = 5_100;
        fresh.e16[1].answer_reduction_pct = 0.0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("no measurable reduction")),
            "expected a no-reduction violation, got {violations:?}"
        );

        // Pushdown must never change the hop structure.
        let mut fresh = healthy();
        fresh.e16[1].query_msgs_pushed = 72;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("changed the query/answer hop count")),
            "expected a hop-structure violation, got {violations:?}"
        );

        // The σ-free control must stay byte-identical in both directions.
        let mut fresh = healthy();
        fresh.e16[0].answer_bytes_pushed = 7_000;
        fresh.e16[0].answer_reduction_pct = 100.0 * 1_000.0 / 8_000.0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("σ-free control diverged")),
            "expected a control-divergence violation, got {violations:?}"
        );

        // Filtered sweeps must not weaken the consistency floor.
        let mut fresh = healthy();
        fresh.e16[1].min_consistency = "convergent".to_string();
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("below 'strong'")),
            "expected a consistency-floor violation, got {violations:?}"
        );

        let mut fresh = healthy();
        fresh.e16.remove(1);
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("E16") && v.contains("missing")),
            "expected a missing-row violation, got {violations:?}"
        );
    }

    #[test]
    fn failed_recovery_fails_gate() {
        // The acceptance demo for E17: a crashed run that no longer lands
        // on the fault-free bags — a replay bug, a lost WAL suffix — must
        // be caught even against a healthy baseline.
        let mut fresh = healthy();
        fresh.e17[0].converged = false;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("did not converge")),
            "expected a convergence violation, got {violations:?}"
        );

        // A crash window that stops firing silently tests nothing.
        let mut fresh = healthy();
        fresh.e17[1].recoveries = 0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("no recovery fired")),
            "expected a no-recovery violation, got {violations:?}"
        );

        let mut fresh = healthy();
        fresh.e17.remove(1);
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("E17") && v.contains("missing")),
            "expected a missing-row violation, got {violations:?}"
        );
    }

    #[test]
    fn unbounded_staleness_spike_fails_gate() {
        // Recovery taking pathologically long — the view staying stale
        // past the recorded crash-window + retransmission budget — trips
        // the gate.
        let mut fresh = healthy();
        fresh.e17[0].stale_max_us = fresh.e17[0].stale_bound_us + 1;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("staleness spike") && v.contains("exceeds")),
            "expected a staleness-bound violation, got {violations:?}"
        );
    }

    #[test]
    fn nonmonotone_wal_replay_fails_gate() {
        // Rarer checkpoints must replay at least as much WAL: if the
        // ckpt=16 row replays *less* than ckpt=1, the WAL is being
        // truncated somewhere other than checkpointing.
        let mut fresh = healthy();
        fresh.e17[1].wal_bytes_replayed = fresh.e17[0].wal_bytes_replayed - 1;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("must never shorten the replay")),
            "expected a replay-monotonicity violation, got {violations:?}"
        );

        // Replaying more bytes than were ever appended is bookkeeping
        // corruption, not a bigger replay.
        let mut fresh = healthy();
        fresh.e17[1].wal_bytes_replayed = fresh.e17[1].wal_bytes_written + 1;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("were ever written")),
            "expected a replay-accounting violation, got {violations:?}"
        );
    }

    #[test]
    fn lost_sharded_scaling_fails_gate() {
        // The acceptance demo for E18: a scheduler change that quietly
        // serializes the lanes — speedup collapsing below 0.7·S — must be
        // caught even against a healthy baseline. Keep the row internally
        // consistent (speedup = m1/mS) so only the floor check fires.
        let mut fresh = healthy();
        fresh.e18[2].makespan_us = 64_000;
        fresh.e18[2].speedup = 1.5;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("below the") && v.contains("near-linear floor")),
            "expected a speedup-floor violation, got {violations:?}"
        );

        // A speedup column that stops agreeing with the recorded
        // makespans is bookkeeping corruption, not a faster engine.
        let mut fresh = healthy();
        fresh.e18[2].speedup = 5.0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("makespan(1)/makespan(S)")),
            "expected a speedup-accounting violation, got {violations:?}"
        );

        // Shard-local sweeps paying extra messages breaks the 2(n−1)
        // line.
        let mut fresh = healthy();
        fresh.e18[1].msgs_per_update = 5.0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("never extra traffic")),
            "expected a message-cost violation, got {violations:?}"
        );

        // Escalations on a shard-local workload mean the partitioner is
        // misrouting pure updates through the global lane.
        let mut fresh = healthy();
        fresh.e18[1].escalations = 3;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("misclassified")),
            "expected an escalation violation, got {violations:?}"
        );

        // Install order diverging from the unsharded engine kills the
        // whole construction — concurrency must be invisible downstream.
        let mut fresh = healthy();
        fresh.e18[1].conforms = false;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("diverged from the unsharded engine")),
            "expected a conformance violation, got {violations:?}"
        );

        let mut fresh = healthy();
        fresh.e18.remove(2);
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("E18") && v.contains("missing")),
            "expected a missing-row violation, got {violations:?}"
        );
    }

    #[test]
    fn reader_interference_fails_gate() {
        // The acceptance demo for E19: an install path that starts
        // waiting on readers — the makespan moving at all under a read
        // load — must be caught even against a healthy baseline.
        let mut fresh = healthy();
        fresh.e19[0].makespan_us = 97_000;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("readers must never block installs")),
            "expected an interference violation, got {violations:?}"
        );

        // Reads leaking onto the wire breaks the warehouse-local claim.
        let mut fresh = healthy();
        fresh.e19[1].msgs_per_update = 4.5;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("readers added network traffic")),
            "expected a traffic violation, got {violations:?}"
        );
    }

    #[test]
    fn serving_divergence_fails_gate() {
        // A snapshot read that stops matching a fresh recompute at its
        // pinned epoch is a torn or misapplied install.
        let mut fresh = healthy();
        fresh.e19[0].reads_match_recompute = false;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("diverged from fresh recompute")),
            "expected a recompute violation, got {violations:?}"
        );

        // Staleness verdicts drifting off the delivery-ledger oracle —
        // either spurious rejections or stale answers slipping through.
        let mut fresh = healthy();
        fresh.e19[1].rejected += 1;
        fresh.e19[1].answered -= 1;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("diverged from the delivery-ledger oracle")),
            "expected a staleness-oracle violation, got {violations:?}"
        );

        // A subscription stream skipping or reordering installs breaks
        // the ticket-order push contract.
        let mut fresh = healthy();
        fresh.e19[0].subs_match_installs = false;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("did not replay the install log")),
            "expected a subscription violation, got {violations:?}"
        );

        // The coverage floor: both read-mix levels must be present.
        let mut fresh = healthy();
        fresh.e19.remove(1);
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("E19") && v.contains("missing")),
            "expected a missing-row violation, got {violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("2 distinct read-mix levels")),
            "expected a mix-coverage violation, got {violations:?}"
        );
    }

    #[test]
    fn derived_source_bill_fails_gate() {
        // The acceptance demo for E20: a cascade regression that starts
        // paying source round-trips for child maintenance — even one
        // extra message over the stack-free referee — must be caught.
        let mut fresh = healthy();
        fresh.e20[0].derived_source_msgs = 2;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("derived maintenance touched the sources")),
            "expected a source-bill violation, got {violations:?}"
        );

        // The base bill drifting off 2(n−1) is the same failure seen
        // from the other side.
        let mut fresh = healthy();
        fresh.e20[1].msgs_per_update = 6.0;
        fresh.e20[1].baseline_msgs_per_update = 6.0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("left the 2(n-1) line")),
            "expected a base-bill violation, got {violations:?}"
        );
    }

    #[test]
    fn dag_divergence_fails_gate() {
        // A derived view (aggregate state or linear delta) drifting off
        // the fresh-recompute oracle at any epoch.
        let mut fresh = healthy();
        fresh.e20[0].aggregate_fidelity = false;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("diverged from fresh recompute over its parent")),
            "expected a fidelity violation, got {violations:?}"
        );

        // The sibling memo silently degrading to per-child evaluation:
        // message-neutral, fidelity-neutral, but the exact 1-eval-2-hits
        // schedule for 3 identical siblings breaks.
        let mut fresh = healthy();
        fresh.e20[0].shared_derivations = 0;
        fresh.e20[0].linear_evals = 42;
        fresh.e20[0].sharing_ratio = 0.0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("sibling memo broke")),
            "expected a memo violation, got {violations:?}"
        );

        // A dead cascade: the stack registered but never fed.
        let mut fresh = healthy();
        fresh.e20[1].child_installs = 0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("never fed a child")),
            "expected a dead-cascade violation, got {violations:?}"
        );

        // The coverage floor: both stack shapes must be present.
        let mut fresh = healthy();
        fresh.e20.remove(1);
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("E20") && v.contains("missing")),
            "expected a missing-row violation, got {violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("2 distinct stack shapes")),
            "expected a shape-coverage violation, got {violations:?}"
        );
    }

    #[test]
    fn serve_scale_regressions_fail_gate() {
        // The acceptance demo for E21: the accelerated read path slipping
        // below its 5x deterministic-work speedup floor on the skewed mix.
        let mut fresh = healthy();
        fresh.e21[0].accel_work_tuples = 4_000;
        fresh.e21[0].speedup = 8_200.0 / 4_000.0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations.iter().any(|v| v.contains("below the 5x floor")),
            "expected a speedup violation, got {violations:?}"
        );

        // The index or cache becoming visible to correctness — answers
        // that differ between the arms by even one byte.
        let mut fresh = healthy();
        fresh.e21[1].answers_match = false;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("diverged from the linear-scan arm")),
            "expected an answer-divergence violation, got {violations:?}"
        );

        // The zero-copy promise breaking: a read path that deep-copies a
        // bag shows up as clones exceeding installs.
        let mut fresh = healthy();
        fresh.e21[0].bags_deep_cloned += 5;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("one-copy-per-freeze promise")),
            "expected a zero-copy violation, got {violations:?}"
        );

        // A lagged subscriber resuming into a wrong snapshot or missing
        // deltas — recovery no longer stream-equivalent.
        let mut fresh = healthy();
        fresh.e21[0].lag_stream_equivalent = false;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("Stale View Cleaning recovery is broken")),
            "expected a lag-equivalence violation, got {violations:?}"
        );

        // Backpressure silently never firing means the arm proved nothing.
        let mut fresh = healthy();
        fresh.e21[1].lag_events = 0;
        fresh.e21[1].lag_resumes = 0;
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("backpressure never fired")),
            "expected a dead-arm violation, got {violations:?}"
        );

        // The coverage floor: both key distributions must be present.
        let mut fresh = healthy();
        fresh.e21.remove(1);
        let violations = gate(&healthy(), &fresh);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("E21") && v.contains("missing")),
            "expected a missing-row violation, got {violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("2 distinct key distributions")),
            "expected a distribution-coverage violation, got {violations:?}"
        );
    }

    #[test]
    fn gate_reports_every_violation_in_one_pass() {
        // One run, many regressions: the gate must list them all with
        // expected-vs-actual values, not stop at the first.
        let mut fresh = healthy();
        fresh.e6[1].dense_msgs_per_update = 16.0;
        fresh.e17[0].converged = false;
        fresh.e18[1].escalations = 3;
        fresh.e19[0].makespan_us = 97_000;
        fresh.e20[0].derived_source_msgs = 1;
        fresh.e21[0].bags_deep_cloned = 60;
        fresh.e1[1].msgs_per_update = healthy().e1[1].msgs_per_update * 1.3;
        let violations = gate(&healthy(), &fresh);
        for needle in [
            "E6 n=8 (dense): msgs/update 16 != 2(n-1) = 14",
            "E17 ckpt=1",
            "E18 S=2: 3 escalations",
            "E19 point-heavy: readers must never block installs — makespan 97000us under readers != 96000us no-reader baseline",
            "E20 sibling-fanout: derived maintenance touched the sources",
            "E21 hot-key-skew: 60 serve-side bag deep copies != 48 installs",
            "E1 Strobe msgs/update",
        ] {
            assert!(
                violations.iter().any(|v| v.contains(needle)),
                "expected a violation containing {needle:?} in the single pass, got {violations:?}"
            );
        }
        assert!(
            violations.len() >= 7,
            "expected all seven independent violations at once, got {violations:?}"
        );
    }

    #[test]
    fn wall_clock_is_not_gated() {
        let mut fresh = healthy();
        fresh.phase_wall_ms = vec![("E1".to_string(), 1e9)];
        assert_eq!(gate(&healthy(), &fresh), Vec::<String>::new());
    }

    #[test]
    fn mode_mismatch_fails_gate() {
        let mut fresh = healthy();
        fresh.mode = "full".to_string();
        let violations = gate(&healthy(), &fresh);
        assert!(violations.iter().any(|v| v.contains("mode mismatch")));
    }

    #[test]
    fn missing_row_fails_gate() {
        let mut fresh = healthy();
        fresh.e6.pop();
        let violations = gate(&healthy(), &fresh);
        assert!(violations.iter().any(|v| v.contains("missing")));
    }
}
