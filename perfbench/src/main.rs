//! Host-time benchmark for the warehouse.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chain_scale|view_fanout> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats rounds of one workload, cycling through sub-scenarios
//! drawn from the seed, until setup plus drive time reaches `--seconds`
//! and every sub-scenario has run. A round sets up the warehouse
//! (sources, flat shared-sweep scheduler, read frontend), drives the
//! simulator to quiescence on one thread and checks the outputs: the
//! first round of each sub-scenario against fresh recomputes, later ones
//! against the first. The last line of stdout is one JSON object: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. A traced
//! run runs every sub-scenario traced and untraced and reports the
//! difference in `updates_per_s` between them as the tracing overhead.
//!
//! On a shared host, other tenants slow a round down by up to a half, in
//! spells that come and go over seconds to minutes; they never speed one
//! up. So host times are the fastest repeat: `updates_per_s` is the run's
//! fastest round, `setup_s` its fastest setup, and `read_p50_us` the median
//! over reads of each read's fastest repeat (every round of a sub-scenario
//! issues the same reads against the same states). That is what the
//! program costs when the host leaves it alone, which a median over the
//! rounds of one run does not settle on. `read_p99_us` pools every timed
//! read instead: over fastest repeats, the 1 % tail is a few dozen reads
//! and swings with which of them a run happens to catch slow every time.

mod alloc;
mod check;
mod drive;
mod ledger;
mod workload;

use check::{Fingerprint, Verdict};
use drive::Round;
use ledger::{Counter, Span, Totals};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// A run cycles through this many sub-scenarios drawn from its seed, so
/// figures that depend on the particular draw average over all of them.
const SUBSCENARIOS: usize = 8;
/// Stop starting rounds after this long (once a cycle is done), so a run
/// stays short even on a slow host.
const WALL_CAP_S: f64 = 90.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <chain_scale|view_fanout> \
                 [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one round measured.
struct RoundStats {
    traced: bool,
    setup: drive::SetupTimes,
    updates_per_s: f64,
}

/// Deterministic figures of a round: equal on every round of one
/// sub-scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Logical {
    messages_per_update: f64,
    wire_bytes_per_update: f64,
    staleness_p99_virt_ms: f64,
    installs: f64,
    local_compensations: f64,
    child_installs: f64,
    shared_derivations: f64,
    linear_evals: f64,
    deep_clones: f64,
    derive_tuples: f64,
    read_work_tuples: f64,
    index_hits: f64,
    index_misses: f64,
    reads_rejected: f64,
}

impl Logical {
    fn fields(&mut self) -> [&mut f64; 14] {
        [
            &mut self.messages_per_update,
            &mut self.wire_bytes_per_update,
            &mut self.staleness_p99_virt_ms,
            &mut self.installs,
            &mut self.local_compensations,
            &mut self.child_installs,
            &mut self.shared_derivations,
            &mut self.linear_evals,
            &mut self.deep_clones,
            &mut self.derive_tuples,
            &mut self.read_work_tuples,
            &mut self.index_hits,
            &mut self.index_misses,
            &mut self.reads_rejected,
        ]
    }
}

/// The mean of each figure over the sub-scenarios.
fn mean_logical<'a>(all: impl Iterator<Item = &'a Logical>) -> Logical {
    let mut sum = Logical::default();
    let mut n = 0.0;
    for l in all {
        let mut l = *l;
        for (acc, v) in sum.fields().into_iter().zip(l.fields()) {
            *acc += *v;
        }
        n += 1.0;
    }
    for acc in sum.fields() {
        *acc /= n;
    }
    sum
}

fn logical(round: &Round) -> Result<Logical, String> {
    let reg = round.sched.views();
    let m = round.sched.metrics();
    let updates = m.updates_received.max(1) as f64;
    let stats = round.net.stats();
    let qa = stats.label("query").messages + stats.label("answer").messages;
    // The scheduler keeps staleness per view: pool the base views'.
    let mut staleness = dw_engine::PolicyMetrics::default()
        .staleness_histogram()
        .clone();
    let mut installs = 0.0;
    for &id in round.base_ids.iter().chain(&round.derived_ids) {
        let vm = reg.metrics(id).map_err(drive::err)?;
        installs += vm.installs as f64;
        if round.base_ids.contains(&id) {
            staleness.merge(vm.staleness_histogram());
        }
    }
    let cascade = reg.cascade_stats();
    let serve = round.front.stats();
    Ok(Logical {
        messages_per_update: qa as f64 / updates,
        wire_bytes_per_update: stats.total().bytes as f64 / updates,
        staleness_p99_virt_ms: staleness.percentile(99.0).unwrap_or(0) as f64 / 1e3,
        installs,
        local_compensations: m.local_compensations as f64,
        child_installs: cascade.child_installs as f64,
        shared_derivations: cascade.shared_derivations as f64,
        linear_evals: cascade.linear_evals as f64,
        deep_clones: serve.bags_deep_cloned as f64,
        derive_tuples: serve.index_maintenance_tuples as f64,
        read_work_tuples: serve.read_work_tuples as f64,
        index_hits: serve.point_index_hits as f64,
        index_misses: serve.point_index_misses as f64,
        reads_rejected: serve.reads_rejected as f64,
    })
}

/// The inputs of sub-scenario `k` of a run: distinct per `(seed, k)`.
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64)
}

fn run(args: &Args) -> Result<String, String> {
    let wall = Instant::now();
    let mut rounds: Vec<RoundStats> = Vec::new();
    let mut verdict = Verdict::default();
    // Per sub-scenario: what its first round produced.
    let mut firsts: Vec<Option<(Fingerprint, Logical)>> = vec![None; SUBSCENARIOS];
    // Every untraced read's time, and per sub-scenario each read's fastest.
    let mut read_ns: Vec<u64> = Vec::new();
    let mut fastest_read_ns: Vec<Option<Vec<u64>>> = vec![None; SUBSCENARIOS];
    let mut attempted = 0u64;
    let mut measured_s = 0.0;
    // Traced rounds: setup and drive spans and counters, the drive part
    // alone, and the checks (which run once per sub-scenario).
    let mut traced_all = Totals::default();
    let mut checks = Totals::default();
    let mut traced_drive = Totals::default();
    let mut traced_drive_s = 0.0;
    // A traced run runs each sub-scenario twice in a row, traced first
    // (so the first round's oracle checks are traced too), then untraced.
    let per_cycle = SUBSCENARIOS * (1 + args.trace as usize);
    loop {
        let i = rounds.len();
        let traced = args.trace && i.is_multiple_of(2);
        let k = (i / (1 + args.trace as usize)) % SUBSCENARIOS;
        ledger::take();
        alloc::set_tracing(traced);
        let mut round = drive::setup(args.workload, sub_seed(args.seed, k), traced)?;
        let setup_t = ledger::take();
        let initial = match firsts[k] {
            None => round.view_digests()?,
            Some(_) => Vec::new(),
        };
        round.drive(traced)?;
        let drive_t = ledger::take();
        let this = logical(&round)?;
        check::lost(&round, &mut verdict)?;
        match &firsts[k] {
            None => {
                check::final_state(&round, &initial, &mut verdict)?;
                check::oracle(&round, &mut verdict)?;
                firsts[k] = Some((check::fingerprint(&round)?, this));
            }
            Some((fp, l)) => {
                check::same_as(&round, fp, &mut verdict)?;
                if *l != this {
                    verdict.failures += 1;
                    verdict.notes.push(format!(
                        "sub-scenario {k}: logical counters differ from its first round's"
                    ));
                }
            }
        }
        let check_t = ledger::take();
        alloc::set_tracing(false);

        let txns = round.inputs.scenario.txns.len();
        attempted += (txns + round.reads.len()) as u64;
        if traced {
            traced_all.add(&setup_t);
            traced_all.add(&drive_t);
            checks.add(&check_t);
            traced_drive.add(&drive_t);
            traced_drive_s += round.drive_s;
        } else {
            read_ns.extend_from_slice(&round.read_ns);
            match &mut fastest_read_ns[k] {
                None => fastest_read_ns[k] = Some(round.read_ns.clone()),
                Some(best) => {
                    for (b, &ns) in best.iter_mut().zip(&round.read_ns) {
                        *b = (*b).min(ns);
                    }
                }
            }
        }
        measured_s += round.setup.total() + round.drive_s;
        eprintln!(
            "perfbench: round {i} (sub-scenario {k}{}): setup {:.4} s, drive {:.4} s, {:.2} updates/s",
            if traced { ", traced" } else { "" },
            round.setup.total(),
            round.drive_s,
            txns as f64 / round.drive_s
        );
        rounds.push(RoundStats {
            traced,
            setup: round.setup,
            updates_per_s: txns as f64 / round.drive_s,
        });
        drop(round);

        // At least one whole cycle, so every sub-scenario is checked and
        // counted in the deterministic figures; a traced run stops only
        // at whole cycles, so its per-round counts weigh every
        // sub-scenario the same and repeat from run to run.
        let cycle_done = if args.trace {
            rounds.len().is_multiple_of(per_cycle)
        } else {
            rounds.len() >= per_cycle
        };
        if cycle_done && (measured_s >= args.seconds || wall.elapsed().as_secs_f64() > WALL_CAP_S) {
            break;
        }
    }
    let logical = mean_logical(firsts.iter().flatten().map(|(_, l)| l));
    let failed = verdict.failures + verdict.refused + verdict.never_installed;
    let failed_frac = failed as f64 / attempted as f64;
    let untraced: Vec<&RoundStats> = rounds.iter().filter(|r| !r.traced).collect();
    let ups = highest(untraced.iter().map(|r| r.updates_per_s));
    read_ns.sort_unstable();
    let mut fastest_read_ns: Vec<u64> = fastest_read_ns.into_iter().flatten().flatten().collect();
    fastest_read_ns.sort_unstable();
    eprintln!(
        "perfbench: {} rounds ({} traced), {} reads timed, {} reads checked against a recompute, \
         failed {failed}/{attempted} (checks {}, refused {}, never installed {})",
        rounds.len(),
        rounds.len() - untraced.len(),
        read_ns.len(),
        verdict.oracle_reads,
        verdict.failures,
        verdict.refused,
        verdict.never_installed,
    );
    for note in &verdict.notes {
        eprintln!("perfbench: check failed: {note}");
    }

    let mut out = Metrics::default();
    if !args.trace {
        let setup = lowest(untraced.iter().map(|r| r.setup.total()));
        out.put("setup_s", "s", setup);
        out.put("updates_per_s", "1/s", ups);
        out.put(
            "read_p50_us",
            "us",
            percentile(&fastest_read_ns, 50.0) / 1e3,
        );
        out.put("read_p99_us", "us", percentile(&read_ns, 99.0) / 1e3);
        out.put("peak_rss_mb", "MiB", peak_rss_mib()?);
        out.put("messages_per_update", "msgs", logical.messages_per_update);
        out.put("wire_bytes_per_update", "B", logical.wire_bytes_per_update);
        out.put("staleness_p99_virt_ms", "ms", logical.staleness_p99_virt_ms);
    } else {
        let traced: Vec<&RoundStats> = rounds.iter().filter(|r| r.traced).collect();
        let per = traced.len() as f64;
        let traced_ups = highest(traced.iter().map(|r| r.updates_per_s));
        let per_round = PerRound {
            rounds: &traced_all,
            per,
            checks: &checks,
        };
        per_layer(&mut out, &per_round, &logical);
        let setup_fastest =
            |f: fn(&drive::SetupTimes) -> f64| lowest(untraced.iter().map(|r| f(&r.setup)));
        out.put("setup.generate_s", "s", setup_fastest(|s| s.generate_s));
        out.put("setup.load_s", "s", setup_fastest(|s| s.load_s));
        out.put("setup.register_s", "s", setup_fastest(|s| s.register_s));
        let drive_ns = traced_drive_s * 1e9;
        out.put("drive.ns", "ns", drive_ns / per);
        print_shares(args.workload, &traced_drive, drive_ns);
        for (layer, share) in shares(&traced_drive, drive_ns) {
            out.put(&format!("share.{layer}"), "ratio", share);
        }
        out.put("trace.updates_per_s_untraced", "1/s", ups);
        out.put("trace.updates_per_s_traced", "1/s", traced_ups);
        out.put("trace.overhead_frac", "ratio", 1.0 - traced_ups / ups);
        out.put("read.samples", "count", read_ns.len() as f64);
        out.put("failed_frac", "ratio", failed_frac);
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        verdict.failures == 0,
        out.0.join(", ")
    ))
}

/// Per-layer figures per traced round: setup and drive averaged over the
/// traced rounds, plus the checks averaged over the sub-scenarios (each
/// is checked once).
struct PerRound<'a> {
    rounds: &'a Totals,
    per: f64,
    checks: &'a Totals,
}

impl PerRound<'_> {
    fn of(&self, f: impl Fn(&Totals) -> u64) -> f64 {
        f(self.rounds) as f64 / self.per + f(self.checks) as f64 / SUBSCENARIOS as f64
    }
}

/// Per-layer metrics, each per traced round.
fn per_layer(out: &mut Metrics, t: &PerRound, l: &Logical) {
    let calls = |s: Span| t.of(|x| x.span(s).calls);
    let ns = |s: Span| t.of(|x| x.span(s).self_ns);
    let allocs = |s: Span| t.of(|x| x.span(s).self_allocs);
    let counter = |c: Counter| t.of(|x| x.counter(c));
    let put_span = |out: &mut Metrics, s: Span| {
        out.put(&format!("{}.calls", s.name()), "count", calls(s));
        out.put(&format!("{}.ns", s.name()), "ns", ns(s));
    };
    put_span(out, Span::SimnetNext);
    put_span(out, Span::SimnetSend);
    out.put("simnet.send.bytes", "B", counter(Counter::SendBytes));
    out.put(
        "simnet.pending_max",
        "count",
        t.rounds.counter(Counter::PendingMax) as f64,
    );

    put_span(out, Span::SourceApply);
    out.put(
        "source.apply.tuples",
        "count",
        counter(Counter::ApplyTuples),
    );
    put_span(out, Span::SourceQuery);
    let tin = counter(Counter::QueryTuplesIn);
    let tout = counter(Counter::QueryTuplesOut);
    out.put("source.query.tuples_in", "count", tin);
    out.put("source.query.tuples_out", "count", tout);
    out.put(
        "source.query.ns_per_tuple",
        "ns",
        ns(Span::SourceQuery) / (tin + tout).max(1.0),
    );
    out.put("source.query.allocs", "count", allocs(Span::SourceQuery));

    put_span(out, Span::MultiviewUpdate);
    put_span(out, Span::MultiviewAnswer);
    out.put(
        "multiview.answer.allocs",
        "count",
        allocs(Span::MultiviewAnswer),
    );
    out.put("engine.installs", "count", l.installs);
    out.put("engine.local_compensations", "count", l.local_compensations);
    out.put(
        "multiview.cascade.child_installs",
        "count",
        l.child_installs,
    );
    out.put(
        "multiview.cascade.shared_derivations",
        "count",
        l.shared_derivations,
    );
    out.put("multiview.cascade.linear_evals", "count", l.linear_evals);

    put_span(out, Span::ServePublish);
    out.put("serve.publish.allocs", "count", allocs(Span::ServePublish));
    out.put(
        "serve.publish.delta_tuples",
        "count",
        counter(Counter::PublishDeltaTuples),
    );
    out.put("serve.freeze.deep_clones", "count", l.deep_clones);
    out.put("serve.index.derive_tuples", "count", l.derive_tuples);
    put_span(out, Span::ServeNoteDelivery);

    put_span(out, Span::ServePin);
    put_span(out, Span::ServeReadPoint);
    put_span(out, Span::ServeReadScan);
    out.put("serve.scan.tuples", "count", counter(Counter::ScanTuples));
    put_span(out, Span::ServePoll);
    out.put("serve.poll.deltas", "count", counter(Counter::PollDeltas));
    out.put("serve.read_work_tuples", "count", l.read_work_tuples);
    let lookups = (l.index_hits + l.index_misses).max(1.0);
    out.put("serve.index.hit_ratio", "ratio", l.index_hits / lookups);
    out.put("serve.reads_rejected", "count", l.reads_rejected);

    put_span(out, Span::EvalView);
    out.put(
        "relational.eval_view.tuples_out",
        "count",
        counter(Counter::EvalTuplesOut),
    );
    put_span(out, Span::Oracle);
}

/// Self-time share of drive time per layer; the rest is the benchmark's own
/// loop (read scheduling, timing, dispatch).
fn shares(drive: &Totals, drive_ns: f64) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for s in Span::ALL {
        let share = drive.span(s).self_ns as f64 / drive_ns;
        match out.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, v)) => *v += share,
            None => out.push((s.layer(), share)),
        }
    }
    out.retain(|(l, _)| !matches!(*l, "relational" | "check"));
    let covered: f64 = out.iter().map(|(_, v)| v).sum();
    out.push(("bench", 1.0 - covered));
    out
}

fn print_shares(w: Workload, drive: &Totals, drive_ns: f64) {
    eprintln!("perfbench: self-time share of drive time ({w:?}):");
    for s in Span::ALL {
        let st = drive.span(s);
        if st.calls > 0 {
            let share = st.self_ns as f64 / drive_ns;
            eprintln!(
                "  {:<22} {:>6.1} %  ({} calls)",
                s.name(),
                100.0 * share,
                st.calls
            );
        }
    }
    for (layer, share) in shares(drive, drive_ns) {
        eprintln!("  layer {:<16} {:>6.1} %", layer, 100.0 * share);
    }
}

#[derive(Default)]
struct Metrics(Vec<String>);

impl Metrics {
    fn put(&mut self, name: &str, unit: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
}

fn highest(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(f64::NAN, f64::max)
}

fn lowest(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(f64::NAN, f64::min)
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(drive::err)?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
