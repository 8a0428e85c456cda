#!/usr/bin/env bash
# Tier-1 gate: offline release build, full test suite, formatting, docs,
# clippy with warnings denied, repo-hygiene guards, and the
# perf-regression gate against the committed BENCH_report.json baseline.
# The workspace has zero external dependencies, so everything here must
# pass with the registry unreachable.
#
# Stages run *without* fail-fast: every stage executes, each is timed,
# and a final PASS/FAIL table summarizes the run (exit 1 if any stage
# failed). Flags:
#
#   --stage <name>   run exactly one stage (names as printed in the table)
#   --list           print the stage names, one per line, and exit
#   --deep           additionally re-run the seeded-schedule suites
#                    (schedule_fuzz, recovery_equivalence,
#                    serve_equivalence — including their sharded arms) at
#                    4x their default schedule counts via the
#                    DW_FUZZ_SCHEDULES multiplier
set -uo pipefail
cd "$(dirname "$0")"

# The single source of truth for stage names, in run order. --list prints
# it, the unknown-stage error cites it, and the run_stage calls at the
# bottom must stay in sync with it (checked at startup).
STAGE_LIST=(
  readme-crates
  engine-boundary
  experiment-docs
  fmt
  build
  perfbench-build
  test
  clippy
  doc
  perf-gate
  deep-fuzz
)

DEEP=0
ONLY_STAGE=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --deep) DEEP=1 ;;
    --stage)
      ONLY_STAGE="${2:?--stage needs a stage name}"
      shift
      ;;
    --list)
      printf '%s\n' "${STAGE_LIST[@]}"
      exit 0
      ;;
    -h|--help)
      sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "unknown argument: $1 (try --help)" >&2
      exit 2
      ;;
  esac
  shift
done

# Fail fast on a typo'd --stage instead of silently running nothing.
if [[ -n "$ONLY_STAGE" ]]; then
  KNOWN=0
  for s in "${STAGE_LIST[@]}"; do
    [[ "$s" == "$ONLY_STAGE" ]] && KNOWN=1
  done
  if [[ $KNOWN -eq 0 ]]; then
    echo "unknown stage: $ONLY_STAGE" >&2
    echo "stages: ${STAGE_LIST[*]}" >&2
    exit 2
  fi
fi

export CARGO_NET_OFFLINE=true

STAGE_NAMES=()
STAGE_STATUS=()
STAGE_SECS=()
ANY_FAILED=0
STAGES_RUN=0

# run_stage <name> <fn>: execute one stage, record PASS/FAIL and
# wall-clock seconds; never aborts the script.
run_stage() {
  local name="$1" fn="$2" status t0
  if [[ -n "$ONLY_STAGE" && "$name" != "$ONLY_STAGE" ]]; then
    return 0
  fi
  STAGES_RUN=$((STAGES_RUN + 1))
  echo "==> $name"
  t0=$SECONDS
  if "$fn"; then
    status=PASS
  else
    status=FAIL
    ANY_FAILED=1
    echo "==> $name: FAILED (continuing to remaining stages)" >&2
  fi
  STAGE_NAMES+=("$name")
  STAGE_STATUS+=("$status")
  STAGE_SECS+=("$((SECONDS - t0))")
}

# Every workspace crate must appear in the README crate-map table.
stage_readme_crates() {
  local d c ok=0
  for d in crates/*/; do
    c="dw-$(basename "$d")"
    if ! grep -Eq "^\| \`$c\`" README.md; then
      echo "FAIL: $c is missing from the README crate-map table" >&2
      ok=1
    fi
  done
  return $ok
}

# Adapters — warehouse executors, the multi-view and sharded schedulers,
# the live runtime, everything outside dw-engine itself — must go
# through dw-engine's public surface (fold_same_source), never the
# queue's batching internals. Likewise, the snapshot store is dw-serve's
# private machinery: every other crate serves reads through ReadFrontend
# and feeds installs through the publisher handle, never by constructing
# or reaching into SnapshotStore directly. And the source query server
# answers every sweep query — plain, σ-pushed or shard-scoped — from its
# maintained join index, never by rehashing a (filtered) relation.
stage_engine_boundary() {
  local hits ok=0
  hits=$(grep -rn "merged_from_source\|take_from_source" crates/*/src 2>/dev/null |
    grep -v "^crates/engine/src" || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: sweep adapters must go through dw-engine (fold_same_source), not the queue internals" >&2
    ok=1
  fi
  hits=$(grep -rn "SnapshotStore" crates/*/src src examples 2>/dev/null |
    grep -v "^crates/serve/src" || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: snapshots are dw-serve internals — consume them through ReadFrontend, never SnapshotStore" >&2
    ok=1
  fi
  hits=$(grep -rn "GroupState" crates/*/src src examples 2>/dev/null |
    grep -v "^crates/relational/src" || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: aggregate group accumulators are dw-relational internals — fold deltas through AggregateState, never GroupState" >&2
    ok=1
  fi
  hits=$(grep -n "extend_partial_observed\|ShardedRelation\|bag()\.filter(" crates/source/src/node.rs || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: the source query server answers every sweep query by probing its maintained JoinIndex — never by rehashing or copying its relation" >&2
    ok=1
  fi
  hits=$(grep -rn "bag)\.clone()\|\.bag\.clone()" crates/serve/src 2>/dev/null |
    grep -v "freeze-step" || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: dw-serve never deep-copies a bag outside the publish freeze step — reads ride the Arc (mark a legitimate freeze copy with // freeze-step)" >&2
    ok=1
  fi
  return $ok
}

# Every bench binary must carry an E<N> experiment marker in its doc
# comment and EXPERIMENTS.md must have the matching '## E<N> —' section:
# an experiment that isn't written up doesn't exist.
stage_experiment_docs() {
  local f tag ok=0
  for f in crates/bench/src/bin/*.rs; do
    tag=$(grep -o -m1 'E[0-9]\+' "$f" | head -1 || true)
    if [[ -z "$tag" ]]; then
      echo "FAIL: $f has no E<N> experiment marker in its doc comment" >&2
      ok=1
      continue
    fi
    if ! grep -Eq "^## $tag " EXPERIMENTS.md; then
      echo "FAIL: $f claims $tag but EXPERIMENTS.md has no '## $tag —' section" >&2
      ok=1
    fi
  done
  return $ok
}

stage_fmt() {
  cargo fmt --all --check
}

stage_build() {
  cargo build --release --workspace
}

# perfbench/ is a package outside the workspace: building it here makes a
# workspace API change that breaks the benchmark fail the gate.
stage_perfbench_build() {
  cargo build --release --offline --manifest-path perfbench/Cargo.toml
}

stage_test() {
  cargo test -q --workspace
}

stage_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
}

stage_doc() {
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

stage_perf_gate() {
  cargo run -q --release -p dw-bench --bin perf_gate
}

stage_deep_fuzz() {
  DW_FUZZ_SCHEDULES=4 cargo test -q --release \
    --test schedule_fuzz --test recovery_equivalence --test serve_equivalence
}

run_stage readme-crates stage_readme_crates
run_stage engine-boundary stage_engine_boundary
run_stage experiment-docs stage_experiment_docs
run_stage fmt stage_fmt
run_stage build stage_build
run_stage perfbench-build stage_perfbench_build
run_stage test stage_test
run_stage clippy stage_clippy
run_stage doc stage_doc
run_stage perf-gate stage_perf_gate
if [[ "$DEEP" == "1" ]]; then
  run_stage deep-fuzz stage_deep_fuzz
fi

if [[ $STAGES_RUN -eq 0 ]]; then
  echo "unknown stage: $ONLY_STAGE" >&2
  echo "stages: ${STAGE_LIST[*]}" >&2
  exit 2
fi

echo
printf '%-18s %-6s %8s\n' "stage" "result" "wall (s)"
printf '%-18s %-6s %8s\n' "-----" "------" "--------"
for i in "${!STAGE_NAMES[@]}"; do
  printf '%-18s %-6s %8s\n' "${STAGE_NAMES[$i]}" "${STAGE_STATUS[$i]}" "${STAGE_SECS[$i]}"
done
echo

if [[ $ANY_FAILED -ne 0 ]]; then
  echo "==> ci.sh: FAILED (see table above)"
  exit 1
fi
echo "==> ci.sh: all green"
