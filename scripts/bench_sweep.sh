#!/usr/bin/env bash
# Measures the sweep engine on a full-size spec — wall clock at --jobs 1
# vs --jobs 8 vs a --shards 2 run (the campaign coordinator on the fork
# launcher with 2 workers, i.e. --launcher fork --workers 2), per-point
# result identity across all three topologies, and the world count saved
# by baseline memoization — and records the result under "sweep_engine"
# in BENCH_components.json (README "Perf methodology").
#
# Usage: scripts/bench_sweep.sh [spec] [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

SPEC="${1:-fig13}"
BUILD="${2:-build}"
OUT=BENCH_components.json

if [ ! -x "$BUILD/unimem_sweep" ]; then
  echo "error: $BUILD/unimem_sweep not built" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/unimem_sweep" --spec "$SPEC" --jobs 1 --quiet \
  --csv "$TMP/j1.csv" --summary-json "$TMP/j1.json" >&2
"$BUILD/unimem_sweep" --spec "$SPEC" --jobs 8 --quiet \
  --csv "$TMP/j8.csv" --summary-json "$TMP/j8.json" >&2
"$BUILD/unimem_sweep" --spec "$SPEC" --shards 2 --jobs 4 --quiet \
  --csv "$TMP/sh2.csv" --summary-json "$TMP/sh2.json" >&2

IDENTICAL=false
cmp -s "$TMP/j1.csv" "$TMP/j8.csv" && IDENTICAL=true
echo "per-point identity across job counts: $IDENTICAL" >&2
SHARD_IDENTICAL=false
cmp -s "$TMP/j1.csv" "$TMP/sh2.csv" && SHARD_IDENTICAL=true
echo "per-point identity sharded (2 procs) vs jobs 1: $SHARD_IDENTICAL" >&2

[ -f "$OUT" ] || echo '{}' > "$OUT"
jq --arg spec "$SPEC" --argjson identical "$IDENTICAL" \
   --argjson shard_identical "$SHARD_IDENTICAL" \
   --slurpfile j1 "$TMP/j1.json" --slurpfile j8 "$TMP/j8.json" \
   --slurpfile sh2 "$TMP/sh2.json" '
  .sweep_engine = {
    spec: $spec,
    points: $j1[0].points,
    host_cpus: $j1[0].host_cpus,
    jobs1_wall_s: ($j1[0].wall_s * 1000 | round / 1000),
    jobs8_wall_s: ($j8[0].wall_s * 1000 | round / 1000),
    sharded2_wall_s: ($sh2[0].wall_s * 1000 | round / 1000),
    speedup_jobs8_over_jobs1:
      ($j1[0].wall_s / $j8[0].wall_s * 100 | round / 100),
    results_identical_across_job_counts: $identical,
    results_identical_sharded_vs_jobs1: $shard_identical,
    worlds_executed: $j1[0].worlds_executed,
    worlds_naive: ($j1[0].points + $j1[0].baseline_requests),
    world_reduction_vs_naive:
      (($j1[0].points + $j1[0].baseline_requests) /
       $j1[0].worlds_executed * 100 | round / 100),
    baselines_memoized:
      ($j1[0].baseline_requests - $j1[0].baseline_computed)
  }
  # Jobs are independent Worlds (no shared state beyond the memoized
  # baselines), so wall-clock scales with cores; a single-core host can
  # only show oversubscription, never speedup.  Say so in the record.
  | if $j1[0].host_cpus < 2 then
      .sweep_engine.note =
        "host_cpus=1: parallel jobs cannot beat serial wall-clock on this host; re-run scripts/bench_sweep.sh on a multicore host for the scaling number"
    else . end
' "$OUT" > "$OUT.tmp" && mv "$OUT.tmp" "$OUT"
echo "recorded sweep_engine ($SPEC) in $OUT"
