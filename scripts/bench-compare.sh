#!/usr/bin/env bash
# Compare benchmarks/latest.txt against benchmarks/baseline.txt and fail
# on time regressions above BENCH_MAX_REGRESSION_PCT (default 5).
# Requires benchstat when available; falls back to a plain ns/op diff of
# matching benchmark names otherwise (no network, no installs).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="benchmarks/baseline.txt"
LATEST="benchmarks/latest.txt"
THRESHOLD="${BENCH_MAX_REGRESSION_PCT:-5}"

# Every JSON gate below is skipped when its record is absent or stale —
# silently passing a leg that *meant* to be judged. skipped() makes
# that loud: it always prints why a gate did not run, and when the
# record is named in BENCH_REQUIRE (space-separated gate names, set by
# the CI leg that just regenerated those records) an unjudged record is
# a hard failure instead of a quiet green.
skipped() { # <gate-name> <path> <reason>
  echo "NOTE: $1 gate did not run: $2 is $3" >&2
  case " ${BENCH_REQUIRE:-} " in
    *" $1 "*)
      echo "record $1 is required (BENCH_REQUIRE='${BENCH_REQUIRE}') but was not judged; failing" >&2
      exit 1 ;;
  esac
}

SERVE_JSON="benchmarks/BENCH_serve.json"

# Gate the serving-layer record (scripts/bench-serve.sh) when it exists
# and is fresh. Records older than an hour are skipped rather than
# judged — a stale machine-local file must not gate unrelated later
# runs (CI regenerates the record seconds before comparing). The
# frozen CSR neighbor lookup must be allocation-free and at least 2x
# the mutable Graph.Neighbors path (in practice it is 100-1000x, so the
# 2x bound is robust to any runner), and frozen recommendation queries
# must not grossly regress versus the map-scoring path (< 0.8x fails;
# the win itself is dataset-dependent and noisy on shared runners).
if [ -f "$SERVE_JSON" ] && [ -n "$(find "$SERVE_JSON" -mmin -60 2>/dev/null)" ]; then
  echo "serve record ($SERVE_JSON):"
  cat "$SERVE_JSON"
  awk '
    match($0, /"recommend_speedup": *[0-9.]+/)          { split(substr($0, RSTART, RLENGTH), a, ": *"); rec = a[2] + 0 }
    match($0, /"neighbors_speedup": *[0-9.]+/)          { split(substr($0, RSTART, RLENGTH), a, ": *"); nb = a[2] + 0 }
    match($0, /"neighbors_allocs_per_query": *[0-9.]+/) { split(substr($0, RSTART, RLENGTH), a, ": *"); nba = a[2] + 0 }
    END {
      if (nba > 0) {
        printf("frozen neighbor lookups allocate (%.4f allocs/query), want 0\n", nba) > "/dev/stderr"
        exit 1
      }
      if (nb < 2) {
        printf("frozen neighbor lookup only %.2fx over Graph.Neighbors, want >= 2x\n", nb) > "/dev/stderr"
        exit 1
      }
      if (rec < 0.8) {
        printf("frozen recommend path is a >20%% regression vs the map path (%.2fx)\n", rec) > "/dev/stderr"
        exit 1
      }
      printf("serve gate ok: neighbors %.0fx (0 allocs), recommend %.2fx\n", nb, rec)
    }
  ' "$SERVE_JSON"
elif [ -f "$SERVE_JSON" ]; then
  skipped serve "$SERVE_JSON" "stale (>60 min)"
else
  skipped serve "$SERVE_JSON" "absent (run scripts/bench-serve.sh)"
fi

SOLVE_JSON="benchmarks/BENCH_solve.json"

# Gate the local-solve record (scripts/bench-solve.sh): the blocked
# row-kernel solver must be allocation-free in steady state and
# meaningfully faster than the frozen pair-at-a-time reference on the
# large-cluster case (where a real build's O(m²) brute-force time
# concentrates). The floor is kernel-aware: with a vector count kernel
# active (avx2/neon) the blocked path must clear 2.0x — that is the
# whole point of the SIMD layer — while a scalar-only machine keeps the
# pre-SIMD 1.3x floor (the gating/batching win alone; see
# EXPERIMENTS.md). Both floors sit well under the locally measured
# ratios so runner noise cannot flake a true regression signal.
if [ -f "$SOLVE_JSON" ] && [ -n "$(find "$SOLVE_JSON" -mmin -60 2>/dev/null)" ]; then
  echo "local-solve record ($SOLVE_JSON):"
  cat "$SOLVE_JSON"
  awk '
    match($0, /"solve_speedup": *[0-9.]+/)    { split(substr($0, RSTART, RLENGTH), a, ": *"); speedup = a[2] + 0 }
    match($0, /"small_speedup": *[0-9.]+/)    { split(substr($0, RSTART, RLENGTH), a, ": *"); small = a[2] + 0 }
    match($0, /"allocs_per_solve": *[0-9.]+/) { split(substr($0, RSTART, RLENGTH), a, ": *"); allocs = a[2] + 0 }
    match($0, /"kernel": *"[^"]*"/)           { split(substr($0, RSTART, RLENGTH), a, "\""); kernel = a[4] }
    match($0, /"kernel_speedup": *[0-9.]+/)   { split(substr($0, RSTART, RLENGTH), a, ": *"); kspeed = a[2] + 0 }
    match($0, /"hyrec_speedup": *[0-9.]+/)    { split(substr($0, RSTART, RLENGTH), a, ": *"); hyspeed = a[2] + 0 }
    END {
      if (allocs != 0) {
        printf("blocked local solve allocates (%.2f allocs/solve), want 0\n", allocs) > "/dev/stderr"
        exit 1
      }
      floor = 1.3
      if (kernel != "" && kernel != "scalar") floor = 2.0
      if (speedup < floor) {
        printf("blocked local solve only %.2fx over the scalar reference (kernel %s), want >= %.1fx\n", speedup, kernel, floor) > "/dev/stderr"
        exit 1
      }
      if (kernel != "" && kernel != "scalar" && kspeed < 1.1) {
        printf("%s count kernel only %.2fx over forced-scalar counts, want >= 1.1x\n", kernel, kspeed) > "/dev/stderr"
        exit 1
      }
      # Hyrec is candidate-scatter bound (see EXPERIMENTS.md): its
      # gathers touch ~T candidates per user, not a dense block, so the
      # SIMD kernel can only claim the in-row popcount share. The floor
      # is a modest 1.05x — real regressions drop it to ~1.0.
      if (kernel != "" && kernel != "scalar" && hyspeed > 0 && hyspeed < 1.05) {
        printf("hyrec blocked path only %.2fx over its scalar reference under the %s kernel, want >= 1.05x\n", hyspeed, kernel) > "/dev/stderr"
        exit 1
      }
      printf("solve gate ok [kernel %s]: blocked %.2fx scalar on the large cluster (%.2fx small, kernel alone %.2fx, hyrec %.2fx), 0 allocs/solve\n", kernel, speedup, small, kspeed, hyspeed)
    }
  ' "$SOLVE_JSON"
elif [ -f "$SOLVE_JSON" ]; then
  skipped solve "$SOLVE_JSON" "stale (>60 min)"
else
  skipped solve "$SOLVE_JSON" "absent (run scripts/bench-solve.sh)"
fi

HTTP_JSON="benchmarks/BENCH_http.json"

# Gate the HTTP daemon record (scripts/bench-http.sh): under a
# 100-client concurrent load with a mid-load snapshot hot-swap, no
# request may fail and no response may diverge from the serial
# Index.Recommend reference; the cache must actually be hit; and the
# cache-hit fast path must be allocation-free. Throughput and latency
# are recorded but not gated — shared runners are too noisy to judge
# them.
if [ -f "$HTTP_JSON" ] && [ -n "$(find "$HTTP_JSON" -mmin -60 2>/dev/null)" ]; then
  echo "http serving record ($HTTP_JSON):"
  cat "$HTTP_JSON"
  awk '
    match($0, /"failed_requests": *[0-9]+/)                 { split(substr($0, RSTART, RLENGTH), a, ": *"); failed = a[2] + 0 }
    match($0, /"mismatched_responses": *[0-9]+/)            { split(substr($0, RSTART, RLENGTH), a, ": *"); mism = a[2] + 0 }
    match($0, /"hot_swaps": *[0-9]+/)                       { split(substr($0, RSTART, RLENGTH), a, ": *"); swaps = a[2] + 0 }
    match($0, /"cache_hit_rate": *[0-9.]+/)                 { split(substr($0, RSTART, RLENGTH), a, ": *"); hit = a[2] + 0 }
    match($0, /"cache_hit_allocs_per_query": *-?[0-9.]+/)   { split(substr($0, RSTART, RLENGTH), a, ": *"); allocs = a[2] + 0 }
    END {
      if (failed > 0) {
        printf("%d HTTP requests failed under concurrent load, want 0\n", failed) > "/dev/stderr"
        exit 1
      }
      if (mism > 0) {
        printf("%d HTTP responses diverged from Index.Recommend, want 0\n", mism) > "/dev/stderr"
        exit 1
      }
      if (swaps < 1) {
        printf("mid-load hot swap did not complete (%d swaps)\n", swaps) > "/dev/stderr"
        exit 1
      }
      if (allocs != 0) {
        printf("cache-hit path allocates (%.4f allocs/query), want 0\n", allocs) > "/dev/stderr"
        exit 1
      }
      if (hit < 0.2) {
        printf("cache hit rate %.3f below the 0.2 floor for a repeating load\n", hit) > "/dev/stderr"
        exit 1
      }
      printf("http gate ok: 0 failures, 0 mismatches through %d hot swap(s), hit rate %.2f, alloc-free hits\n", swaps, hit)
    }
  ' "$HTTP_JSON"
elif [ -f "$HTTP_JSON" ]; then
  skipped http "$HTTP_JSON" "stale (>60 min)"
else
  skipped http "$HTTP_JSON" "absent (run scripts/bench-http.sh)"
fi

SOAK_JSON="benchmarks/BENCH_soak.json"

# Gate the fault-injection soak record (scripts/bench-soak.sh): the
# hardened daemon must absorb every injected fault class with its
# documented status code — oversized bodies (413), shed stampedes
# (429), recovered panics (500), expired deadlines (503) — while zero
# well-formed requests fail or diverge, the daemon never dies, a
# corrupt snapshot reload keeps the old epoch serving and a later good
# reload recovers, and the /metrics counters reconcile exactly with the
# harness's own per-status accounting. p99 is bounded loosely
# (SOAK_P99_MAX_US, default 1s): on a race-enabled shared runner only a
# pathological stall should trip it.
if [ -f "$SOAK_JSON" ] && [ -n "$(find "$SOAK_JSON" -mmin -60 2>/dev/null)" ]; then
  echo "soak record ($SOAK_JSON):"
  cat "$SOAK_JSON"
  awk -v p99max="${SOAK_P99_MAX_US:-1000000}" '
    match($0, /"failed_requests": *[0-9]+/)       { split(substr($0, RSTART, RLENGTH), a, ": *"); failed = a[2] + 0 }
    match($0, /"mismatched_responses": *[0-9]+/)  { split(substr($0, RSTART, RLENGTH), a, ": *"); mism = a[2] + 0 }
    match($0, /"fault_unexpected": *[0-9]+/)      { split(substr($0, RSTART, RLENGTH), a, ": *"); unexp = a[2] + 0 }
    match($0, /"restarts": *[0-9]+/)              { split(substr($0, RSTART, RLENGTH), a, ": *"); restarts = a[2] + 0 }
    match($0, /"fault_413_oversized": *[0-9]+/)   { split(substr($0, RSTART, RLENGTH), a, ": *"); f413 = a[2] + 0 }
    match($0, /"fault_400_overbatch": *[0-9]+/)   { split(substr($0, RSTART, RLENGTH), a, ": *"); f400 = a[2] + 0 }
    match($0, /"fault_500_panics": *[0-9]+/)      { split(substr($0, RSTART, RLENGTH), a, ": *"); f500 = a[2] + 0 }
    match($0, /"fault_503_deadline": *[0-9]+/)    { split(substr($0, RSTART, RLENGTH), a, ": *"); f503 = a[2] + 0 }
    match($0, /"shed_responses": *[0-9]+/)        { split(substr($0, RSTART, RLENGTH), a, ": *"); shed = a[2] + 0 }
    match($0, /"hot_swaps": *[0-9]+/)             { split(substr($0, RSTART, RLENGTH), a, ": *"); swaps = a[2] + 0 }
    match($0, /"metrics_reconciled": *(true|false)/)       { rec = (index(substr($0, RSTART, RLENGTH), "true") > 0) }
    match($0, /"corrupt_kept_serving": *(true|false)/)     { kept = (index(substr($0, RSTART, RLENGTH), "true") > 0) }
    match($0, /"good_reload_after_corrupt": *(true|false)/) { recov = (index(substr($0, RSTART, RLENGTH), "true") > 0) }
    match($0, /"p99_us": *[0-9.]+/)               { split(substr($0, RSTART, RLENGTH), a, ": *"); p99 = a[2] + 0 }
    END {
      fail = 0
      if (failed > 0)   { printf("%d well-formed requests failed during the soak, want 0\n", failed) > "/dev/stderr"; fail = 1 }
      if (mism > 0)     { printf("%d soak responses diverged from Index.Recommend, want 0\n", mism) > "/dev/stderr"; fail = 1 }
      if (unexp > 0)    { printf("%d fault probes got an undocumented status\n", unexp) > "/dev/stderr"; fail = 1 }
      if (restarts > 0) { printf("the daemon died %d time(s) during the soak\n", restarts) > "/dev/stderr"; fail = 1 }
      if (f413 < 1 || f400 < 1 || f500 < 1 || f503 < 1 || shed < 1) {
        printf("fault classes missing: 413x%d 400x%d 500x%d 503x%d 429x%d (want all >= 1)\n", f413, f400, f500, f503, shed) > "/dev/stderr"; fail = 1
      }
      if (swaps < 1)    { printf("no hot swap completed under soak load\n") > "/dev/stderr"; fail = 1 }
      if (!kept)        { printf("corrupt snapshot reload did not keep the old epoch serving\n") > "/dev/stderr"; fail = 1 }
      if (!recov)       { printf("good reload after the corrupt one did not succeed\n") > "/dev/stderr"; fail = 1 }
      if (!rec)         { printf("/metrics counters drifted from the harness accounting\n") > "/dev/stderr"; fail = 1 }
      if (p99 > p99max) { printf("soak p99 %.0f us over the %d us bound\n", p99, p99max) > "/dev/stderr"; fail = 1 }
      if (fail) exit 1
      printf("soak gate ok: 0 failures through 413x%d 400x%d 500x%d 503x%d 429x%d, %d swap(s), metrics reconciled, p99 %.0f us\n",
             f413, f400, f500, f503, shed, swaps, p99)
    }
  ' "$SOAK_JSON"
elif [ -f "$SOAK_JSON" ]; then
  skipped soak "$SOAK_JSON" "stale (>60 min)"
else
  skipped soak "$SOAK_JSON" "absent (run scripts/bench-soak.sh)"
fi

SHARD_JSON="benchmarks/BENCH_shard.json"

# Gate the sharded-serving record (scripts/bench-shard.sh): every
# routed response must be byte-identical to the single-process daemon's
# (mismatched == 0), no request may fail and none may degrade to a
# partial answer while all replicas are up — those three are
# unconditional. The scaling gate — routed throughput >= 1.8x the
# 1-worker single-process baseline at 2 shards — only applies when the
# runner actually has at least as many cores as shards; on a 1-core box
# two shard workers time-slice one CPU and 1.0x is the physical
# ceiling, so judging speedup there would only test the scheduler.
if [ -f "$SHARD_JSON" ] && [ -n "$(find "$SHARD_JSON" -mmin -60 2>/dev/null)" ]; then
  echo "sharded serving record ($SHARD_JSON):"
  cat "$SHARD_JSON"
  awk -v minspeed="${SHARD_MIN_SPEEDUP:-1.8}" '
    match($0, /"shards": *[0-9]+/)               { split(substr($0, RSTART, RLENGTH), a, ": *"); shards = a[2] + 0 }
    match($0, /"cores": *[0-9]+/)                { split(substr($0, RSTART, RLENGTH), a, ": *"); cores = a[2] + 0 }
    match($0, /"failed_requests": *[0-9]+/)      { split(substr($0, RSTART, RLENGTH), a, ": *"); failed = a[2] + 0 }
    match($0, /"mismatched_responses": *[0-9]+/) { split(substr($0, RSTART, RLENGTH), a, ": *"); mism = a[2] + 0 }
    match($0, /"partial_responses": *[0-9]+/)    { split(substr($0, RSTART, RLENGTH), a, ": *"); part = a[2] + 0 }
    match($0, /"speedup": *[0-9.]+/)             { split(substr($0, RSTART, RLENGTH), a, ": *"); speedup = a[2] + 0 }
    END {
      if (failed > 0) {
        printf("%d routed requests failed, want 0\n", failed) > "/dev/stderr"
        exit 1
      }
      if (mism > 0) {
        printf("%d routed responses were not byte-identical to the single-process daemon, want 0\n", mism) > "/dev/stderr"
        exit 1
      }
      if (part > 0) {
        printf("%d responses degraded to partial with every replica healthy, want 0\n", part) > "/dev/stderr"
        exit 1
      }
      if (cores < shards) {
        printf("shard gate ok (correctness only): 0 failed / 0 mismatched / 0 partial; speedup %.2fx not judged on %d core(s) for %d shards\n", speedup, cores, shards)
        exit 0
      }
      if (speedup < minspeed) {
        printf("routed tier only %.2fx the single-process baseline at %d shards, want >= %.1fx\n", speedup, shards, minspeed) > "/dev/stderr"
        exit 1
      }
      printf("shard gate ok: 0 failed / 0 mismatched / 0 partial, routed %.2fx single-process at %d shards\n", speedup, shards)
    }
  ' "$SHARD_JSON"
elif [ -f "$SHARD_JSON" ]; then
  skipped shard "$SHARD_JSON" "stale (>60 min)"
else
  skipped shard "$SHARD_JSON" "absent (run scripts/bench-shard.sh)"
fi

LOAD_JSON="benchmarks/BENCH_load.json"

# Gate the snapshot cold-start record (scripts/bench-load.sh): the two
# load paths must have decoded the same snapshot into bitwise-identical
# structures answering identical queries (identical == true,
# unconditional). When the mmap path is available on the runner, the
# zero-copy load must reach first query at least LOAD_MIN_SPEEDUP x
# faster than the copy decode (default 5; measured locally at 8-9x on
# the default ~14 MB snapshot, the slack absorbs runner noise) and must
# hold at most half the copy path's heap — the per-replica memory story
# is the point of the mapping. On platforms without mmap support only
# the equivalence clause is judged.
if [ -f "$LOAD_JSON" ] && [ -n "$(find "$LOAD_JSON" -mmin -60 2>/dev/null)" ]; then
  echo "snapshot cold-start record ($LOAD_JSON):"
  cat "$LOAD_JSON"
  awk -v minspeed="${LOAD_MIN_SPEEDUP:-5}" '
    match($0, /"mapped": *(true|false)/)       { mapped = (index(substr($0, RSTART, RLENGTH), "true") > 0) }
    match($0, /"identical": *(true|false)/)    { ident = (index(substr($0, RSTART, RLENGTH), "true") > 0) }
    match($0, /"load_speedup": *[0-9.]+/)      { split(substr($0, RSTART, RLENGTH), a, ": *"); speedup = a[2] + 0 }
    match($0, /"mmap_heap_bytes": *[0-9]+/)    { split(substr($0, RSTART, RLENGTH), a, ": *"); mheap = a[2] + 0 }
    match($0, /"copy_heap_bytes": *[0-9]+/)    { split(substr($0, RSTART, RLENGTH), a, ": *"); cheap = a[2] + 0 }
    END {
      if (!ident) {
        printf("mmap and copy load paths are not bitwise/query identical\n") > "/dev/stderr"
        exit 1
      }
      if (!mapped) {
        printf("load gate ok (equivalence only): mmap path unavailable on this runner\n")
        exit 0
      }
      if (speedup < minspeed) {
        printf("zero-copy load only %.2fx faster to first query than copy decode, want >= %.1fx\n", speedup, minspeed) > "/dev/stderr"
        exit 1
      }
      if (cheap > 0 && mheap > cheap / 2) {
        printf("mapped replica holds %d heap bytes, more than half the copy path%s %d\n", mheap, "\x27s", cheap) > "/dev/stderr"
        exit 1
      }
      printf("load gate ok: zero-copy %.2fx to first query, heap %d vs %d bytes per replica, paths identical\n", speedup, mheap, cheap)
    }
  ' "$LOAD_JSON"
elif [ -f "$LOAD_JSON" ]; then
  skipped load "$LOAD_JSON" "stale (>60 min)"
else
  skipped load "$LOAD_JSON" "absent (run scripts/bench-load.sh)"
fi

UPDATE_JSON="benchmarks/BENCH_update.json"

# Gate the incremental-maintenance record (scripts/bench-update.sh):
# absorbing one profile through the delta overlay must stay sub-second
# at p99 (UPDATE_P99_MAX_MS, default 1000 — measured locally in the
# low hundreds of microseconds, so the bound only catches an
# accidental rebuild on the write path), the merged read path must not
# allocate, and a graph grown through upserts plus one compaction must
# recommend within 0.005 recall of a from-scratch rebuild on the same
# data — the same tolerance the golden recall test grants
# float-ordering jitter. All three clauses are scale-free, so the gate
# holds at CI's reduced dataset scale.
if [ -f "$UPDATE_JSON" ] && [ -n "$(find "$UPDATE_JSON" -mmin -60 2>/dev/null)" ]; then
  echo "incremental maintenance record ($UPDATE_JSON):"
  cat "$UPDATE_JSON"
  awk -v p99max="${UPDATE_P99_MAX_MS:-1000}" '
    match($0, /"upsert_p99_ms": *[0-9.]+/)      { split(substr($0, RSTART, RLENGTH), a, ": *"); p99 = a[2] + 0 }
    match($0, /"merged_read_allocs": *[0-9.]+/) { split(substr($0, RSTART, RLENGTH), a, ": *"); allocs = a[2] + 0 }
    match($0, /"recall_delta": *[0-9.]+/)       { split(substr($0, RSTART, RLENGTH), a, ": *"); rdelta = a[2] + 0 }
    match($0, /"upserts": *[0-9]+/)             { split(substr($0, RSTART, RLENGTH), a, ": *"); ups = a[2] + 0 }
    END {
      if (ups < 1) {
        printf("no upserts were absorbed; the record is empty\n") > "/dev/stderr"
        exit 1
      }
      if (p99 > p99max) {
        printf("upsert p99 %.2f ms over the %.0f ms freshness bound\n", p99, p99max) > "/dev/stderr"
        exit 1
      }
      if (allocs != 0) {
        printf("merged read path allocates (%.4f allocs/read), want 0\n", allocs) > "/dev/stderr"
        exit 1
      }
      if (rdelta > 0.005) {
        printf("incrementally grown graph drifted %.4f recall from a rebuild, want <= 0.005\n", rdelta) > "/dev/stderr"
        exit 1
      }
      printf("update gate ok: upsert p99 %.3f ms, 0 allocs/merged read, recall within %.4f of rebuild over %d upserts\n", p99, rdelta, ups)
    }
  ' "$UPDATE_JSON"
elif [ -f "$UPDATE_JSON" ]; then
  skipped update "$UPDATE_JSON" "stale (>60 min)"
else
  skipped update "$UPDATE_JSON" "absent (run scripts/bench-update.sh)"
fi

if [ ! -f "$BASELINE" ] || ! grep -q '^Benchmark' "$BASELINE"; then
  echo "baseline missing or empty; skipping compare"
  exit 0
fi
if [ ! -f "$LATEST" ] || ! grep -q '^Benchmark' "$LATEST"; then
  echo "benchmarks/latest.txt missing; run scripts/bench.sh first" >&2
  exit 1
fi

if command -v benchstat >/dev/null 2>&1; then
  OUT="$(benchstat "$BASELINE" "$LATEST")"
  echo "$OUT"
  echo "$OUT" > benchmarks/compare.txt
  # Gate on the time (sec/op) section only: -benchmem runs also emit
  # B/op and allocs/op sections, and geomean summary rows, which must
  # not trip a *time* regression gate.
  echo "$OUT" | awk -v thr="$THRESHOLD" '
    /sec\/op/ { insec = 1 }
    /B\/op/ || /allocs\/op/ { insec = 0 }
    insec && !/^geomean/ && match($0, /\+[0-9.]+%/) {
      val = substr($0, RSTART + 1, RLENGTH - 2) + 0
      if (val > thr) {
        printf("time regression > %s%%: %s\n", thr, $0) > "/dev/stderr"
        fail = 1
      }
    }
    END { exit fail }
  '
else
  # Fallback: average ns/op per benchmark name, then diff.
  avg() {
    awk '/^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      sum[name] += $3; n[name]++
    }
    END { for (b in sum) printf("%s %.2f\n", b, sum[b] / n[b]) }' "$1" | sort
  }
  join <(avg "$BASELINE") <(avg "$LATEST") | tee benchmarks/compare.txt |
    awk -v thr="$THRESHOLD" '{
      delta = ($3 - $2) / $2 * 100
      printf("%-50s %12.0f -> %12.0f ns/op  %+.1f%%\n", $1, $2, $3, delta)
      if (delta > thr) {
        printf("regression > %s%%: %s\n", thr, $1) > "/dev/stderr"
        fail = 1
      }
    }
    END { exit fail }'
fi
