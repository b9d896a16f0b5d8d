#!/usr/bin/env bash
# CTest smoke for the bench_compare CLI (labels: unit) — the CI
# perf-regression gate. Exercises the full exit-code contract against
# synthetic bench JSON: identical runs pass, a halved QPS fails, the
# same regression passes under --warn-only, a false correctness flag
# fails even under --warn-only, fig7's column-map ratio passes within
# its band and fails past it, and missing/malformed inputs are usage
# errors (exit 2), never crashes.
set -u

COMPARE="${1:?usage: bench_compare_cli_test.sh /path/to/bench_compare}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail() { echo "bench_compare_cli_test: FAIL: $1"; exit 1; }

# A miniature but structurally faithful bench_throughput JSON.
write_json() {
  local path="$1" serial_qps="$2" wand_qps="$3" identical="$4"
  cat > "$path" <<EOF
{
  "bench": "throughput",
  "identical_to_serial": ${identical},
  "serial_qps": ${serial_qps},
  "response_cache": {"hit_over_miss": 40.0, "identical_to_serial": true},
  "shard_fanout": [
    {"shards": 4, "vs_unsharded": 1.0, "identical_to_serial": true}
  ],
  "probe_sweep": [
    {"shards": 1, "k": 10, "wand_qps": ${wand_qps},
     "exhaustive_qps": 50000.0, "speedup": 2.0, "identical": true}
  ]
}
EOF
}

write_json "$TMP/baseline.json" 100.0 100000.0 true

# Identical run: gate passes.
write_json "$TMP/same.json" 100.0 100000.0 true
"$COMPARE" --baseline "$TMP/baseline.json" --current "$TMP/same.json" \
  >"$TMP/same.txt" || fail "identical run did not pass"
grep -q "gate passed" "$TMP/same.txt" || fail "no 'gate passed' line"

# Throughput beyond tolerance (halved and then some): gate fails.
write_json "$TMP/slow.json" 40.0 30000.0 true
if "$COMPARE" --baseline "$TMP/baseline.json" --current "$TMP/slow.json" \
    >"$TMP/slow.txt"; then
  fail "regressed run passed"
fi
grep -q "REGRESSED" "$TMP/slow.txt" || fail "no REGRESSED line"

# The same regression under --warn-only: tolerated, exit 0.
"$COMPARE" --warn-only --baseline "$TMP/baseline.json" \
  --current "$TMP/slow.json" >"$TMP/warn.txt" \
  || fail "--warn-only did not tolerate a perf regression"
grep -q "tolerated" "$TMP/warn.txt" || fail "no 'tolerated' line"

# A false correctness flag fails even under --warn-only: wrong answers
# are not a perf matter.
write_json "$TMP/wrong.json" 100.0 100000.0 false
if "$COMPARE" --warn-only --baseline "$TMP/baseline.json" \
    --current "$TMP/wrong.json" >"$TMP/wrong.txt"; then
  fail "--warn-only masked a correctness failure"
fi
grep -q "correctness flag is FALSE" "$TMP/wrong.txt" \
  || fail "no correctness-failure line"

# The coldstart shape: {"bench": "coldstart"} dispatches to the
# cold-start gate (identical flag + speedup ratio, RSS never gated).
write_coldstart() {
  local path="$1" speedup="$2" identical="$3"
  cat > "$path" <<EOF
{
  "bench": "coldstart",
  "generate_seconds": 0.1,
  "load_seconds": 0.001,
  "speedup": ${speedup},
  "rss_kb": 1000,
  "identical": ${identical}
}
EOF
}
write_coldstart "$TMP/cold_base.json" 100.0 true
write_coldstart "$TMP/cold_same.json" 100.0 true
"$COMPARE" --baseline "$TMP/cold_base.json" \
  --current "$TMP/cold_same.json" >"$TMP/cold_same.txt" \
  || fail "identical coldstart run did not pass"
grep -q "gate passed" "$TMP/cold_same.txt" \
  || fail "no 'gate passed' line (coldstart)"
grep -q "reported only" "$TMP/cold_same.txt" \
  || fail "coldstart gate does not report RSS"
# Speedup collapse beyond the wide band (100x -> 10x): gate fails.
write_coldstart "$TMP/cold_slow.json" 10.0 true
if "$COMPARE" --baseline "$TMP/cold_base.json" \
    --current "$TMP/cold_slow.json" >"$TMP/cold_slow.txt"; then
  fail "collapsed coldstart speedup passed"
fi
grep -q "REGRESSED" "$TMP/cold_slow.txt" \
  || fail "no REGRESSED line (coldstart)"
# Divergent answers fail even under --warn-only.
write_coldstart "$TMP/cold_wrong.json" 100.0 false
if "$COMPARE" --warn-only --baseline "$TMP/cold_base.json" \
    --current "$TMP/cold_wrong.json" >"$TMP/cold_wrong.txt"; then
  fail "--warn-only masked a coldstart correctness failure"
fi
grep -q "correctness flag is FALSE" "$TMP/cold_wrong.txt" \
  || fail "no correctness-failure line (coldstart)"

# The fig7 shape: {"bench": "fig7_runtime"} gates the ratio of its
# "Column Map" to its "1st Table Read" stage time, where lower is better.
write_fig7() {
  local path="$1" column_map_ms="$2"
  cat > "$path" <<EOF
{
  "bench": "fig7_runtime",
  "qps": 250.0,
  "stage_total_ms": {"1st Index": 1.0, "1st Table Read": 100.0,
                     "2nd Index": 4.0, "2nd Table Read": 3.0,
                     "Column Map": ${column_map_ms}, "Consolidate": 4.0}
}
EOF
}
write_fig7 "$TMP/fig7_base.json" 60.0
# A ratio within the band (0.60 -> 0.75 < 0.60 * 1.3): gate passes.
write_fig7 "$TMP/fig7_ok.json" 75.0
"$COMPARE" --baseline "$TMP/fig7_base.json" --current "$TMP/fig7_ok.json" \
  >"$TMP/fig7_ok.txt" || fail "fig7 run within the band did not pass"
grep -q "column_map_over_table_read" "$TMP/fig7_ok.txt" \
  || fail "fig7 gate does not report the column-map ratio"
grep -q "gate passed" "$TMP/fig7_ok.txt" || fail "no 'gate passed' line (fig7)"
# Column map grown past the band (0.60 -> 0.95): gate fails.
write_fig7 "$TMP/fig7_slow.json" 95.0
if "$COMPARE" --baseline "$TMP/fig7_base.json" \
    --current "$TMP/fig7_slow.json" >"$TMP/fig7_slow.txt"; then
  fail "a grown column-map ratio passed"
fi
grep -q "REGRESSED" "$TMP/fig7_slow.txt" || fail "no REGRESSED line (fig7)"

# Missing file and malformed JSON: usage/parse errors, exit 2.
"$COMPARE" --baseline "$TMP/nope.json" --current "$TMP/same.json" \
  2>/dev/null
[ $? -eq 2 ] || fail "missing baseline was not exit 2"
printf '{"unterminated": ' > "$TMP/bad.json"
"$COMPARE" --baseline "$TMP/bad.json" --current "$TMP/same.json" \
  2>/dev/null
[ $? -eq 2 ] || fail "malformed JSON was not exit 2"
"$COMPARE" --baseline-only 2>/dev/null
[ $? -eq 2 ] || fail "bad flags were not exit 2"

echo "bench_compare_cli_test: PASS"
