#!/usr/bin/env bash
# CTest smoke for the experiment benches' environment knobs (labels:
# unit). A knob that is set but malformed or out of range must stop the
# bench with exit 1 and one "bench: WWT_X wants ..., got '...'" line
# before any corpus is built, instead of falling back to a default or
# running on an empty corpus. Unset or empty still means the default.
set -u

TABLE1="${1:?usage: bench_env_cli_test.sh /path/to/bench_table1_queryset /path/to/bench_coldstart}"
COLDSTART="${2:?usage: bench_env_cli_test.sh /path/to/bench_table1_queryset /path/to/bench_coldstart}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail() { echo "bench_env_cli_test: FAIL: $1"; exit 1; }

# expect_bad BENCH KNOB VALUE: the bench exits 1 naming KNOB and VALUE.
expect_bad() {
  local bench="$1" knob="$2" value="$3" status
  env "$knob=$value" "$bench" >"$TMP/out" 2>"$TMP/err"
  status=$?
  [ "$status" -eq 1 ] || fail "$knob='$value' exited $status, not 1"
  [ "$(wc -l <"$TMP/err")" -eq 1 ] \
    || fail "$knob='$value' printed more than one stderr line"
  grep -q "^bench: $knob wants .*, got '$value'\$" "$TMP/err" \
    || fail "$knob='$value' error line is wrong: $(cat "$TMP/err")"
}

for value in abc -1 0 1001 0.5x nan; do
  expect_bad "$TABLE1" WWT_SCALE "$value"
done
for value in abc -3 4.5 18446744073709551616; do
  expect_bad "$TABLE1" WWT_SEED "$value"
done
for value in abc 0 -2 2x; do
  expect_bad "$COLDSTART" WWT_COLDSTART_REPS "$value"
done

# Empty knobs mean their defaults: a small corpus, the default seed.
WWT_SCALE=0.05 WWT_SEED= "$TABLE1" >"$TMP/ok.out" \
  2>"$TMP/ok.err" || fail "empty WWT_SEED did not run"
grep -q '^=== Table 1: query set (scale 0.05) ===$' "$TMP/ok.out" \
  || fail "default run printed no Table 1 banner"

echo "bench_env_cli_test: OK"
