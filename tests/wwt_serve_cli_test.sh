#!/usr/bin/env bash
# CTest smoke for the wwt_serve request contract (labels: unit), pinning
# the CLI contracts from the outside:
#   1. --deadline-ms outside --stdin (batch and --queries alike) is a
#      clean one-line error, not a silently mis-deadlined batch.
#   2. The stdin-mode "served N queries, ..." stderr summary prints
#      before EVERY exit — the success path AND the failure path, where
#      it must precede the failure diagnostic.
#   3. Empty columns are rejected, never collapsed: "a||b" and "a|b|"
#      fail validation in BOTH input modes ("a||b" must not silently
#      become the different query "a|b"), while whitespace-only lines
#      are skipped as non-queries.
#   4. Freshness (docs/FRESHNESS.md): --mutations serves immediately,
#      the journal replays across a restart, wwt_indexer --inspect
#      reads it, and --merge-now folds the delta into a set whose
#      served digests are byte-identical to the pre-merge run — the
#      digest-equality tentpole, driven end to end through the CLI.
#   5. SIGHUP in --stdin mode atomically reloads the snapshot between
#      lines; the run keeps serving and says so on stderr.
#   6. Malformed numbers fail instead of wrapping or falling back to a
#      default: a mutation id above the 32-bit range, and numeric flag
#      values that are not whole, in-range numbers.
#   7. A journal record that no live mutation could have written (an
#      add of table id 0xFFFFFFFF) is refused at startup, file intact.
#   8. Text output prints each query's execute_seconds (the sample the
#      summary aggregates) and marks cache hits "(cached)".
set -u

INDEXER="${1:?usage: wwt_serve_cli_test.sh /path/to/wwt_indexer /path/to/wwt_serve}"
SERVE="${2:?usage: wwt_serve_cli_test.sh /path/to/wwt_indexer /path/to/wwt_serve}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail() { echo "wwt_serve_cli_test: FAIL: $1"; exit 1; }

# One tiny snapshot shared by every case.
"$INDEXER" --out "$TMP/tiny.wwtsnap" --scale 0.05 --seed 5 \
  --noise-pages 10 >/dev/null || fail "indexer build failed"

# Any well-formed two-column query serves fine regardless of hit count
# (an empty answer is still exit 0); the paper's running example will do.
QUERY='name of explorers | nationality'

# ---- 1. --deadline-ms requires --stdin: default batch mode...
if "$SERVE" --snapshot "$TMP/tiny.wwtsnap" --deadline-ms 100 \
    >/dev/null 2>"$TMP/dl_batch.err"; then
  fail "--deadline-ms in default batch mode did not fail"
fi
[ "$(grep -c '^wwt_serve: ' "$TMP/dl_batch.err")" -eq 1 ] \
  || fail "expected one 'wwt_serve: ...' line for batch --deadline-ms"
grep -q 'requires --stdin' "$TMP/dl_batch.err" \
  || fail "batch --deadline-ms error does not say why"

# ...and --queries mode.
printf '%s\n' "$QUERY" >"$TMP/ok.queries"
if "$SERVE" --snapshot "$TMP/tiny.wwtsnap" --queries "$TMP/ok.queries" \
    --deadline-ms 100 >/dev/null 2>"$TMP/dl_q.err"; then
  fail "--deadline-ms with --queries did not fail"
fi
[ "$(grep -c '^wwt_serve: ' "$TMP/dl_q.err")" -eq 1 ] \
  || fail "expected one 'wwt_serve: ...' line for --queries --deadline-ms"

# With --stdin the same flag is accepted.
printf '%s\n' "$QUERY" \
  | "$SERVE" --snapshot "$TMP/tiny.wwtsnap" --stdin --deadline-ms 5000 \
      --quiet >/dev/null 2>"$TMP/dl_ok.err" \
  || fail "--stdin --deadline-ms exited non-zero on a valid query"
grep -q '^served 1 queries' "$TMP/dl_ok.err" \
  || fail "--stdin --deadline-ms printed no summary"

# ---- 2. The stdin summary prints on both exit paths.
# Success path: exit 0, summary present.
printf '%s\n' "$QUERY" \
  | "$SERVE" --snapshot "$TMP/tiny.wwtsnap" --stdin --quiet \
      >"$TMP/ok.out" 2>"$TMP/ok.err" \
  || fail "stdin success path exited non-zero"
grep -q '^served 1 queries, 0 expired, 0 from cache$' "$TMP/ok.err" \
  || fail "no summary line on the success path"
grep -q '^ok ' "$TMP/ok.out" || fail "no per-line response on stdout"

# Failure path (a malformed query): exit non-zero, but the summary must
# STILL print, before the failure diagnostic.
printf '%s\na||b\n' "$QUERY" \
  | "$SERVE" --snapshot "$TMP/tiny.wwtsnap" --stdin --quiet \
      >"$TMP/bad.out" 2>"$TMP/bad.err" \
  && fail "stdin run with a rejected query exited zero"
grep -q '^served 1 queries' "$TMP/bad.err" \
  || fail "failure exit dropped the summary line"
grep -q '^wwt_serve: 1 of 2 queries failed' "$TMP/bad.err" \
  || fail "no failure diagnostic after the summary"
SUMMARY_LINE=$(grep -n '^served ' "$TMP/bad.err" | cut -d: -f1 | head -1)
FAIL_LINE=$(grep -n '^wwt_serve: ' "$TMP/bad.err" | cut -d: -f1 | head -1)
[ "$SUMMARY_LINE" -lt "$FAIL_LINE" ] \
  || fail "summary printed after the failure line, not before"

# ---- 3. Empty columns are rejected in both modes, not collapsed.
for bad in 'a||b' 'a|b|' '| a | b'; do
  printf '%s\n' "$bad" \
    | "$SERVE" --snapshot "$TMP/tiny.wwtsnap" --stdin --quiet \
        >"$TMP/col.out" 2>/dev/null \
    && fail "stdin accepted malformed query '$bad'"
  grep -q 'empty or whitespace-only' "$TMP/col.out" \
    || fail "stdin rejection of '$bad' has the wrong reason"

  printf '%s\n' "$bad" >"$TMP/bad.queries"
  if "$SERVE" --snapshot "$TMP/tiny.wwtsnap" --queries "$TMP/bad.queries" \
      >"$TMP/colq.out" 2>/dev/null; then
    fail "--queries accepted malformed query '$bad'"
  fi
  grep -q 'empty or whitespace-only' "$TMP/colq.out" \
    || fail "--queries rejection of '$bad' has the wrong reason"
done

# Whitespace-only lines are no query at all: skipped, not rejected.
printf '   \n\t\n%s\n' "$QUERY" \
  | "$SERVE" --snapshot "$TMP/tiny.wwtsnap" --stdin --quiet \
      >/dev/null 2>"$TMP/ws.err" \
  || fail "whitespace-only lines failed the run"
grep -q '^served 1 queries' "$TMP/ws.err" \
  || fail "whitespace-only lines were counted as queries"

# Spaces around separators still parse as the same trimmed columns:
# 'a | b' and 'a|b' must share one cache fingerprint (second run hits).
printf 'a | b\na|b\n' \
  | "$SERVE" --snapshot "$TMP/tiny.wwtsnap" --stdin --quiet \
      >/dev/null 2>"$TMP/trim.err" \
  || fail "trimmed-equivalent queries failed"
grep -q '^served 2 queries, 0 expired, 1 from cache$' "$TMP/trim.err" \
  || fail "'a | b' and 'a|b' did not share a fingerprint"

# ---- 4. Freshness: delta mutations, journal replay, merge equality.
"$INDEXER" --out "$TMP/tiny.wwtset" --scale 0.05 --seed 5 \
  --noise-pages 10 --shards 2 >/dev/null || fail "sharded build failed"
cat >"$TMP/muts.txt" <<'MUTS'
# freshness smoke mutations
add | quokka census | quokka name , island population | speedy , 1200 ; zoomy , 800 | marsupial census tables
override-title | 1 | patched title one
tombstone | 2
MUTS

# Mutation/merge flags demand freshness mode, and a merge its output.
if "$SERVE" --snapshot "$TMP/tiny.wwtset" --mutations "$TMP/muts.txt" \
    >/dev/null 2>"$TMP/nofresh.err"; then
  fail "--mutations without --fresh/--journal did not fail"
fi
grep -q 'require freshness mode' "$TMP/nofresh.err" \
  || fail "freshness-mode error does not say why"
if "$SERVE" --snapshot "$TMP/tiny.wwtset" --fresh --merge-now \
    >/dev/null 2>"$TMP/noout.err"; then
  fail "--merge-now without --merge-out did not fail"
fi
grep -q 'require --merge-out' "$TMP/noout.err" \
  || fail "--merge-now error does not name --merge-out"

# A bad mutation line fails with file:line context.
printf 'frobnicate | 3\n' >"$TMP/bad_muts.txt"
if "$SERVE" --snapshot "$TMP/tiny.wwtset" --fresh \
    --mutations "$TMP/bad_muts.txt" >/dev/null 2>"$TMP/badmut.err"; then
  fail "unknown mutation op did not fail"
fi
grep -q 'bad_muts.txt:1' "$TMP/badmut.err" \
  || fail "mutation error lost its file:line context"

# The delta serves immediately: the added table answers over stdin.
printf 'quokka name | island population\n' \
  | "$SERVE" --snapshot "$TMP/tiny.wwtset" --journal "$TMP/delta.wwtdlt" \
      --mutations "$TMP/muts.txt" --stdin --quiet \
      >"$TMP/fresh1.out" 2>"$TMP/fresh1.err" \
  || fail "freshness stdin run exited non-zero"
grep -q '^ok 2' "$TMP/fresh1.out" || fail "added table did not answer"
grep -q '^freshness: 3 pending mutation' "$TMP/fresh1.err" \
  || fail "stdin summary reports no freshness state"

# The journal replays on restart: same answer with NO --mutations.
printf 'quokka name | island population\n' \
  | "$SERVE" --snapshot "$TMP/tiny.wwtset" --journal "$TMP/delta.wwtdlt" \
      --stdin --quiet >"$TMP/fresh2.out" 2>/dev/null \
  || fail "journal replay run exited non-zero"
grep -q '^ok 2' "$TMP/fresh2.out" || fail "journal replay lost the add"

# wwt_indexer --inspect understands the journal, text and JSON.
"$INDEXER" --inspect "$TMP/delta.wwtdlt" >"$TMP/dlt.txt" \
  || fail "journal inspect exited non-zero"
grep -q '^delta journal' "$TMP/dlt.txt" || fail "journal inspect wrong kind"
grep -Eq '^pending tables +2' "$TMP/dlt.txt" \
  || fail "journal inspect pending count wrong"
grep -Eq '^tombstones +1' "$TMP/dlt.txt" \
  || fail "journal inspect tombstone count wrong"
"$INDEXER" --inspect "$TMP/delta.wwtdlt" --format json >"$TMP/dlt.json" \
  || fail "json journal inspect exited non-zero"
grep -q '"kind": "delta-journal"' "$TMP/dlt.json" \
  || fail "json journal inspect has wrong kind"
grep -q '"records": 3' "$TMP/dlt.json" \
  || fail "json journal inspect record count wrong"

# The digest-equality tentpole through the CLI: pre-merge (frozen +
# delta), --merge-now (merged set), and a cold load of the merged
# artifact must serve byte-identical answers query for query.
"$SERVE" --snapshot "$TMP/tiny.wwtset" --fresh --mutations "$TMP/muts.txt" \
  --format json --quiet >"$TMP/pre.json" || fail "pre-merge run failed"
grep -q '"freshness": {"pending": 3' "$TMP/pre.json" \
  || fail "json summary reports no freshness block"
"$SERVE" --snapshot "$TMP/tiny.wwtset" --fresh --mutations "$TMP/muts.txt" \
  --merge-now --merge-out "$TMP/merged.wwtset" --format json --quiet \
  >"$TMP/mrg.json" || fail "--merge-now run failed"
[ -s "$TMP/merged.wwtset" ] || fail "no merged manifest written"
"$SERVE" --snapshot "$TMP/merged.wwtset" --format json --quiet \
  >"$TMP/cold.json" || fail "cold merged run failed"
for f in pre mrg cold; do
  grep -o '"digest": "[0-9a-f]*"' "$TMP/$f.json" >"$TMP/$f.digests"
done
[ -s "$TMP/pre.digests" ] || fail "pre-merge run produced no digests"
cmp -s "$TMP/pre.digests" "$TMP/mrg.digests" \
  || fail "--merge-now digests diverged from the pre-merge run"
cmp -s "$TMP/pre.digests" "$TMP/cold.digests" \
  || fail "cold merged-set digests diverged from the pre-merge run"

# ---- 5. SIGHUP reloads the snapshot between stdin lines.
mkfifo "$TMP/hup.in"
"$SERVE" --snapshot "$TMP/tiny.wwtset" --stdin --quiet \
  >"$TMP/hup.out" 2>"$TMP/hup.err" <"$TMP/hup.in" &
HUP_PID=$!
exec 3>"$TMP/hup.in"
printf '%s\n' "$QUERY" >&3
sleep 0.5
kill -HUP "$HUP_PID"
sleep 0.5
printf '%s\n' "$QUERY" >&3
sleep 0.3
exec 3>&-
wait "$HUP_PID" || fail "SIGHUP run exited non-zero"
grep -q '^reloaded ' "$TMP/hup.err" || fail "no reload line after SIGHUP"
grep -q '^served 2 queries' "$TMP/hup.err" \
  || fail "SIGHUP run did not keep serving"

# ---- 6. Malformed numbers fail. A mutation id past 4294967295 would
# wrap onto table 0 if narrowed; it is a malformed line, reported with
# file:line context.
printf 'tombstone | 4294967296\n' >"$TMP/wrap_muts.txt"
if "$SERVE" --snapshot "$TMP/tiny.wwtset" --fresh \
    --mutations "$TMP/wrap_muts.txt" >/dev/null 2>"$TMP/wrap.err"; then
  fail "out-of-range mutation id did not fail"
fi
grep -q 'wrap_muts.txt:1: InvalidArgument' "$TMP/wrap.err" \
  || fail "out-of-range mutation id lost its file:line context"

# Numeric flags read the whole value and check its range.
check_bad_flag() {  # FLAG VALUE
  if "$SERVE" --snapshot "$TMP/tiny.wwtsnap" "$1" "$2" --quiet \
      >/dev/null 2>"$TMP/flag.err"; then
    fail "$1 '$2' did not fail"
  fi
  [ "$(wc -l <"$TMP/flag.err")" -eq 1 ] \
    || fail "$1 '$2' printed more than one line"
  grep -q "^wwt_serve: $1 wants .*, got '$2'\$" "$TMP/flag.err" \
    || fail "$1 '$2' has the wrong diagnostic: $(cat "$TMP/flag.err")"
}
check_bad_flag --threads abc
check_bad_flag --threads -1
check_bad_flag --batch-mult x
check_bad_flag --batch-mult 0
check_bad_flag --k 5x
check_bad_flag --cache-mb inf
check_bad_flag --merge-shards 2x

# ---- 7. A hostile journal is refused at startup. Take a real journal
# holding one add, point that record at table id 0xFFFFFFFF and
# re-checksum it: replay must refuse it as Corruption naming its seq
# (one wwt_serve: line, exit 1) and leave the file as it was.
if command -v python3 >/dev/null 2>&1; then
  printf 'add | hostile | h1 , h2 | a , b\n' >"$TMP/one_add.txt"
  "$SERVE" --snapshot "$TMP/tiny.wwtset" --journal "$TMP/hostile.wwtdlt" \
    --mutations "$TMP/one_add.txt" --stdin --quiet </dev/null \
    >/dev/null 2>&1 || fail "journaled add run failed"
  python3 - "$TMP/hostile.wwtdlt" <<'PY' || fail "cannot forge the record"
import struct, sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
header = 32  # magic, version, flags, base hash, base end
(size,) = struct.unpack_from("<Q", data, header)
body = header + 8
# Body: u64 seq, u8 kind, u64 table id, payload.
struct.pack_into("<Q", data, body + 9, 0xFFFFFFFF)
h = 14695981039346656037  # FNV-1a 64 over the body
for b in data[body:body + size]:
    h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
struct.pack_into("<Q", data, body + size, h)
open(path, "wb").write(data)
PY
  cp "$TMP/hostile.wwtdlt" "$TMP/hostile.orig"
  if "$SERVE" --snapshot "$TMP/tiny.wwtset" --journal "$TMP/hostile.wwtdlt" \
      --stdin --quiet </dev/null >/dev/null 2>"$TMP/hostile.err"; then
    fail "a journal add of table id 0xFFFFFFFF was accepted"
  fi
  grep -q '^wwt_serve: Corruption: .*record seq 1 ' "$TMP/hostile.err" \
    || fail "hostile journal error is wrong: $(cat "$TMP/hostile.err")"
  cmp -s "$TMP/hostile.wwtdlt" "$TMP/hostile.orig" \
    || fail "a refused journal was rewritten"
fi

# ---- 8. Text output of repeated queries. On one worker the second run
# of each query is a cache hit; it is marked, and every line prints the
# latency sample the summary aggregates, so the summary's p50 and p99
# (nearest-rank, hence samples themselves) are among the printed values.
printf '%s\ncountry | capital\n%s\ncountry | capital\n' "$QUERY" "$QUERY" \
  >"$TMP/repeat.queries"
"$SERVE" --snapshot "$TMP/tiny.wwtsnap" --queries "$TMP/repeat.queries" \
  --threads 1 >"$TMP/repeat.out" 2>/dev/null \
  || fail "repeated-query run failed"
grep ' rows  ' "$TMP/repeat.out" >"$TMP/repeat.lines"
[ "$(wc -l <"$TMP/repeat.lines")" -eq 4 ] \
  || fail "expected 4 query lines: $(cat "$TMP/repeat.out")"
[ "$(sed -n '1,2p' "$TMP/repeat.lines" | grep -c '(cached)')" -eq 0 ] \
  || fail "a first run is marked cached: $(cat "$TMP/repeat.lines")"
[ "$(sed -n '3,4p' "$TMP/repeat.lines" | grep -c '(cached)$')" -eq 2 ] \
  || fail "repeated queries are not marked cached: $(cat "$TMP/repeat.lines")"
awk '{ for (i = 1; i < NF; i++) if ($(i + 1) == "ms") print $i }' \
  "$TMP/repeat.lines" >"$TMP/repeat.ms"
P50="$(sed -n 's/^latency ms: .* p50 \([0-9.]*\) .*/\1/p' "$TMP/repeat.out")"
P99="$(sed -n 's/^latency ms: .* p99 \([0-9.]*\)$/\1/p' "$TMP/repeat.out")"
for v in "$P50" "$P99"; do
  [ -n "$v" ] && grep -qx "$v" "$TMP/repeat.ms" \
    || fail "summary latency '$v' ms is not a printed per-query value: \
$(cat "$TMP/repeat.out")"
done

echo "wwt_serve_cli_test: PASS"
