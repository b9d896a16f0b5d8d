#!/usr/bin/env bash
# CTest smoke for the wwt_indexer CLI (labels: unit). Drives the real
# binary end to end: build a tiny corpus, revalidate it without --force,
# --inspect both artifact kinds, rebuild with --force, write a sharded
# set, and assert the error contract — an unwritable output path or a
# malformed numeric flag exits non-zero with a one-line
# "wwt_indexer: ..." diagnostic, never a crash or a silent default —
# and that --format json escapes the strings it prints.
set -u

INDEXER="${1:?usage: wwt_indexer_cli_test.sh /path/to/wwt_indexer}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail() { echo "wwt_indexer_cli_test: FAIL: $1"; exit 1; }

# The smallest corpus the generator produces quickly; all invocations
# share the parameters so revalidation is exercised for real.
ARGS=(--scale 0.05 --seed 5 --noise-pages 10)

# Build.
"$INDEXER" --out "$TMP/tiny.wwtsnap" "${ARGS[@]}" >"$TMP/build.txt" \
  || fail "initial build exited non-zero"
grep -q "built snapshot" "$TMP/build.txt" || fail "no 'built snapshot' line"
[ -s "$TMP/tiny.wwtsnap" ] || fail "no artifact written"

# Re-run without --force: the existing artifact is kept (the CI cache
# path).
"$INDEXER" --out "$TMP/tiny.wwtsnap" "${ARGS[@]}" >"$TMP/revalidate.txt" \
  || fail "revalidation exited non-zero"
grep -q "validated existing" "$TMP/revalidate.txt" \
  || fail "matching artifact was rebuilt instead of validated"

# --inspect round-trips the header and META facts.
"$INDEXER" --inspect "$TMP/tiny.wwtsnap" >"$TMP/inspect.txt" \
  || fail "--inspect exited non-zero"
grep -q "content hash" "$TMP/inspect.txt" || fail "inspect shows no hash"
grep -q "tables" "$TMP/inspect.txt" || fail "inspect shows no table count"

# --inspect --format json: one machine-readable object with the version,
# content hash and the per-section byte sizes.
"$INDEXER" --inspect "$TMP/tiny.wwtsnap" --format json \
  >"$TMP/inspect.json" || fail "--inspect --format json exited non-zero"
grep -q '"format_version"' "$TMP/inspect.json" \
  || fail "json inspect shows no format_version"
grep -q '"content_hash"' "$TMP/inspect.json" \
  || fail "json inspect shows no content_hash"
grep -q '"sections"' "$TMP/inspect.json" \
  || fail "json inspect shows no sections"
grep -q '"tag": "INDX"' "$TMP/inspect.json" \
  || fail "json inspect lists no INDX section"
"$INDEXER" --inspect "$TMP/tiny.wwtsnap" --format bogus \
  >/dev/null 2>"$TMP/fmt_err.txt" && fail "--format bogus did not fail"
[ "$(grep -c '^wwt_indexer: ' "$TMP/fmt_err.txt")" -eq 1 ] \
  || fail "expected one 'wwt_indexer: ...' line for --format bogus"

# --force rebuilds even though the artifact matches.
"$INDEXER" --out "$TMP/tiny.wwtsnap" "${ARGS[@]}" --force \
  >"$TMP/force.txt" || fail "--force exited non-zero"
grep -q "built snapshot" "$TMP/force.txt" || fail "--force did not rebuild"

# Sharded set: 3 shard files + a manifest, inspectable.
"$INDEXER" --out "$TMP/tiny.wwtset" "${ARGS[@]}" --shards 3 \
  >"$TMP/shards.txt" || fail "sharded build exited non-zero"
grep -Eq "shards +3" "$TMP/shards.txt" || fail "sharded build not 3-way"
for s in 0 1 2; do
  [ -s "$TMP/tiny.shard-$s-of-3.wwtsnap" ] || fail "shard $s missing"
done
"$INDEXER" --inspect "$TMP/tiny.wwtset" >"$TMP/setinspect.txt" \
  || fail "--inspect on manifest exited non-zero"
grep -q "corpus set" "$TMP/setinspect.txt" || fail "manifest inspect wrong"
"$INDEXER" --inspect "$TMP/tiny.wwtset" --format json \
  >"$TMP/setinspect.json" || fail "json manifest inspect exited non-zero"
grep -q '"kind": "set"' "$TMP/setinspect.json" \
  || fail "json manifest inspect has wrong kind"
grep -q '"shards"' "$TMP/setinspect.json" \
  || fail "json manifest inspect lists no shards"
grep -q '"first_table_id"' "$TMP/setinspect.json" \
  || fail "json manifest inspect lists no shard id ranges"

# Unwritable output path (the parent "directory" is a regular file, so
# this fails for root too): non-zero exit + a one-line diagnostic.
: >"$TMP/blocker"
if "$INDEXER" --out "$TMP/blocker/sub/x.wwtsnap" "${ARGS[@]}" \
    >/dev/null 2>"$TMP/err.txt"; then
  fail "unwritable output path did not fail"
fi
[ "$(grep -c '^wwt_indexer: ' "$TMP/err.txt")" -eq 1 ] \
  || fail "expected exactly one 'wwt_indexer: ...' error line"
if "$INDEXER" --out "$TMP/blocker/sub/x.wwtset" "${ARGS[@]}" --shards 2 \
    >/dev/null 2>"$TMP/err2.txt"; then
  fail "unwritable sharded output path did not fail"
fi
[ "$(grep -c '^wwt_indexer: ' "$TMP/err2.txt")" -eq 1 ] \
  || fail "expected exactly one 'wwt_indexer: ...' error line (sharded)"

# Malformed numeric flags fail: they are never read as 0 or a default
# (a scale read as 0 writes a 0-table snapshot).
for bad in "--scale abc" "--scale -1" "--scale 0" "--seed abc" \
    "--seed -3" "--noise-pages 1x" "--shards 2.5"; do
  set -- $bad
  if "$INDEXER" --out "$TMP/badflag.wwtsnap" "$@" >/dev/null \
      2>"$TMP/badflag.err"; then
    fail "'$bad' did not fail"
  fi
  [ "$(wc -l <"$TMP/badflag.err")" -eq 1 ] \
    || fail "'$bad' printed more than one line"
  grep -q "^wwt_indexer: $1 wants .*, got '$2'\$" "$TMP/badflag.err" \
    || fail "'$bad' has the wrong diagnostic: $(cat "$TMP/badflag.err")"
  [ -e "$TMP/badflag.wwtsnap" ] && fail "'$bad' wrote an artifact"
done

# --format json escapes what it prints: a path with a quote and a
# backslash, and the shard file names derived from it.
ODD="$TMP/q\"uo\\te"
cp "$TMP/tiny.wwtsnap" "$ODD.wwtsnap"
"$INDEXER" --inspect "$ODD.wwtsnap" --format json >"$TMP/odd.json" \
  || fail "json inspect of an odd path exited non-zero"
grep -qF 'q\"uo\\te.wwtsnap"' "$TMP/odd.json" \
  || fail "json inspect did not escape the path"
"$INDEXER" --out "$ODD.wwtset" "${ARGS[@]}" --shards 2 >/dev/null \
  || fail "sharded build at an odd path failed"
"$INDEXER" --inspect "$ODD.wwtset" --format json >"$TMP/oddset.json" \
  || fail "json inspect of an odd set exited non-zero"
grep -qF '"file": "q\"uo\\te.shard-0-of-2.wwtsnap"' "$TMP/oddset.json" \
  || fail "json inspect did not escape the shard file names"
if command -v python3 >/dev/null 2>&1; then
  for f in odd oddset; do
    python3 -m json.tool "$TMP/$f.json" >/dev/null \
      || fail "$f.json is not valid JSON"
  done
fi

echo "wwt_indexer_cli_test: PASS"
