#!/usr/bin/env sh
# Deterministic bad-input corpus smoke (tests/corpus/): malformed
# manifests and DIMACS files must come back as structured errors —
# ccg_batch exit 2 for manifest errors, exit 1 with build_failed job
# errors for bad graph files — and the reports must be byte-identical
# across scheduler-worker counts. An unwritable --out is a usage error
# (exit 2). A crash (signal, unhandled throw) fails the gate. Outputs go
# to a temporary directory removed on exit, so the working tree stays
# clean. Run from the repo root: ci/corpus_smoke.sh [path/to/ccg_batch]
set -u
BATCH="${1:-./build/ccg_batch}"
fail=0
OUT="$(mktemp -d)" || exit 1
trap 'rm -rf "$OUT"' EXIT

# Malformed manifests: parse-time rejection, exit 2.
for m in tests/corpus/bad_manifest_*.txt; do
  "$BATCH" --manifest "$m" --quiet >/dev/null 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $m exited $code (want 2)"
    fail=1
  fi
done

# Malformed DIMACS inputs: the batch completes, every job fails with a
# structured build error, exit 1 — deterministically across workers.
for w in 1 8; do
  "$BATCH" --manifest tests/corpus/bad_dimacs.manifest --no-timing \
    --sched-workers "$w" --quiet --out "$OUT/corpus_w$w.json" 2>/dev/null
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL: bad_dimacs.manifest exited $code (want 1)"
    fail=1
  fi
done
diff "$OUT/corpus_w1.json" "$OUT/corpus_w8.json" || { echo "FAIL: corpus report differs across workers"; fail=1; }
grep -q '"error_code": "build_failed"' "$OUT/corpus_w1.json" || { echo "FAIL: no build_failed in corpus report"; fail=1; }
grep -q '"ok": true' "$OUT/corpus_w1.json" && { echo "FAIL: corpus job unexpectedly ok"; fail=1; }

# Bad CCG_FAILPOINTS env spec: structured usage error, exit 2.
echo "job --gen cycle --n 50 --algo fast" | \
  CCG_FAILPOINTS="x=explode" "$BATCH" --manifest - --quiet >/dev/null 2>&1
code=$?
if [ "$code" -ne 2 ]; then
  echo "FAIL: bad CCG_FAILPOINTS spec exited $code (want 2)"
  fail=1
fi

# Fault drill against the stock binary: an env-armed persistent fault with
# retries + degradation serves every job degraded, exit 3.
echo "job --gen cycle --n 50 --algo fast" | \
  CCG_FAILPOINTS="svc.job.run=throw" "$BATCH" --manifest - \
    --max-retries 1 --degrade --no-timing --quiet --out "$OUT/corpus_drill.json" 2>/dev/null
code=$?
if [ "$code" -ne 3 ]; then
  echo "FAIL: degradation drill exited $code (want 3)"
  fail=1
fi
grep -q '"degraded": true' "$OUT/corpus_drill.json" || { echo "FAIL: drill report not degraded"; fail=1; }

# Unwritable --out: a usage error (exit 2) caught before any job runs,
# not a failed job (exit 1).
echo "job --gen cycle --n 50 --algo fast" | \
  "$BATCH" --manifest - --quiet --out "$OUT/missing/report.json" 2>/dev/null
code=$?
if [ "$code" -ne 2 ]; then
  echo "FAIL: unwritable --out exited $code (want 2)"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "corpus smoke: all checks passed"
fi
exit "$fail"
