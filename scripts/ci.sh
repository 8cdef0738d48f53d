#!/usr/bin/env bash
# The checks of CI, one function per step; .github/workflows/tests.yml runs
# each as `bash scripts/ci.sh NAME`, after installing the pinned tools.
#
# `bash scripts/ci.sh` runs every step of STEPS in order, each in a fresh
# bash, and prints each exit code and time; it exits 1 if any step failed.
# It installs nothing: the tools must be present.  Run offline, RUNNER_TEMP
# defaults to a temporary directory, and with no `eigenrl` console script
# on PATH, `eigenrl` runs `python3 -m eigenrl.cli` from src/.
set -eo pipefail
cd "$(dirname "$0")/.."
STEPS=(tier1 tier1_optimized golden golden_optimized smoke console traces)

tier1() {
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python "$@" -m pytest -q --continue-on-collection-errors
}

tier1_optimized() {
  tier1 -O
}

golden() {
  python3 perfbench/run.py --golden check
}

golden_optimized() {
  # the benchmark's children inherit PYTHONOPTIMIZE, so every hash is
  # checked with asserts stripped
  PYTHONOPTIMIZE=1 golden
}

smoke() {
  # run.py exits 0 even when a check fails, so read the verdict from its last line.
  # fig3_dense 7: golden hash, trace replay, README stdout line.
  # Off the golden seeds, each with identical CSVs:
  # resample_dim16 8: ragged stops, stride above 1, snapshot features read as rounds end;
  # fig3_dense 8: lockstep rounds summed as they end;
  # fig6_dim4 8: members far ahead, rows waiting in the fold's ring across flushes.
  local pair out
  for pair in "fig3_dense 7" "resample_dim16 8" "fig3_dense 8" "fig6_dim4 8"; do
    out="$RUNNER_TEMP/${pair/ /_seed}.json"
    python3 perfbench/run.py --workload "${pair% *}" --seed "${pair#* }" --seconds 2 --trace 0 | tail -n 1 > "$out"
    python3 -c 'import json, sys; sys.exit(json.load(open(sys.argv[1])).get("correct") is not True)' "$out" \
      || { echo "benchmark smoke run of $pair is not correct" >&2; exit 1; }
  done
}

# Bad input: the command, given `--out OUT`, exits 2 with one stderr line
# and writes no OUT.  Usage: refuses OUT COMMAND...
refuses() {
  local out=$1 status=0
  shift
  "$@" --out "$out" 2> "$out.err" || status=$?
  cat "$out.err"
  test "$status" -eq 2
  test "$(wc -l < "$out.err")" -eq 1
  test ! -e "$out"
}

console() {
  # the installed console script: fig7_bell run with a trace, replayed, and
  # the replayed basis verified; then fig7_bell with env_kind "file" on the
  # generated operator file, which must give the same trace bytes, replayed
  # and verified; its copy with tau 0.5 is refused below
  local t=$RUNNER_TEMP config name
  eigenrl gen-operator --kind bell --out "$t/bell.json"
  python3 -c 'import json, sys; c = json.load(open("configs/fig7_bell.json")); c.update(env_kind="file", operator_file=sys.argv[1]); json.dump(c, open(sys.argv[2], "w")); c.update(tau=0.5); json.dump(c, open(sys.argv[3], "w"))' "$t/bell.json" "$t/bell_file.json" "$t/bad_tau.json"
  for config in configs/fig7_bell.json "$t/bell_file.json"; do
    name=$(basename "$config" .json)
    eigenrl run --config "$config" --out "$t/$name.csv" --trace "$t/$name.trace"
    eigenrl replay --trace "$t/$name.trace" --d-matrix "$t/$name.learned.json"
    eigenrl verify --operator "$t/bell.json" --d-matrix "$t/$name.learned.json"
  done
  cmp "$t/fig7_bell.trace" "$t/bell_file.trace"
  # the file holds the draw times 2 / its spectral spread, so its bytes
  # pin the spread read from the draw's first eig_hermitian pass at the
  # largest dim, past the golden configs' dim 16
  eigenrl gen-operator --kind random --dim 64 --seed 3 --out "$t/op64.json"
  echo "f79fcd8d17a6ae4814442c5dec8d9a8859971f889de180761d2b836a6c3542f9  $t/op64.json" | sha256sum --check
  refuses "$t/bad.json" eigenrl gen-operator --kind random --dim 100
  refuses "$t/seed.json" eigenrl gen-operator --kind bell --seed -1
  refuses "$t/huge.json" eigenrl gen-operator --kind bell --tau 1e308
  refuses "$t/bad_tau.csv" eigenrl run --config "$t/bad_tau.json"
}

traces() {
  # the golden step pins the nine bundled configs' CSVs, this their traces,
  # repetition 0's of the full-size fig6_random2q gathered from 8,500
  # rounds; like the CSVs, these bytes depend on the BLAS kernel, and a
  # change to the trace capture, writer or punish path that moves one
  # fails here
  local config name
  for config in configs/*.json; do
    name=$(basename "$config" .json)
    eigenrl run --config "$config" --out "$RUNNER_TEMP/$name.csv" --trace "$RUNNER_TEMP/$name.trace"
  done
  (cd "$RUNNER_TEMP" && sha256sum --check) <<SUMS
9ddafcb93138a33b3a6a14cd9d76c2dc21ebecc20b55aab2c029521f5c24da7e  fig3_r06_nu1.trace
3778da8ca24ce7adcf78b48ec3b78f3959a2c7888a8f6f8a0fbbc5a6decb1600  fig3_r06_nu15.trace
488a6b2cb97b7d28a5e6bb749bd0085e89e75b6af96855a55a863931a392b68c  fig3_r06_nu2.trace
c4421f2d85da5e93c2d568397833a906468214ec2b696dd12ae01ff3ca35f4a5  fig3_r09_nu1.trace
0b5328e095eeb209f764fe686bfc6259227d4fc644c30743d721093fd6883d2e  fig3_r09_nu15.trace
0dca12682d8b81d2648adfd00cc1ad68bec85cb0e4597b68274a1556e5851481  fig3_r09_nu2.trace
7e7db6fe9cd0df9024f97e1167bc73f1e3c0307fe4c201c859356d2a30933a57  fig5_sx.trace
3670ceff78db235e6a1cd7efdb90bc2ba5e39d3fed29e545607624e7922880da  fig6_random2q.trace
214ab07f8cf5a2880f2b1ea0fa10e190e5d95747efe00290a4ed2d0584306b38  fig7_bell.trace
SUMS
  eigenrl replay --trace "$RUNNER_TEMP/fig6_random2q.trace"
}

# untraced, as a console script is, so that a refusal's stderr is one line
command -v eigenrl > /dev/null || eigenrl() (
  { set +x; } 2> /dev/null
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} exec python3 -m eigenrl.cli "$@"
)
if [[ -z $RUNNER_TEMP ]]; then
  export RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

# one step, each command traced into the log; or, with no argument, all
if (($#)); then
  [[ " ${STEPS[*]} " == *" $1 "* ]] || { echo "ci.sh: no step named '$1'; the steps are ${STEPS[*]}" >&2; exit 2; }
  set -x
  "$1"
  exit
fi
failed=0
for step in "${STEPS[@]}"; do
  SECONDS=0
  bash scripts/ci.sh "$step" && code=0 || code=$?
  printf 'exit %-3s %5d s  %s\n' "$code" "$SECONDS" "$step"
  failed=$((failed + (code != 0)))
done
echo "${#STEPS[@]} steps: $failed failed"
((failed == 0))
