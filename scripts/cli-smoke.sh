#!/usr/bin/env bash
# Builds philly-sim, philly-repro, philly-sweep and philly-trace once and
# drives them end to end: every small-scale run must exit 0, and every
# usage error must exit 2 with one "command: problem" line on stderr.
#
#   bash scripts/cli-smoke.sh [DIR]
#
# DIR (default .cli-smoke/ at the root of the checkout) receives the
# binaries and the runs' output files; GO names the go command.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${1:-$root/.cli-smoke}"
rm -rf "$dir"
mkdir -p "$dir/bin"
(cd "$root" && "${GO:-go}" build -o "$dir/bin/" ./cmd/philly-sim ./cmd/philly-repro ./cmd/philly-sweep ./cmd/philly-trace)
cd "$dir"
PATH="$dir/bin:$PATH"
log="$dir/last.log"
fail=0

# runs CMD ARGS...: the command must exit 0.
runs() {
	local code=0
	"$@" >"$log" 2>&1 || code=$?
	if [ "$code" -ne 0 ]; then
		echo "FAIL (exit $code, want 0): $*"
		cat "$log"
		fail=1
	else
		echo "ok    $*"
	fi
}

# refuses CMD ARGS...: the command must exit 2, printing one stderr line
# that starts with "CMD: " and names CMD nowhere else.
refuses() {
	local code=0
	"$@" >/dev/null 2>"$log" || code=$?
	if [ "$code" -ne 2 ] || [ "$(wc -l <"$log")" -ne 1 ] ||
		! grep -q "^$1: " "$log" || [ "$(grep -o "$1:" "$log" | wc -l)" -ne 1 ]; then
		echo "FAIL (exit $code, want 2 and one '$1: ...' line): $*"
		cat "$log"
		fail=1
	else
		echo "ok    $* -> $(cat "$log")"
	fi
}

runs philly-sim -scale small -seed 3 -workers 2 -faults all -checkpoint 30 -out sim
runs philly-sim -federation philly-small+helios-like -seed 5 -workers 2 -faults server+rack -checkpoint 30 -out fed
runs philly-repro -scale small -seed 7 -workers 2 -faults all
runs philly-repro -federation philly-small+helios-like -policy fifo -faults server -workers 2
runs philly-sweep -workers 2 -replicas 2 -axis sched.policy=philly,fifo -axis failure.domains=none,all -o json
runs philly-trace generate -jobs 2000 -days 4 -seed 3 -csv spec.csv
runs philly-trace replay -in spec.csv -run -scale small -workers 2
for cmd in philly-sim philly-repro philly-sweep; do
	runs "$cmd" -h
done

refuses philly-sim -shard-events
refuses philly-sim -scale galactic
refuses philly-sim -faults bogus
refuses philly-sim -checkpoint x:y
refuses philly-sim -federation philly-small -scale small
refuses philly-sim -federation philly-small -pattern diurnal
refuses philly-sim -pattern diurnal -replay x.csv
refuses philly-sim -federation nosuch
refuses philly-repro -policy slurm
refuses philly-repro -federation philly-small -replicas 2
refuses philly-repro -federation philly-small -policy slurm
refuses philly-sweep -scale galactic

exit "$fail"
