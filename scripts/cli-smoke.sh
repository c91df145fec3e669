#!/usr/bin/env bash
# Builds philly-sim, philly-repro, philly-sweep, philly-trace and
# philly-plot once and drives them end to end: every small-scale run must
# exit 0, every usage error must exit 2 with one "command: problem" line on
# stderr, and philly-plot must render a philly-sweep export but refuse the
# same export followed by garbage with exit 1 and one such line.
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
(cd "$root" && "${GO:-go}" build -o "$dir/bin/" ./cmd/philly-sim ./cmd/philly-repro ./cmd/philly-sweep ./cmd/philly-trace ./cmd/philly-plot)
cd "$dir"
PATH="$dir/bin:$PATH"
log="$dir/last.log"
out="$dir/last.out"
fail=0

# runs CMD ARGS...: the command must exit 0. Its stdout stays in last.out.
runs() {
	local code=0
	"$@" >"$out" 2>"$log" || code=$?
	if [ "$code" -ne 0 ]; then
		echo "FAIL (exit $code, want 0): $*"
		cat "$out" "$log"
		fail=1
	else
		echo "ok    $*"
	fi
}

# exits WANT CMD ARGS...: the command must exit WANT, printing one stderr
# line that starts with "CMD: " and names CMD nowhere else.
exits() {
	local want=$1 code=0
	shift
	"$@" >/dev/null 2>"$log" || code=$?
	if [ "$code" -ne "$want" ] || [ "$(wc -l <"$log")" -ne 1 ] ||
		! grep -q "^$1: " "$log" || [ "$(grep -o "$1:" "$log" | wc -l)" -ne 1 ]; then
		echo "FAIL (exit $code, want $want and one '$1: ...' line): $*"
		cat "$log"
		fail=1
	else
		echo "ok    $* -> $(cat "$log")"
	fi
}

# refuses CMD ARGS...: a usage error, exit 2.
refuses() { exits 2 "$@"; }

runs philly-sim -scale small -seed 3 -workers 2 -faults all -checkpoint 30 -out sim
runs philly-sim -federation philly-small+helios-like -seed 5 -workers 2 -faults server+rack -checkpoint 30 -out fed
runs philly-repro -scale small -seed 7 -workers 2 -faults all
runs philly-repro -federation philly-small+helios-like -policy fifo -faults server -workers 2
runs philly-sweep -workers 2 -replicas 2 -axis sched.policy=philly,fifo -axis failure.domains=none,all -o json
cp "$out" sweep.json
runs philly-plot -in sweep.json -csv plot.csv -md plot.md
# An export must be the whole input: trailing garbage is a runtime error.
{ cat sweep.json; echo 'garbage{'; } >trailing.json
exits 1 philly-plot -in trailing.json -md -
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
