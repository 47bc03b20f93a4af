#!/usr/bin/env bash
# Paired benchmark runs of a base commit against this working tree — the
# evidence a gain claim needs (choosing-metrics §8): N pairs of
# `benchmark/run.sh -workload W -seed S`, the side that goes first flipping
# every pair, then each reported metric's q1/median/q3 per side and how many
# pairs the change won.
#
#   scripts/bench_pairs.sh <base-ref|base-dir> <workload> [pairs=10] [seed=42] [keep-dir]
#
# <base-ref> is checked out into a temporary `git worktree` (removed on exit);
# a directory is taken as an already checked-out base tree and left alone.
# With keep-dir the 2N reports (base.<i>.json, change.<i>.json) are copied
# there, for the per-window spread and whatever else the table leaves out.
# Each side builds and runs from its own tree (.bench_build/ inside it), so
# both use identical benchmark code only when benchmark/ is unchanged between
# them — which a gain PR guarantees. Ten pairs take about seven minutes.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,16p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
	exit 2
fi
base_ref=$1 workload=$2 pairs=${3:-10} seed=${4:-42} keep=${5:-}

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
cleanup() {
	if [ -d "$tmp/base" ]; then
		git -C "$root" worktree remove --force "$tmp/base"
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

if [ -d "$base_ref" ]; then
	base="$(cd "$base_ref" && pwd)"
else
	base="$tmp/base"
	git -C "$root" worktree add --detach "$base" "$base_ref" >/dev/null
fi

# run <side> <tree> <pair>: one benchmark run; a failed correctness gate
# (non-zero exit) aborts the whole comparison.
run() {
	echo "pair $3/$pairs: $1" >&2
	bash "$2/benchmark/run.sh" -workload "$workload" -seed "$seed" \
		-out "$tmp/$1.$3.json" >/dev/null
}
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run base "$base" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run base "$base" "$i"
	fi
done

if [ -n "$keep" ]; then
	mkdir -p "$keep"
	cp "$tmp"/base.*.json "$tmp"/change.*.json "$keep"/
fi

# Every report lists its metrics as "name" then "value" lines; BENCHMARK.json
# gives each name's direction, and which names are end to end.
awk -v pairs="$pairs" -v workload="$workload" -v seed="$seed" '
function strip(s) { gsub(/^[ \t"]+|[",\r]+$/, "", s); return s }
function quartile(v, n, q,    pos, lo, frac) {
	pos = 1 + q * (n - 1); lo = int(pos); frac = pos - lo
	return lo >= n ? v[n] : v[lo] + frac * (v[lo + 1] - v[lo])
}
function summary(side, name,    i, j, t, n, v) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((side, i, name) in val) v[++n] = val[side, i, name]
	if (n == 0) return "-"
	# insertion sort: n is a handful
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	return sprintf("%.4g / %.4g / %.4g", quartile(v, n, 0.25), quartile(v, n, 0.5), quartile(v, n, 0.75))
}
FILENAME ~ /BENCHMARK\.json$/ {
	if ($0 ~ /"end_to_end"/) section = "e2e"
	if ($0 ~ /"per_layer"/) section = "layer"
	if ($1 == "\"name\":") name = strip($2)
	if ($1 == "\"better\":" && section != "") { better[name] = strip($2); if (section == "e2e") e2e[name] = 1 }
	next
}
FNR == 1 {
	n = split(FILENAME, parts, "/"); split(parts[n], f, ".")
	side = f[1]; pair = f[2]
}
$1 == "\"name\":" { name = strip($2) }
$1 == "\"value\":" && name != "" {
	val[side, pair, name] = strip($2) + 0
	if (!(name in seen)) { seen[name] = 1; order[++count] = name }
	name = ""
}
$1 == "\"valid\":" && strip($2) != "true" { invalid[side]++ }
END {
	printf "%s, seed %s, %d pairs (q1 / median / q3; * = end to end)\n", workload, seed, pairs
	printf "%-24s %-34s %-34s %s\n", "metric", "base", "change", "change wins"
	for (pass = 1; pass <= 2; pass++) for (k = 1; k <= count; k++) {
		name = order[k]
		if (!(name in better) || (pass == 1) != (name in e2e)) continue
		wins = ties = 0
		for (i = 1; i <= pairs; i++) {
			b = val["base", i, name]; c = val["change", i, name]
			if (b == c) ties++
			else if ((better[name] == "lower") == (c < b)) wins++
		}
		printf "%-24s %-34s %-34s %d/%d%s\n", (name in e2e ? "*" : " ") name, summary("base", name), summary("change", name), wins, pairs, ties ? " (" ties " ties)" : ""
	}
	for (side in invalid) printf "note: %d %s run(s) marked valid:false by the harness\n", invalid[side], side
}
' "$root/BENCHMARK.json" "$tmp"/base.*.json "$tmp"/change.*.json
