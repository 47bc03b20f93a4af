#!/usr/bin/env bash
# The open-loop latency table: ugache-serve built once, then
# `-open-loop -qps Q -duration 2s -metrics-out` three times at each of
# 5,000, 20,000 and 80,000 req/s (SYN-A on Server C, defaults otherwise),
# and for each rate the median over its runs of three p50s:
#
#   lag       intended arrival -> Handle (the "lag:" line);
#   engine    enqueue -> reply (serve_request_latency_seconds_p50 in the
#             metrics file);
#   observed  intended arrival -> reply noticed (the "observed:" line, or the
#             single "latency (from intended arrival)" line of a tree that
#             predates the poller, where lag reads "-").
#
#   scripts/openloop_table.sh [source-dir]
#
# source-dir is the checked-out tree to build (default: this one), so the
# table of another commit is one `git archive` away. A run takes about 25 s.
set -euo pipefail

src="${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
(cd "$src" && go build -o "$tmp/ugache-serve" ./cmd/ugache-serve)

# us prints the p50 of the report line that starts with $1 in microseconds
# (a time.Duration's text: 453ns, 26.1µs, 3.3ms, 1.2s), or "-" without one.
us() {
	awk -v want="$1" '
		index($0, want) == 1 {
			for (i = 1; i < NF; i++) if ($i == "p50") { v = $(i + 1); break }
			if      (v ~ /ns$/)           { sub(/ns$/, "", v); v /= 1000 }
			else if (v ~ /(µs|us)$/)      { sub(/(µs|us)$/, "", v) }
			else if (v ~ /ms$/)           { sub(/ms$/, "", v); v *= 1000 }
			else if (v ~ /s$/)            { sub(/s$/, "", v); v *= 1e6 }
			printf "%.1f\n", v; found = 1; exit
		}
		END { if (!found) print "-" }' "$2"
}

# median prints the middle of its arguments ("-" when they are all "-").
median() {
	printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'
}

echo "| rate (req/s) | lag p50 (µs) | engine p50 (µs) | observed p50 (µs) |"
echo "|---|---|---|---|"
for qps in 5000 20000 80000; do
	lag=() engine=() observed=()
	for run in 1 2 3; do
		out="$tmp/$qps.$run"
		"$tmp/ugache-serve" -open-loop -qps "$qps" -duration 2s -metrics-out "$out.json" >"$out.txt"
		lag+=("$(us "lag:" "$out.txt")")
		observed+=("$(us "observed:" "$out.txt")")
		[ "${observed[-1]}" != - ] || observed[-1]="$(us "latency (from intended arrival)" "$out.txt")"
		engine+=("$(awk -F': ' '/"serve_request_latency_seconds_p50"/ { printf "%.1f\n", $2 * 1e6 }' "$out.json")")
	done
	echo "| $qps | $(median "${lag[@]}") | $(median "${engine[@]}") | $(median "${observed[@]}") |"
done
