#!/usr/bin/env bash
# Paired end-to-end comparison of a parent revision against the working tree.
#
#   scripts/bench-pairs.sh <parent-rev> <workload> <seed> <pairs>
#
# Exports <parent-rev> and the working tree (tracked files with their
# uncommitted edits, plus staged new files: `git stash create`) with
# `git archive` into two temporary directories, then alternates
#
#   GODEBUG=gctrace=1 bash bench/run.sh --workload W --seed S --seconds 12 --trace 0
#
# in each, <pairs> times: odd pairs run the parent first, even pairs the
# change first, so both trees see the same spread of host speed. Each tree
# builds its benchmark once, before the first pair, and nothing is written
# to the checkout. Prints one line per run (every end-to-end metric, failed
# ops, GC cycles), then per metric the parent's median [q1, q3], the
# change's median, the change in %, and in how many pairs the change was
# better, in the direction BENCHMARK.json gives. GC cycles are the
# benchmark binary's own: the number of the last gctrace line, which the
# `go build` run.sh does first cannot reach, since the binary's count
# starts again at 1.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 <parent-rev> <workload> <seed> <pairs>" >&2
	exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4
root=$(git rev-parse --show-toplevel)
cd "$root"
change=$(git stash create)
change=${change:-HEAD}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change"
git archive "$rev" | tar -x -C "$tmp/parent"
git archive "$change" | tar -x -C "$tmp/change"
echo "parent $(git rev-parse --short "$rev"), change $(git rev-parse --short "$change"), workload $workload, seed $seed, $pairs pairs"

# Build each tree's benchmark once; run.sh's own build is then a cache hit.
for side in parent change; do
	(cd "$tmp/$side" && bash bench/run.sh -manifest > /dev/null)
done

# run <side> <pair>: one end-to-end run, appended to $tmp/runs as
# "<pair> <side> <metric> <value>" rows.
run() {
	local side=$1 pair=$2 out="$tmp/$1.$2.out" err="$tmp/$1.$2.err"
	(cd "$tmp/$side" && GODEBUG=gctrace=1 bash bench/run.sh --workload "$workload" --seed "$seed" \
		--seconds 12 --trace 0 > "$out" 2> "$err")
	awk -v pair="$pair" -v side="$side" '
		/^== / { for (i = 1; i <= NF; i++) if ($i ~ /^failed=/) { sub(/^failed=/, "", $i); failed = $i } }
		NF == 3 && $2 ~ /^[0-9.eE+-]+$/ && $3 != "(ungated)" { print pair, side, $1, $2 }
		END { print pair, side, "failed_ops", failed }' "$out" >> "$tmp/runs"
	awk -v pair="$pair" -v side="$side" '/^gc [0-9]+ / { n = $2 } END { print pair, side, "gc_cycles", n + 0 }' "$err" >> "$tmp/runs"
	grep '^WARN' "$out" || true
	awk -v pair="$pair" -v side="$side" '$1 == pair && $2 == side { line = line sprintf(" %s=%s", $3, $4) }
		END { printf("pair %2d %-6s%s\n", pair, side, line) }' "$tmp/runs"
}

for pair in $(seq 1 "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$pair"
		run change "$pair"
	else
		run change "$pair"
		run parent "$pair"
	fi
done

# Directions from the manifest: "higher" metrics win by going up; failed
# ops and GC cycles, like every other metric, by going down.
awk '/"name":/ { gsub(/[",]/, "", $2); name = $2 } /"better":/ { gsub(/[",]/, "", $2); print name, $2 }' \
	BENCHMARK.json > "$tmp/better"

echo
awk '
	FNR == NR { better[$1] = $2; next }
	{
		if (!($3 in seen)) { seen[$3] = 1; order[++n] = $3 }
		v[$3, $2, $1] = $4
		if ($1 > pairs) pairs = $1
	}
	# quantile: linear interpolation over the k sorted values in a[1..k].
	function quantile(a, k, q,   pos, lo) {
		pos = 1 + (k - 1) * q; lo = int(pos)
		return lo >= k ? a[k] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
	}
	function sorted(metric, side, a,   i, j, k, t) {
		k = 0
		for (i = 1; i <= pairs; i++) if ((metric, side, i) in v) a[++k] = v[metric, side, i] + 0
		for (i = 2; i <= k; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
		return k
	}
	END {
		printf("%-20s %14s %27s %14s %9s %6s\n", "metric", "parent median", "[q1, q3]", "change median", "delta", "wins")
		for (m = 1; m <= n; m++) {
			name = order[m]
			kp = sorted(name, "parent", p); kc = sorted(name, "change", c)
			pm = quantile(p, kp, 0.5); cm = quantile(c, kc, 0.5)
			wins = 0; both = 0
			for (i = 1; i <= pairs; i++) {
				if (!((name, "parent", i) in v) || !((name, "change", i) in v)) continue
				both++
				d = v[name, "change", i] - v[name, "parent", i]
				if (better[name] == "higher" ? d > 0 : d < 0) wins++
			}
			delta = pm == 0 ? "n/a" : sprintf("%+.1f%%", 100 * (cm - pm) / pm)
			printf("%-20s %14.4f [%12.4f, %12.4f] %14.4f %9s %3d/%-2d\n", name, pm,
				quantile(p, kp, 0.25), quantile(p, kp, 0.75), cm, delta, wins, both)
		}
	}' "$tmp/better" "$tmp/runs"
