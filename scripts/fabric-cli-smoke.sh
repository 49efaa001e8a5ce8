#!/usr/bin/env bash
# Runs README's cluster block against built fsencrd binaries on loopback: a
# coordinator, one `serve -join` node that owns every shard and one
# `serve -join -empty` node; `fsencrd replicate` then `fsencrd migrate` onto
# the empty node, each of which must exit 0 and print a table naming it; a
# repeated migrate, which the coordinator refuses with its reason; and
# SIGTERM to all three processes, each of which must print "drained".
#
# Usage: scripts/fabric-cli-smoke.sh [base-port]   (default 19100; uses base,
# base+1 and base+2 on 127.0.0.1)
set -euo pipefail

port=${1:-19100}
coord=http://127.0.0.1:$port
a=http://127.0.0.1:$((port + 1))
b=http://127.0.0.1:$((port + 2))
dir=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
	rm -rf "$dir"
}
trap cleanup EXIT

die() {
	echo "fabric-cli-smoke: $*" >&2
	for f in "$dir"/*.log; do echo "--- $f" >&2; cat "$f" >&2; done
	exit 1
}

# until_log waits up to 10 s for a line matching a pattern in a log.
until_log() {
	for _ in $(seq 100); do
		grep -q "$2" "$dir/$1.log" 2>/dev/null && return 0
		sleep 0.1
	done
	die "$1 never printed '$2'"
}

go build -o "$dir/fsencrd" ./cmd/fsencrd
fsencrd=$dir/fsencrd

"$fsencrd" coordinator -addr "127.0.0.1:$port" -shards 4 2>"$dir/coord.log" &
pids+=($!)
for _ in $(seq 100); do
	(exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null && break
	sleep 0.1
done
"$fsencrd" serve -addr "127.0.0.1:$((port + 1))" -shards 4 -join "$coord" 2>"$dir/a.log" &
pids+=($!)
until_log a "joined $coord"
"$fsencrd" serve -addr "127.0.0.1:$((port + 2))" -shards 4 -join "$coord" -empty 2>"$dir/b.log" &
pids+=($!)
until_log b "joined $coord"

"$fsencrd" replicate -coordinator "$coord" -shard 0 -on "$b" >"$dir/replicate.out" ||
	die "replicate exited $?"
grep -q "shard 0: $a (epoch 1) replicas $b\$" "$dir/replicate.out" ||
	die "replicate's table does not list $b: $(cat "$dir/replicate.out")"

"$fsencrd" migrate -coordinator "$coord" -shard 2 -to "$b" >"$dir/migrate.out" ||
	die "migrate exited $?"
grep -q "shard 2: $b (epoch 2)" "$dir/migrate.out" ||
	die "migrate's table does not place shard 2 on $b: $(cat "$dir/migrate.out")"

if "$fsencrd" migrate -coordinator "$coord" -shard 2 -to "$b" 2>"$dir/again.err"; then
	die "a migrate to the shard's owner exited 0"
fi
grep -q "shard 2 already lives on $b" "$dir/again.err" ||
	die "a refused migrate printed: $(cat "$dir/again.err")"

for p in "${pids[@]}"; do kill -TERM "$p"; done
for p in "${pids[@]}"; do wait "$p" || die "a process exited $? after SIGTERM"; done
pids=()
for r in coord a b; do
	grep -q "drained" "$dir/$r.log" || die "$r did not print drained"
done
echo "fabric-cli-smoke: replicate, migrate and a refused migrate over 3 processes; all drained"
