#!/usr/bin/env bash
# End-to-end smoke test of the alidd daemon's operational surface: build the
# binaries, start alidd on a synthetic dataset with pprof enabled, then
# exercise /healthz, /v1/assign, /v1/stats, /metrics (checking the metric
# families every dashboard depends on) and the pprof listener. Run by CI
# after the unit suites; exits non-zero on the first failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${ADDR:-127.0.0.1:18080}"
PPROF_ADDR="${PPROF_ADDR:-127.0.0.1:18081}"
tmp="$(mktemp -d)"
# The trap waits for the daemon's final save before removing its directory.
trap 'if [ -n "${alidd_pid:-}" ]; then kill "$alidd_pid" 2>/dev/null || true; wait "$alidd_pid" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT

echo "smoke: building..." >&2
go build -o "$tmp/datagen" ./cmd/datagen
go build -o "$tmp/alidd" ./cmd/alidd

"$tmp/datagen" -kind mixture -n 2000 -out "$tmp/pts.csv"
"$tmp/alidd" -in "$tmp/pts.csv" -labeled -addr "$ADDR" -pprof-addr "$PPROF_ADDR" \
	-snapshot "$tmp/alid.snap" -log-json 2> "$tmp/alidd.log" &
alidd_pid=$!

# Wait for a daemon to come up (detection included).
wait_up() { # pid, logfile
	for i in $(seq 1 100); do
		if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
			break
		fi
		if ! kill -0 "$1" 2>/dev/null; then
			echo "smoke: alidd exited during startup; log:" >&2
			cat "$2" >&2
			exit 1
		fi
		sleep 0.2
	done
	curl -sf "http://$ADDR/healthz" >/dev/null || { echo "smoke: healthz never came up" >&2; exit 1; }
}
wait_up $alidd_pid "$tmp/alidd.log"
echo "smoke: alidd is up on $ADDR" >&2

fail() {
	echo "smoke: FAIL: $1" >&2
	exit 1
}

# Assign (single and batch) must answer; build a query matching the
# dataset's dimensionality (the first CSV row, labels dropped).
point=$(head -1 "$tmp/pts.csv" | awk -F, '{s="[";for(i=1;i<NF;i++){s=s (i>1?",":"") $i}print s "]"}')
assign=$(curl -sf "http://$ADDR/v1/assign" -d "{\"point\":$point}") || fail "single assign request"
grep -q '"cluster"' <<<"$assign" || fail "assign response: $assign"
batch=$(curl -sf "http://$ADDR/v1/assign" -d "{\"points\":[$point,$point]}") || fail "batch assign request"
grep -q '"results"' <<<"$batch" || fail "batch assign response: $batch"

# Stats carries the histogram-derived quantiles.
stats=$(curl -sf "http://$ADDR/v1/stats")
grep -q '"assign_p50_seconds"' <<<"$stats" || fail "stats lacks assign_p50_seconds: $stats"

# /metrics serves the exposition format with every serving-pipeline family.
metrics=$(curl -sf "http://$ADDR/metrics")
for family in \
	alid_assign_duration_seconds \
	alid_assign_cluster_scans_total \
	alid_commit_duration_seconds \
	alid_ingest_queue_points \
	alid_points \
	alid_clusters \
	alid_http_request_duration_seconds; do
	grep -q "^# HELP $family " <<<"$metrics" || fail "/metrics lacks family $family"
done
grep -q '^alid_assign_duration_seconds_bucket{mode="single",le="+Inf"} 1$' <<<"$metrics" ||
	fail "/metrics assign histogram did not count the single assign"

# pprof answers on its own listener.
curl -sf "http://$PPROF_ADDR/debug/pprof/cmdline" >/dev/null || fail "pprof cmdline"
grep -q goroutine <<<"$(curl -sf "http://$PPROF_ADDR/debug/pprof/goroutine?debug=1")" || fail "pprof goroutine"

# Structured logs: the JSON handler must have produced a serving line.
grep -q '"msg":"serving"' "$tmp/alidd.log" || fail "no structured serving log line"

# Graceful shutdown writes the final snapshot.
kill -TERM $alidd_pid
wait $alidd_pid 2>/dev/null || true
[ -s "$tmp/alid.snap" ] || fail "final snapshot missing"
grep -q '"msg":"snapshot saved"' "$tmp/alidd.log" || fail "no snapshot log line"

# ---------------------------------------------------------------------------
# Sharded phase: boot the same dataset with -shards 4, exercise ingest,
# assign, stats and the shard-labeled metrics, shut down (manifest + shard
# files), verify a mismatched -shards is refused, then restart with the
# right count and confirm the state was restored.
# ---------------------------------------------------------------------------
echo "smoke: sharded phase (-shards 4)..." >&2
"$tmp/alidd" -in "$tmp/pts.csv" -labeled -shards 4 -addr "$ADDR" \
	-snapshot "$tmp/sharded.snap" -log-json 2> "$tmp/alidd4.log" &
alidd_pid=$!
wait_up $alidd_pid "$tmp/alidd4.log"
echo "smoke: sharded alidd is up on $ADDR" >&2

# Committed ingest through the router, then a served assign.
curl -sf "http://$ADDR/v1/ingest" -d "{\"points\":[$point,$point,$point,$point,$point],\"wait\":true}" >/dev/null ||
	fail "sharded ingest"
assign=$(curl -sf "http://$ADDR/v1/assign" -d "{\"point\":$point}") || fail "sharded assign request"
grep -q '"cluster"' <<<"$assign" || fail "sharded assign response: $assign"

# Stats aggregates across shards — the full dataset must be visible.
stats=$(curl -sf "http://$ADDR/v1/stats")
grep -q '"n":2005\b' <<<"$stats" || fail "sharded stats n != 2005: $stats"

# /metrics carries the router families: shard count, per-shard queue depth
# gauges for all four shards, and shard-labeled engine families.
metrics=$(curl -sf "http://$ADDR/metrics")
grep -q '^alid_shards 4$' <<<"$metrics" || fail "/metrics lacks alid_shards 4"
for sh in 0 1 2 3; do
	grep -q "^alid_ingest_queue_depth{shard=\"$sh\"} " <<<"$metrics" ||
		fail "/metrics lacks alid_ingest_queue_depth{shard=\"$sh\"}"
done
grep -q '^alid_points{state="committed",shard="0"} ' <<<"$metrics" || fail "/metrics lacks shard-labeled alid_points"
grep -q '^# HELP alid_gather_duration_seconds ' <<<"$metrics" || fail "/metrics lacks gather histogram"

# Graceful shutdown writes the manifest plus a chain and a base snapshot
# per non-empty shard.
kill -TERM $alidd_pid
wait $alidd_pid 2>/dev/null || true
[ -s "$tmp/sharded.snap" ] || fail "sharded manifest missing"
[ "$(head -c 8 "$tmp/sharded.snap")" = "ALIDMANI" ] || fail "snapshot is not a manifest"
ls "$tmp"/sharded.snap.s0.*.base >/dev/null 2>&1 || fail "shard 0 file missing"

# A mismatched -shards must be refused outright (point ids are minted by
# the saved layout; adopting them under a different count would corrupt).
if "$tmp/alidd" -in "$tmp/pts.csv" -labeled -shards 2 -addr "$ADDR" \
	-snapshot "$tmp/sharded.snap" -log-json 2> "$tmp/alidd2.log"; then
	fail "-shards 2 accepted a 4-shard manifest"
fi
grep -q 'shard' "$tmp/alidd2.log" || fail "no shard-mismatch error logged"

# Restart with the saved count: the manifest restores, state intact.
"$tmp/alidd" -in "$tmp/pts.csv" -labeled -shards 4 -addr "$ADDR" \
	-snapshot "$tmp/sharded.snap" -log-json 2> "$tmp/alidd4b.log" &
alidd_pid=$!
wait_up $alidd_pid "$tmp/alidd4b.log"
stats=$(curl -sf "http://$ADDR/v1/stats")
grep -q '"n":2005\b' <<<"$stats" || fail "restored sharded stats n != 2005: $stats"
kill -TERM $alidd_pid
wait $alidd_pid 2>/dev/null || true

# ---------------------------------------------------------------------------
# Sharded delta-chain phase: -shards 4 with periodic delta saves. A
# committed ingest grows every shard's chain, SIGTERM commits a final
# save, a restart at -shards 4 replays base + deltas on every shard, and a
# restart at -shards 2 is refused.
# ---------------------------------------------------------------------------
echo "smoke: sharded delta-chain phase (-shards 4)..." >&2
"$tmp/alidd" -in "$tmp/pts.csv" -labeled -shards 4 -addr "$ADDR" \
	-snapshot "$tmp/chain4.snap" -snapshot-delta-every 1000 -snapshot-interval 300ms \
	-log-json 2> "$tmp/alidd_c4.log" &
alidd_pid=$!
wait_up $alidd_pid "$tmp/alidd_c4.log"
sleep 1 # the first periodic save roots every shard's chain
curl -sf "http://$ADDR/v1/ingest" -d "{\"points\":[$point,$point,$point,$point,$point,$point,$point,$point],\"wait\":true}" >/dev/null ||
	fail "sharded chain ingest"
sleep 1 # later periodic saves append deltas
stats=$(curl -sf "http://$ADDR/v1/stats")
grep -q '"n":2008\b' <<<"$stats" || fail "sharded chain stats n != 2008: $stats"
if grep -q '"delta_chain_len":0\b' <<<"$stats"; then
	fail "no deltas accumulated at -shards 4: $stats"
fi
kill -TERM $alidd_pid
wait $alidd_pid 2>/dev/null || true
ls "$tmp"/chain4.snap.s3.*.delta >/dev/null 2>&1 || fail "shard 3 has no delta file"

"$tmp/alidd" -shards 4 -addr "$ADDR" -snapshot "$tmp/chain4.snap" \
	-snapshot-delta-every 1000 -log-json 2> "$tmp/alidd_c4b.log" &
alidd_pid=$!
wait_up $alidd_pid "$tmp/alidd_c4b.log"
stats=$(curl -sf "http://$ADDR/v1/stats")
grep -q '"n":2008\b' <<<"$stats" || fail "chain-restored sharded stats n != 2008: $stats"
kill -TERM $alidd_pid
wait $alidd_pid 2>/dev/null || true

if "$tmp/alidd" -shards 2 -addr "$ADDR" -snapshot "$tmp/chain4.snap" \
	-log-json 2> "$tmp/alidd_c2.log"; then
	fail "-shards 2 accepted a 4-shard delta-chain save"
fi
grep -q 'shard count mismatch' "$tmp/alidd_c2.log" || fail "no shard-mismatch error logged for the chain save"

# ---------------------------------------------------------------------------
# MinHash + delta-chain phase: boot the set backend with periodic delta
# snapshots and auto-compaction, ingest sets, evict past the compaction
# threshold (generation bumps, chain re-roots), SIGTERM mid-chain, then
# restart from base + deltas and confirm the renumbered state survived.
# ---------------------------------------------------------------------------
echo "smoke: minhash delta-chain phase..." >&2
: > "$tmp/sets.csv"
for i in $(seq 1 15); do
	echo "a,b,c,d,e,x$i" >> "$tmp/sets.csv"
	echo "p,q,r,s,t,y$i" >> "$tmp/sets.csv"
done
"$tmp/alidd" -in "$tmp/sets.csv" -backend minhash -bands 8 -rows 4 -batch 8 \
	-addr "$ADDR" -snapshot "$tmp/mh.snap" -snapshot-delta-every 1000 \
	-snapshot-interval 300ms -compact-share 0.3 -log-json 2> "$tmp/alidd_mh.log" &
alidd_pid=$!
wait_up $alidd_pid "$tmp/alidd_mh.log"
echo "smoke: minhash alidd is up on $ADDR" >&2

# Committed set ingest and a served set assign (30 initial + 2 = 32 ids).
curl -sf "http://$ADDR/v1/ingest" \
	-d '{"sets":[["a","b","c","d","e","z1"],["p","q","r","s","t","z2"]],"wait":true}' >/dev/null ||
	fail "minhash set ingest"
assign=$(curl -sf "http://$ADDR/v1/assign" -d '{"set":["a","b","c","d","e"]}') || fail "minhash set assign"
grep -q '"cluster"' <<<"$assign" || fail "minhash set assign response: $assign"

# Evict 12 of 32 ids: the evicted share (0.375) crosses -compact-share 0.3,
# so the writer renumbers into generation 1 and the chain re-roots.
curl -sf "http://$ADDR/v1/evict" -d '{"ids":[0,1,2,3,4,5,6,7,8,9,10,11]}' >/dev/null || fail "minhash evict"
sleep 2 # let the 300ms snapshot loop root the new generation and append deltas
stats=$(curl -sf "http://$ADDR/v1/stats")
grep -q '"n":20\b' <<<"$stats" || fail "minhash stats n != 20 after compaction: $stats"
grep -q '"generation":1\b' <<<"$stats" || fail "minhash stats generation != 1: $stats"
grep -q '"ever_seen_ids":32\b' <<<"$stats" || fail "minhash stats ever_seen_ids != 32: $stats"
if grep -q '"delta_chain_len":0' <<<"$stats"; then
	fail "no deltas accumulated mid-chain: $stats"
fi

# SIGTERM mid-chain: the final save is one more delta, manifest-committed.
kill -TERM $alidd_pid
wait $alidd_pid 2>/dev/null || true
[ -s "$tmp/mh.snap" ] || fail "save manifest missing"
ls "$tmp"/mh.snap.s0.*.chain >/dev/null 2>&1 || fail "chain manifest missing"
ls "$tmp"/mh.snap.s0.*.delta >/dev/null 2>&1 || fail "first chain delta missing"

# Restart from the chain: base + ordered deltas replay the renumbered state.
"$tmp/alidd" -backend minhash -bands 8 -rows 4 -batch 8 -addr "$ADDR" \
	-snapshot "$tmp/mh.snap" -snapshot-delta-every 1000 -compact-share 0.3 \
	-log-json 2> "$tmp/alidd_mh2.log" &
alidd_pid=$!
wait_up $alidd_pid "$tmp/alidd_mh2.log"
stats=$(curl -sf "http://$ADDR/v1/stats")
grep -q '"n":20\b' <<<"$stats" || fail "chain-restored stats n != 20: $stats"
grep -q '"generation":1\b' <<<"$stats" || fail "chain-restored generation != 1: $stats"
grep -q '"ever_seen_ids":32\b' <<<"$stats" || fail "chain-restored ever_seen_ids != 32 (retired ids lost across restart): $stats"
kill -TERM $alidd_pid
wait $alidd_pid 2>/dev/null || true

echo "smoke: OK" >&2
