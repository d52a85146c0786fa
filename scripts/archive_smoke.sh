#!/bin/sh
# End-to-end smoke test for the basestation archive:
#   1. run a fixed-seed retrieval experiment with -archive to flush the
#      mule holdings into a fresh archive directory,
#   2. re-run the identical command against the same archive and require
#      the second ingest to be a pure no-op (every chunk a duplicate),
#   3. list the archive with enviromic-archive -ls,
#   4. serve the archive over HTTP and exercise /files, /query,
#      /files/{id}/gaps, /files/{id}/wav (must be a non-trivial RIFF
#      payload), and /stats with curl,
#   5. POST one /ingest batch to a server on a fresh archive, stop it
#      with SIGTERM, and reopen: the graceful stop must have written every
#      shard's index snapshot, so the reopen loads all of them and
#      replays no segment tail,
#   6. tear the tail off one segment file and reopen: recovery must
#      drop the torn bytes and keep serving the surviving chunks.
# Exits non-zero on the first failure. Usage: scripts/archive_smoke.sh
set -e
cd "$(dirname "$0")/.."

tmp="${TMPDIR:-/tmp}/enviromic-archive-smoke.$$"
mkdir -p "$tmp"
server_pid=""
cleanup() {
    # The server stops gracefully on SIGTERM, writing its index
    # snapshots; let it finish before removing its directory.
    [ -n "$server_pid" ] && kill "$server_pid" 2> /dev/null && wait "$server_pid" 2> /dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# Build real binaries so the HTTP server is a direct child we can kill
# (go run would leave an orphaned grandchild behind).
go build -o "$tmp/retrieve" ./cmd/enviromic-retrieve
go build -o "$tmp/archive" ./cmd/enviromic-archive

# start_server <dir> <log> [flags...]: serve the archive in <dir> on a
# free loopback port, logging to <log>; sets server_pid and base.
start_server() {
    dir=$1 log=$2
    shift 2
    "$tmp/archive" -dir "$dir" -http 127.0.0.1:0 "$@" > "$log" 2>&1 &
    server_pid=$!
    base=""
    for _ in $(seq 1 50); do
        base=$(sed -n 's|serving on \(http://[0-9.:]*\) .*|\1|p' "$log")
        [ -n "$base" ] && return 0
        kill -0 "$server_pid" 2> /dev/null || {
            echo "FAIL: server exited early"; cat "$log"; exit 1; }
        sleep 0.1
    done
    echo "FAIL: server never announced its address"; exit 1
}

# stop_server: SIGTERM the server and require a clean exit.
stop_server() {
    kill -TERM "$server_pid"
    wait "$server_pid" || { echo "FAIL: server exited $? on SIGTERM"; exit 1; }
    server_pid=""
}

echo "== 1. fixed-seed retrieval flushed into a fresh archive"
"$tmp/retrieve" -duration 2m -seed 7 -archive "$tmp/store" > "$tmp/run1.out"
grep -q '\[4\] archive flush' "$tmp/run1.out" || {
    echo "FAIL: archive flush section missing"; exit 1; }
grep -Eq 'tour 1 \(one-hop mule\) -> .*: [1-9][0-9]* added' "$tmp/run1.out" || {
    echo "FAIL: first tour archived no chunks"; exit 1; }
grep -Eq 'archive now: [1-9][0-9]* files, [1-9][0-9]* chunks' "$tmp/run1.out" || {
    echo "FAIL: archive summary missing"; exit 1; }

echo "== 2. same seed again => every chunk deduplicated"
"$tmp/retrieve" -duration 2m -seed 7 -archive "$tmp/store" > "$tmp/run2.out"
if grep -E 'tour [0-9]+ .*: [1-9][0-9]* added' "$tmp/run2.out"; then
    echo "FAIL: re-ingest of an identical tour added chunks"; exit 1
fi
chunks1=$(sed -n 's/.*archive now: [0-9]* files, \([0-9]*\) chunks.*/\1/p' "$tmp/run1.out")
chunks2=$(sed -n 's/.*archive now: [0-9]* files, \([0-9]*\) chunks.*/\1/p' "$tmp/run2.out")
[ -n "$chunks1" ] && [ "$chunks1" = "$chunks2" ] || {
    echo "FAIL: chunk count changed across no-op re-ingest ($chunks1 vs $chunks2)"; exit 1; }

echo "== 3. offline listing"
"$tmp/archive" -dir "$tmp/store" -ls > "$tmp/ls.out"
grep -Eq 'archive .*: [1-9][0-9]* files' "$tmp/ls.out" || {
    echo "FAIL: -ls printed no summary"; exit 1; }

echo "== 4. HTTP query service"
start_server "$tmp/store" "$tmp/server.out"

curl -fsS "$base/files" > "$tmp/files.json"
grep -q '"id"' "$tmp/files.json" || {
    echo "FAIL: /files listed nothing"; exit 1; }
fid=$(sed -n 's/.*"id": \([0-9]*\).*/\1/p' "$tmp/files.json" | head -1)

curl -fsS "$base/query?from=0s&to=10m" > "$tmp/query.json"
grep -q '"id"' "$tmp/query.json" || {
    echo "FAIL: interval query over the whole run matched nothing"; exit 1; }

curl -fsS "$base/files/$fid/gaps" > "$tmp/gaps.json"
grep -q '"tolerance_s"' "$tmp/gaps.json" || {
    echo "FAIL: /gaps response malformed"; exit 1; }

curl -fsS "$base/files/$fid/wav" > "$tmp/out.wav"
wavbytes=$(wc -c < "$tmp/out.wav")
[ "$wavbytes" -gt 44 ] || {
    echo "FAIL: WAV export is header-only ($wavbytes bytes)"; exit 1; }
head -c 4 "$tmp/out.wav" | grep -q RIFF || {
    echo "FAIL: WAV export is not a RIFF file"; exit 1; }

curl -fsS "$base/stats" > "$tmp/stats.json"
grep -q '"chunks"' "$tmp/stats.json" || {
    echo "FAIL: /stats malformed"; exit 1; }

# One replication batch is a ready-made /ingest body for step 5.
curl -fsS "$base/repl/delta?max=65536" > "$tmp/batch.frames"
stop_server

echo "== 5. graceful stop writes every shard's index snapshot"
start_server "$tmp/fresh" "$tmp/fresh.out" -shards 4
curl -fsS --data-binary @"$tmp/batch.frames" "$base/ingest" > "$tmp/ingest.json"
grep -Eq '"added": [1-9]' "$tmp/ingest.json" || {
    echo "FAIL: /ingest into a fresh archive added nothing"; exit 1; }
stop_server
start_server "$tmp/fresh" "$tmp/fresh2.out"
curl -fsS "$base/metrics" > "$tmp/metrics.txt"
stop_server
loads=$(sed -n 's/^enviromic_archive_snapshot_loads_total \([0-9]*\)$/\1/p' "$tmp/metrics.txt")
replayed=$(sed -n 's/^enviromic_archive_replayed_chunks_total \([0-9]*\)$/\1/p' "$tmp/metrics.txt")
[ "$loads" = 4 ] && [ "$replayed" = 0 ] || {
    echo "FAIL: reopen after SIGTERM loaded $loads of 4 snapshots, replayed $replayed chunks"; exit 1; }

echo "== 6. torn-tail recovery"
seg=$(ls -S "$tmp/store"/shard-*.seg | head -1)
truncate -s -5 "$seg"
"$tmp/archive" -dir "$tmp/store" -ls > "$tmp/recovered.out"
grep -q 'recovered: dropped [1-9][0-9]* torn bytes' "$tmp/recovered.out" || {
    echo "FAIL: torn tail not reported as recovered"; exit 1; }
grep -Eq 'archive .*: [1-9][0-9]* files' "$tmp/recovered.out" || {
    echo "FAIL: archive unreadable after recovery"; exit 1; }

echo "archive smoke: OK"
