#!/bin/sh
# Diffs the five read routes of two enviromic-archive binaries over one
# fixed corpus: status line, headers (minus Date) and body, byte for
# byte. The corpus is three fixed-seed enviromic-retrieve runs (grid,
# city, and a dispersal run with parity files) built with this
# checkout's retrieve command.
#
# Usage: scripts/read_diff.sh OLD_ARCHIVE_BIN NEW_ARCHIVE_BIN
# Exits non-zero if any route differs.
set -e
[ $# -eq 2 ] || { echo "usage: $0 OLD_ARCHIVE_BIN NEW_ARCHIVE_BIN"; exit 2; }
old=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
new=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
cd "$(dirname "$0")/.."

tmp="${TMPDIR:-/tmp}/enviromic-read-diff.$$"
mkdir -p "$tmp"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2> /dev/null || true; done
    for p in $pids; do wait "$p" 2> /dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/retrieve" ./cmd/enviromic-retrieve
"$tmp/retrieve" -duration 2m -seed 7 -archive "$tmp/corpus" > /dev/null
"$tmp/retrieve" -scenario city -duration 30s -seed 7 -archive "$tmp/corpus" > /dev/null
"$tmp/retrieve" -duration 1m -seed 3 -storage-mode disperse -archive "$tmp/corpus" > /dev/null
cp -r "$tmp/corpus" "$tmp/a"
cp -r "$tmp/corpus" "$tmp/b"

port=$((20000 + $$ % 30000))
ua="127.0.0.1:$port"; ub="127.0.0.1:$((port + 1))"
"$old" -dir "$tmp/a" -http "$ua" > "$tmp/a.log" 2>&1 &
pids="$pids $!"
"$new" -dir "$tmp/b" -http "$ub" > "$tmp/b.log" 2>&1 &
pids="$pids $!"
for u in "$ua" "$ub"; do
    for _ in $(seq 1 100); do
        curl -fsS "$u/stats" > /dev/null 2>&1 && break
        sleep 0.1
    done
done

ids=$(curl -fsS "$ua/files" | sed -n 's/.*"id": \([0-9]*\).*/\1/p')
paths="/files /query /query?from=10s&to=60s /query?origins=1,2,3 /query?from=bad
/query?origins=x /files/999999 /files/abc /files/abc/gaps /files/abc/wav
/files/1/wav?rate=0 /files/1/gaps?tolerance=-1s"
for id in $ids; do
    paths="$paths /files/$id /files/$id/gaps /files/$id/gaps?tolerance=250ms /files/$id/wav /files/$id/wav?rate=4000"
done
n=0; bad=0
for p in $paths; do
    curl -s -D "$tmp/ha" -o "$tmp/ba" "$ua$p"
    curl -s -D "$tmp/hb" -o "$tmp/bb" "$ub$p"
    if ! cmp -s "$tmp/ba" "$tmp/bb" ||
        [ "$(grep -v '^Date:' "$tmp/ha")" != "$(grep -v '^Date:' "$tmp/hb")" ]; then
        echo "DIFF $p"; bad=$((bad + 1))
    fi
    n=$((n + 1))
done
echo "read diff: $n requests over $(echo $ids | wc -w) files, $bad differ"
[ "$bad" -eq 0 ]
