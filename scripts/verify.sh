#!/bin/sh
# verify.sh — the tier-1 gate: format check, vet, build, the full test
# suite, then the suite again under the race detector (the pipeline is
# parallel by default, so a data race is a correctness bug, not a flake),
# the arena users again with the arenadebug poison guards on, every root
# benchmark once, and finally the released-binary selftest with tracing enabled (the golden
# artifacts must hold with observability on, and the Chrome trace export
# must produce a loadable event stream).
#
# The test suite includes the difftest differential matrix, which runs the
# tiered cache with the in-memory L1 tier enabled (the default): every
# {workers} × {no cache, cold, L1-warm, disk-warm, one-file-invalidated
# from disk and from L1} configuration must render byte-identically. The binary gate below
# re-checks the cold/warm disk path end to end across two processes, and the
# refcheckd gate proves the analysis server serves CLI-identical bytes over
# HTTP and drains cleanly on SIGTERM.
# Run before every commit; CI runs the same commands.
set -e
cd "$(dirname "$0")/.."

unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# One pipeline, one cache read path, one payload format, one manager fault
# rule: names retired when Analyze became the exported rounds, the front end
# lost its byte-API cache read, each traced/untraced function pair became
# one function, cpg's payloads moved onto bincodec.Tabled, and the manager
# gave each worker one shard must not come back, nor may a declaration of
# the exported functions deleted because only tests called them. The
# manager keeps its own pipe readFrame, so the frame grep covers
# internal/cpg only.
if grep -rnw --include='*.go' \
    -e l1hold -e MemoryEnabled \
    -e assembleRound -e checkRound -e finishRun \
    -e ReplayAllSpan -e RunTrace -e ComputeGoldenTrace -e SelftestTrace \
    -e EvaluateNewBugsWorkers \
    -e decTables -e feMagic -e recMagic -e saMagic \
    -e chunksPerProc -e newQueue -e shard.requeues . ||
    grep -rnE --include='*.go' '^func (\([^)]*\) )?(Reachable|ReachesWithout|Intern|OutermostMacro|IsValid|NewCondStmt|NewChecker|Unregister|DeferralTable|EventsString|Computes|Closed|PairFor|Has)\(' . ||
    grep -rnF --include='*.go' 'func (c *Cache) Get(' . ||
    grep -rnE --include='*.go' '\b(frame|readFrame)\(' internal/cpg; then
    echo "verify: a retired name is back (see the list above)" >&2
    exit 1
fi

go vet ./...
# bench/ is its own module, so the root ./... never compiles it; vet it here
# so an API change that breaks refbench fails now, not in the benchmark run.
go -C bench vet ./...
go build ./...
go test ./...
go test -race ./...
# The arena's reuse-after-release guards exist only under -tags arenadebug:
# run the arena and every package that allocates from it with them on.
go test -tags arenadebug ./internal/arena ./internal/cpp ./internal/cparse ./internal/cfg ./internal/cpg
# Every root benchmark (paper figures, tables, ablations and the speed rows
# refbench has no twin for) runs once, so a broken benchmark fails here.
go test -run '^$' -bench . -benchtime 1x .

# End-to-end observability gate: the built binary must reproduce the blessed
# golden artifacts byte-for-byte while a full trace is being recorded, and
# the exported trace must be non-trivial Chrome trace-event JSON.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/refcheck" ./cmd/refcheck
"$tmp/refcheck" -selftest -trace-out "$tmp/selftest-trace.json" > /dev/null
grep -q '"ph":"X"' "$tmp/selftest-trace.json" || {
    echo "verify: selftest trace has no complete events" >&2
    exit 1
}
# One pipeline: the run must pass through the phase API's stages, so a
# second pipeline with phases of its own cannot come back silently.
for phase in local exchange assemble check; do
    grep -q "\"name\":\"phase:$phase\"" "$tmp/selftest-trace.json" || {
        echo "verify: selftest trace has no phase:$phase span" >&2
        exit 1
    }
done

# Tiered-cache binary gate: an uncached demo run, a cold cached run, and a
# warm re-run in a fresh process (served from the batched disk packs into an
# empty L1) must produce byte-identical reports.
"$tmp/refcheck" -demo > "$tmp/uncached.txt"
"$tmp/refcheck" -demo -cache "$tmp/cache" > "$tmp/cold.txt"
"$tmp/refcheck" -demo -cache "$tmp/cache" > "$tmp/warm.txt"
cmp -s "$tmp/uncached.txt" "$tmp/cold.txt" || {
    echo "verify: cold cached demo run differs from uncached run" >&2
    exit 1
}
cmp -s "$tmp/uncached.txt" "$tmp/warm.txt" || {
    echo "verify: warm cached demo run differs from uncached run" >&2
    exit 1
}

# refcheckd serving gate: boot the daemon on a random port, serve one demo
# analysis over HTTP, require the served bytes to equal the CLI's stdout,
# then deliver SIGTERM and require a clean exit-0 drain (in-flight work
# finished, disk tier flushed).
go build -o "$tmp/refcheckd" ./cmd/refcheckd
"$tmp/refcheckd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    -cache "$tmp/dcache" 2> "$tmp/refcheckd.log" &
DPID=$!
i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "verify: refcheckd did not publish an address" >&2
        cat "$tmp/refcheckd.log" >&2
        kill "$DPID" 2> /dev/null || true
        exit 1
    fi
    sleep 0.1
done
ADDR="$(cat "$tmp/addr")"
"$tmp/refcheckd" -post "http://$ADDR/v1/analyze" -demo \
    > "$tmp/served.txt" 2> /dev/null
cmp -s "$tmp/uncached.txt" "$tmp/served.txt" || {
    echo "verify: served demo run differs from refcheck CLI output" >&2
    kill "$DPID" 2> /dev/null || true
    exit 1
}
# Explicit sources and JSON over the wire: a generated scale-1 tree (seed
# 2, so it is not the demo corpus the daemon just cached) posted twice —
# the first run computes, the second is an L1 unit hit — must come back as
# exactly the bytes refcheck -json prints for it. The client's json.Marshal
# body escapes every "->", '<' and '&' in the sources, so this crosses the
# request reader's escape path, and the report appender's output crosses
# the response writer.
go build -o "$tmp/refgen" ./cmd/refgen
"$tmp/refgen" -out "$tmp/ptree" -scale 1 -seed 2 > /dev/null
"$tmp/refcheck" -json "$tmp/ptree" > "$tmp/ptree-ref.json"
for run in compute hit; do
    "$tmp/refcheckd" -post "http://$ADDR/v1/analyze" -json "$tmp/ptree" \
        > "$tmp/ptree-$run.json" 2> /dev/null
    cmp -s "$tmp/ptree-ref.json" "$tmp/ptree-$run.json" || {
        echo "verify: served -json run ($run) of a scale-1 tree differs from refcheck -json" >&2
        kill "$DPID" 2> /dev/null || true
        exit 1
    }
done
"$tmp/refcheckd" -get "http://$ADDR/stats" | grep -q '"cache.unit.hit":1[,}]' || {
    echo "verify: the second post of the scale-1 tree was not the daemon's one unit hit" >&2
    kill "$DPID" 2> /dev/null || true
    exit 1
}
kill -TERM "$DPID"
drain_status=0
wait "$DPID" || drain_status=$?
if [ "$drain_status" -ne 0 ]; then
    echo "verify: refcheckd SIGTERM drain exited $drain_status" >&2
    cat "$tmp/refcheckd.log" >&2
    exit 1
fi

# Multi-process manager gate: refcheck-manager must render the demo corpus
# byte-identically to the single-process CLI at several shard counts, and
# again with fault injection crashing one worker on its round-1 shard (the
# manager runs that shard inline).
go build -o "$tmp/refcheck-manager" ./cmd/refcheck-manager
for n in 1 3; do
    "$tmp/refcheck-manager" -shards "$n" -demo > "$tmp/mgr-$n.txt"
    cmp -s "$tmp/uncached.txt" "$tmp/mgr-$n.txt" || {
        echo "verify: refcheck-manager -shards $n differs from refcheck -demo" >&2
        exit 1
    }
done
"$tmp/refcheck-manager" -shards 3 -kill-worker-after 1 -demo > "$tmp/mgr-kill.txt"
cmp -s "$tmp/uncached.txt" "$tmp/mgr-kill.txt" || {
    echo "verify: refcheck-manager with a crashed worker differs from refcheck -demo" >&2
    exit 1
}
# A death between the rounds: a worker's 2nd work frame is the round-2
# request. The first worker must die there, after delivering its round-1
# records, and the manager must redo its one shard inline with identical
# bytes.
"$tmp/refcheck-manager" -shards 2 -kill-worker-after 2 -demo -v \
    > "$tmp/mgr-kill2.txt" 2> "$tmp/mgr-kill2.log"
cmp -s "$tmp/uncached.txt" "$tmp/mgr-kill2.txt" || {
    echo "verify: refcheck-manager with a worker dead between rounds differs from refcheck -demo" >&2
    exit 1
}
grep -q 'workers: 1 deaths, 1 shards inline' "$tmp/mgr-kill2.log" || {
    echo "verify: -kill-worker-after 2 did not kill a worker between the rounds" >&2
    cat "$tmp/mgr-kill2.log" >&2
    exit 1
}
# No token crosses the wire and the manager never reparses: the manager
# package must not reach the shard-artifact codec or its reparse.
if grep -En 'EncodeShardArtifact|DecodeShardArtifact|Hydrate' internal/manager/*.go; then
    echo "verify: internal/manager uses the token-shipping artifact path" >&2
    exit 1
fi

# Manager cache gate: with -cache, the workers share the tiered cache's
# per-file front-end, facts and report entries; a second run over the same
# corpus must stay byte-identical to the uncached reference.
"$tmp/refcheck-manager" -shards 3 -cache "$tmp/mcache" -demo > "$tmp/mgr-cold.txt"
"$tmp/refcheck-manager" -shards 3 -cache "$tmp/mcache" -demo > "$tmp/mgr-warm.txt"
for f in mgr-cold mgr-warm; do
    cmp -s "$tmp/uncached.txt" "$tmp/$f.txt" || {
        echo "verify: refcheck-manager -cache ($f) differs from refcheck -demo" >&2
        exit 1
    }
done

# Generated-tree manager gate: a refgen -scale 2 tree through two workers
# must render exactly what refcheck -json renders for the same tree.
"$tmp/refgen" -out "$tmp/stree" -scale 2 > /dev/null
"$tmp/refcheck" -json "$tmp/stree" > "$tmp/stree-ref.json"
"$tmp/refcheck-manager" -shards 2 -json "$tmp/stree" > "$tmp/stree-mgr.json"
cmp -s "$tmp/stree-ref.json" "$tmp/stree-mgr.json" || {
    echo "verify: refcheck-manager -shards 2 on a scale-2 tree differs from refcheck -json" >&2
    exit 1
}
# The same tree through a cached manager, cold and then warm: the workers
# write and then serve its per-file front-end, facts and report entries, so
# every cached payload format crosses a generated tree, not only the demo.
for run in cold warm; do
    "$tmp/refcheck-manager" -shards 2 -cache "$tmp/scache" -json "$tmp/stree" > "$tmp/stree-mgr-$run.json"
    cmp -s "$tmp/stree-ref.json" "$tmp/stree-mgr-$run.json" || {
        echo "verify: refcheck-manager -shards 2 -cache ($run) on a scale-2 tree differs from refcheck -json" >&2
        exit 1
    }
done

# Watch-mode gate: refgen a tree, take a cold reference run, then start
# `refcheck -watch` with a warm cache and a 2-run budget, edit one file
# between runs (EOF comment append — shifts no report lines), and require
# the incremental re-run's report to be byte-identical to a cold run over
# the edited tree.
"$tmp/refgen" -out "$tmp/wtree" > /dev/null
"$tmp/refcheck" "$tmp/wtree" > "$tmp/watch-ref.txt"
"$tmp/refcheck" -watch -watch-interval 100ms -watch-runs 2 \
    -watch-out "$tmp/watch-out.txt" -cache "$tmp/wcache" \
    "$tmp/wtree" 2> "$tmp/watch.log" &
WPID=$!
i=0
while ! cmp -s "$tmp/watch-ref.txt" "$tmp/watch-out.txt" 2> /dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "verify: watch mode never produced the initial report" >&2
        cat "$tmp/watch.log" >&2
        kill "$WPID" 2> /dev/null || true
        exit 1
    fi
    sleep 0.1
done
edit_file="$(find "$tmp/wtree" -name '*.c' | sort | head -1)"
printf '/* verify watch edit */\n' >> "$edit_file"
watch_status=0
wait "$WPID" || watch_status=$?
if [ "$watch_status" -ne 0 ]; then
    echo "verify: refcheck -watch exited $watch_status" >&2
    cat "$tmp/watch.log" >&2
    exit 1
fi
"$tmp/refcheck" "$tmp/wtree" > "$tmp/watch-cold.txt"
cmp -s "$tmp/watch-cold.txt" "$tmp/watch-out.txt" || {
    echo "verify: incremental watch report differs from cold run over the edited tree" >&2
    cat "$tmp/watch.log" >&2
    exit 1
}
# Every unedited file is a front-end hit whose parse is reused from the
# in-memory memo; only the edited file is preprocessed and parsed again.
run2="$(grep 'watch: run 2 ' "$tmp/watch.log")"
nfiles="$(printf '%s\n' "$run2" | sed -E 's/.*: ([0-9]+) files, .*/\1/')"
want_fe="front end: $((nfiles - 1)) hits ($((nfiles - 1)) parses reused), 1 misses;"
case "$run2" in
*"$want_fe"*) ;;
*)
    echo "verify: watch re-run should show '$want_fe'" >&2
    cat "$tmp/watch.log" >&2
    exit 1
    ;;
esac
# The edited file's facts entry is the only one re-derived. A facts entry
# is consulted only where its facts are read: the edited file's, and those
# of the files that define a P6 input, which hit.
if ! grep 'watch: run 2 ' "$tmp/watch.log" | grep -Eq 'facts: [1-9][0-9]* hits, 1 misses\)'; then
    echo "verify: watch re-run did not re-derive exactly the edited file's facts" >&2
    cat "$tmp/watch.log" >&2
    exit 1
fi
# ... and its report entry the only one re-checked: run 1 missed one report
# entry per file that defines functions, and run 2 hits all of them but the
# edited file's.
run1="$(grep 'watch: run 1 ' "$tmp/watch.log")"
rmiss1="$(printf '%s\n' "$run1" | sed -E 's/.*reports: [0-9]+ hits, ([0-9]+) misses.*/\1/')"
want_rep="reports: $((rmiss1 - 1)) hits, 1 misses;"
case "$run2" in
*"$want_rep"*) ;;
*)
    echo "verify: watch re-run should show '$want_rep'" >&2
    cat "$tmp/watch.log" >&2
    exit 1
    ;;
esac
# A comment edit leaves every file record as it was, so the re-run reuses
# run 1's exchange instead of replaying every observation.
case "$run2" in
*", exchange: reused") ;;
*)
    echo "verify: watch re-run should end with ', exchange: reused'" >&2
    cat "$tmp/watch.log" >&2
    exit 1
    ;;
esac
