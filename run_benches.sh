#!/bin/sh
# Run every bench binary, one output file per bench under results/.
# Resumable: benches with a results file are skipped, so the script can
# be re-invoked until it prints ALL_BENCHES_DONE.
#
# A bench's output is written to a temp file and only moved into
# results/ when the bench exits 0, so a crashed or interrupted bench is
# retried on the next invocation instead of leaving a partial file that
# passes the resume check. Stderr (progress + crash reports) is kept in
# results/log/<bench>.stderr for postmortems.
#
# The bench binaries fan (workload, spec) cells out over a worker pool;
# BERTI_JOBS caps the pool (default: all hardware threads).
#
# Sampled mode: set BERTI_SAMPLE_WINDOWS=N (plus optionally
# BERTI_SAMPLE_WARMUP / BERTI_SAMPLE_MEASURE / BERTI_SAMPLE_STRIDE) and
# every bench measures N sampled windows instead of the full region of
# interest — regenerating the figure matrix at a fraction of the
# simulated instructions. Sampled outputs land under results-sampled/
# so they never mix with (or satisfy the resume check of) full runs.
BERTI_JOBS="${BERTI_JOBS:-$(nproc 2>/dev/null || echo 1)}"
export BERTI_JOBS

results="results"
if [ -n "${BERTI_SAMPLE_WINDOWS:-}" ] && [ "${BERTI_SAMPLE_WINDOWS}" != "0" ]; then
    results="results-sampled"
    echo "=== sampled mode: BERTI_SAMPLE_WINDOWS=$BERTI_SAMPLE_WINDOWS, writing to $results/"
fi

mkdir -p "$results" "$results/log"
# Sweep staging files left by a previous invocation that was killed
# mid-write (both the script's own .txt.tmp files and the atomic-write
# .json.tmp files under $results/stats/). Completed outputs never carry
# the .tmp suffix, so this only ever removes torn partials.
find "$results" -name '*.tmp' -type f -exec rm -f {} + 2>/dev/null
failed=""
for b in build/bench/*; do
    n=$(basename "$b")
    { [ -f "$b" ] && [ -x "$b" ]; } || continue
    [ "$n" = "micro_prefetchers" ] && continue
    [ "$n" = "perf_simspeed" ] && continue
    [ -s "$results/$n.txt" ] && continue
    echo "=== $n start $(date +%T) (BERTI_JOBS=$BERTI_JOBS)"
    tmp="$results/.$n.txt.tmp"
    # Machine-diffable JSON stats sidecars, one per (spec, workload)
    # cell, next to the human-readable table output. fig24_mem_backends
    # nests one subdirectory per memory backend in here, so its
    # identically-named spec x workload cells never collide.
    BERTI_STATS_DIR="$results/stats/$n"
    export BERTI_STATS_DIR
    if "./build/bench/$n" > "$tmp" 2> "$results/log/$n.stderr"; then
        mv "$tmp" "$results/$n.txt"
        echo "=== $n done $(date +%T)"
    else
        rc=$?
        rm -f "$tmp"
        failed="$failed $n"
        echo "=== $n FAILED rc=$rc $(date +%T) (see $results/log/$n.stderr)"
    fi
done
# Simulator-speed harness: human table to $results/perf_simspeed.txt plus
# the JSON artifact, collected via temp-file+mv so an interrupted run
# never leaves a partial BENCH_simspeed.json behind.
if [ ! -s "$results/BENCH_simspeed.json" ]; then
    tmp="$results/.perf_simspeed.txt.tmp"
    tmpjson="$results/.BENCH_simspeed.json.tmp"
    if ./build/bench/perf_simspeed "--out=$tmpjson" > "$tmp" \
        2> "$results/log/perf_simspeed.stderr"; then
        mv "$tmpjson" "$results/BENCH_simspeed.json"
        mv "$tmp" "$results/perf_simspeed.txt"
    else
        rm -f "$tmp" "$tmpjson"
        failed="$failed perf_simspeed"
        echo "=== perf_simspeed FAILED (see $results/log/perf_simspeed.stderr)"
    fi
fi
if [ ! -s "$results/micro_prefetchers.txt" ]; then
    tmp="$results/.micro_prefetchers.txt.tmp"
    if ./build/bench/micro_prefetchers --benchmark_min_time=0.1 \
        > "$tmp" 2> "$results/log/micro_prefetchers.stderr"; then
        mv "$tmp" "$results/micro_prefetchers.txt"
    else
        rm -f "$tmp"
        failed="$failed micro_prefetchers"
        echo "=== micro_prefetchers FAILED (see $results/log/micro_prefetchers.stderr)"
    fi
fi
# Real-trace sweep: point BERTI_TRACE_DIR at a directory of ChampSim
# traces (*.champsim, *.champsim.xz, *.champsim.gz) and every trace is
# swept through the prefetcher specs as a file: workload. Per-trace JSON
# sidecars land under $results/stats/traces/, the human table in
# $results/traces.txt, and the crash-safe result store under
# $results/trace_store (so a killed sweep resumes; content-hashed keys
# mean a replaced trace file recomputes instead of reusing stale cells).
if [ -n "${BERTI_TRACE_DIR:-}" ]; then
    traces=""
    for t in "$BERTI_TRACE_DIR"/*.champsim \
             "$BERTI_TRACE_DIR"/*.champsim.xz \
             "$BERTI_TRACE_DIR"/*.champsim.gz; do
        [ -f "$t" ] || continue
        if [ -n "$traces" ]; then
            traces="$traces,file:$t"
        else
            traces="file:$t"
        fi
    done
    if [ -z "$traces" ]; then
        echo "=== BERTI_TRACE_DIR=$BERTI_TRACE_DIR holds no *.champsim traces, skipping"
    elif [ -s "$results/traces.txt" ]; then
        : # resumed invocation: trace sweep already complete
    else
        echo "=== traces start $(date +%T) (BERTI_TRACE_DIR=$BERTI_TRACE_DIR)"
        tmp="$results/.traces.txt.tmp"
        if ./build/tools/sweep_tool \
            --workloads="$traces" \
            --specs="${BERTI_TRACE_SPECS:-none,ip-stride,berti}" \
            --store="$results/trace_store" \
            --out="$results/stats/traces" \
            --jobs="$BERTI_JOBS" > "$tmp" \
            2> "$results/log/traces.stderr"; then
            mv "$tmp" "$results/traces.txt"
            echo "=== traces done $(date +%T)"
        else
            rc=$?
            rm -f "$tmp"
            failed="$failed traces"
            echo "=== traces FAILED rc=$rc $(date +%T) (see $results/log/traces.stderr)"
        fi
    fi
fi
if [ -n "$failed" ]; then
    echo "FAILED_BENCHES:$failed"
    exit 1
fi
echo ALL_BENCHES_DONE
