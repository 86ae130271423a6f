#!/bin/sh
# Ratchet against re-introducing process-global service access.
#
# The engine-context refactor moved every compile/simulate/serve
# path off the ambient singletons: code receives its metrics
# registry, tracer, thread pool, and solver configuration through an
# explicit EngineContext. This check keeps it that way — it fails on
# any NEW use of
#
#   Registry::global()     (metrics)
#   Tracer::instance()     (tracing)
#   std::getenv            (environment reads)
#
# in product code (src/) outside the sanctioned zones:
#
#   src/util/                the process-singleton implementations
#                            themselves (thread pool, env helpers)
#   src/metrics/metrics.cc   Registry::global()'s own definition
#   src/trace/trace.cc       Tracer::instance()'s own definition
#   src/engine/context.cc    the default-context escape hatch
#
# tools/ (the CLI entry points) is outside the scan: that is the one
# layer allowed to resolve the environment and process singletons —
# exactly once, into the root context. tests/ and bench/ are outside
# this scan too: the suites that exercise the singletons (test_trace,
# test_metrics) must keep reaching them directly. Run from the
# repository root; exits non-zero with one line per violation.
#
# It also fails on any mention — code or comment — under src/,
# tools/, bench/ or tests/ of the retired second front end and
# process-wide solver counters: the `serve` command, its request
# script parser and header, and the lp solver-stats block with its
# reset and counter accessors. The daemon protocol is the one request
# grammar; the solver.* counters in each context's metrics registry
# are the only solver totals.
#
# Durable files have one path: src/util/durable_file.cc. Any other
# raw fsync, rename or creating open under src/ would be a second,
# untested way to make a file durable (DESIGN.md §12).
#
# Rerouting and re-solving have one path: src/core/incremental.cc.
# Any other call of the greedy router (its declaration and
# definition in src/core/path_assignment.* aside) or of the dirty-
# subset re-solve under src/ would be a second copy of the
# reroute -> re-solve -> splice -> verify sequence that online
# admission and fault repair share (DESIGN.md §10). The retired
# repair and re-solve option structs, the retired fault-repair fast
# path and the service's own stretch probe may not be mentioned
# under src/ at all.
#
# Daemon ops have one codec, src/server/protocol.cc (DESIGN.md §12):
# the retired per-field WAL and snapshot keys and row structs may not
# come back under src/, nor the v1 snapshot magic under src/server/.
#
# Likewise for the retired second benchmark harness: the four bench/
# perf tools that duplicated perfbench/ and the google-benchmark
# dependency (its header, and its find_package in any
# CMakeLists.txt). `perfbench/run.py` is the one way to measure
# performance. (All names are spelled in split literals below so
# this file does not match itself.)

set -u

status=0
out=$(mktemp)
trap 'rm -f "$out"' EXIT

scan() {
    pattern="$1"
    label="$2"
    # Comment lines (leading // or *) may cite the globals when
    # documenting the refactor; only code lines count.
    grep -rn "$pattern" src 2>/dev/null |
        grep -v '^src/util/' |
        grep -v '^src/metrics/metrics\.cc:' |
        grep -v '^src/trace/trace\.cc:' |
        grep -v '^src/engine/context\.cc:' |
        grep -v -E '^[^:]+:[0-9]+:[[:space:]]*(//|\*)' >"$out" || true
    if [ -s "$out" ]; then
        echo "check_globals: new $label use outside sanctioned zones:"
        sed 's/^/  /' "$out"
        status=1
    fi
}

scan 'Registry::global()' 'Registry::global()'
scan 'Tracer::instance()' 'Tracer::instance()'
scan 'std::getenv' 'std::getenv'

retired="solver""Counters|solver""Stats|Solver""Stats"
retired="$retired|Solver""CounterBlock|cmd""Serve"
retired="$retired|parseRequest""Script|online/script""[.]hh"
grep -rn -E "$retired" src tools bench tests >"$out" 2>/dev/null || true
if [ -s "$out" ]; then
    echo "check_globals: retired serve front end or process-wide" \
         "solver counters (use the daemon protocol and solver.*" \
         "registry counters):"
    sed 's/^/  /' "$out"
    status=1
fi

benches="emit_bench""_json|micro""_perf|server""_throughput"
benches="$benches|solver""_bench|benchmark/bench""mark[.]h"
benches="$benches|find_package[(]bench""mark"
{
    grep -rn -E --exclude=CMakeLists.txt "$benches" src tools bench tests
    find . -name CMakeLists.txt -not -path './build*' \
        -not -path './.bench_build/*' -exec grep -Hn -E "$benches" {} +
} >"$out" || true
if [ -s "$out" ]; then
    echo "check_globals: retired bench/ perf tools or google-benchmark" \
         "dependency (measure with perfbench/run.py):"
    sed 's/^/  /' "$out"
    status=1
fi

durable="::fs""ync[(]|::re""name[(]|std::filesystem::re""name[(]"
durable="$durable|O_CR""EAT"
grep -rn -E "$durable" src 2>/dev/null |
    grep -v '^src/util/durable_file\.cc:' |
    grep -v -E '^[^:]+:[0-9]+:[[:space:]]*(//|\*)' >"$out" || true
if [ -s "$out" ]; then
    echo "check_globals: raw fsync, rename or creating open outside" \
         "src/util/durable_file.cc (use the durable:: helpers):"
    sed 's/^/  /' "$out"
    status=1
fi

resolve="greedyRoute""Messages[(]|resolveDirty""Subsets[(]"
grep -rn -E "$resolve" src 2>/dev/null |
    grep -v '^src/core/incremental\.cc:' |
    grep -v -E '^src/core/path_assignment\.(hh|cc):[0-9]+:greedyRoute''Messages[(]' |
    grep -v -E '^[^:]+:[0-9]+:[[:space:]]*(//|/?\*)' >"$out" || true
if [ -s "$out" ]; then
    echo "check_globals: reroute or dirty-subset re-solve outside" \
         "src/core/incremental.cc (call resolveIncrementally):"
    sed 's/^/  /' "$out"
    status=1
fi

knobs="Repair""Options|IncrementalSolve""Options"
knobs="$knobs|tryIncremental""Repair|probeStretched""Periods"
grep -rn -E "$knobs" src >"$out" 2>/dev/null || true
if [ -s "$out" ]; then
    echo "check_globals: retired repair or re-solve knobs, or a" \
         "second incremental or stretch path:"
    sed 's/^/  /' "$out"
    status=1
fi

codec="Snapshot""Task|Snapshot""Message|at[(]\"adm""its\"[)]"
codec="$codec|\"tfg""src|\"open""period|\"cache""sess"
{
    grep -rn -E "$codec" src
    grep -rn "kMagic""V1" src/server
} >"$out" 2>/dev/null || true
if [ -s "$out" ]; then
    echo "check_globals: a second codec for daemon ops (see" \
         "src/server/protocol.hh):"
    sed 's/^/  /' "$out"
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo "check_globals: FAILED — see the lines above (the" \
         "EngineContext rule is DESIGN.md §14)." >&2
else
    echo "check_globals: ok"
fi
exit "$status"
