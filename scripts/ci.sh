#!/bin/sh
# ci.sh — the repo's full verification gate: vet, build, race-enabled tests.
# Run from anywhere; it cd's to the repo root. Exit status is non-zero on
# the first failing step.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# Doc gate: every Go identifier, CLI flag and repo path that README.md,
# DESIGN.md, EXPERIMENTS.md or the verify skill puts in backticks or in a
# fenced command line must be one the tree, or the CLI's -h, knows — a
# deletion cannot leave its name behind. Names cited *as deleted* are listed
# in the script.
echo "== doc gate (scripts/doccheck.sh)"
sh scripts/doccheck.sh

echo "== go test -race ./..."
go test -race ./...

# The live CLI once blocked forever on a request between peers that did not
# exist; its table test holds every bad command line to a refusal, and the
# short timeout turns a hang that comes back into a failure within a minute
# instead of go test's ten.
echo "== spidernode flag table + live run (-race, 60s timeout)"
go test -race -count=1 -timeout 60s ./cmd/spidernode

# Allocation gates: the object budgets of one composition and one recovery
# interval, and the paths that must allocate nothing at all (route cost,
# candidate scoring, the dedupe key, next-hop planning). The run above had
# them under the race detector only, whose runtime allocates differently;
# these are the figures DESIGN.md quotes. The two benchmarks print the same
# paths' objects, bytes and time into the log; the next two do that for the
# world build's two shortest-path passes (peer-latency matrix at the paper's
# scale, compact mesh at the scale workload's).
echo "== allocation gates (no race detector) + compose/recovery-tick + world-build benchmarks"
go test -run 'Alloc' -count=1 ./internal/...
go test -run '^$' -bench 'BCPCompose|RecoveryTick' -benchmem -benchtime 20x .
go test -run '^$' -bench 'PairDistancesPaperScale|CompactMesh30k' -benchmem -benchtime 3x .

# Message gates, beside the allocation gates: one pinned small cell holds DHT
# messages per composed session and routed hops per hop-origin lookup under
# ceilings 10 % above their measured values, so a change that silently stops
# probes from carrying first-hop hints or the source's lists, or concurrent
# lookups of one function from joining, fails here; a second one, with
# recovery on, holds rec.* messages per session-interval the same way, so a
# prober that walks every backup every interval does. -v prints what each
# measured.
echo "== discovery + maintenance message gates"
go test -run 'DiscoveryMessageBudget|MaintenanceMessageBudget' -count=1 -v ./internal/cluster

# The benchmark is a module of its own (benchmark/go.mod), so ./... above
# never descends into it: vet and test it here, so an internal/ rename that
# breaks its driver fails CI and not only the next benchmark run.
echo "== benchmark module (go vet + go test -C benchmark ./...)"
go vet -C benchmark ./...
go test -C benchmark ./...

# Fuzz smoke: `go test` above only replays the committed seed corpora. The
# three flag grammars now share one tokenizer (internal/kvspec), so five
# seconds of fresh inputs per grammar — accepted specs must be in range and
# survive Parse(String(x)) — exercise it from all three sides on every run.
echo "== fuzz smoke (3 x 5s: -faults, -domains, -scenario grammars)"
go test -run '^$' -fuzz FuzzParseFaultSpec -fuzztime 5s ./internal/simnet
go test -run '^$' -fuzz FuzzParseSpec -fuzztime 5s ./internal/federation
go test -run '^$' -fuzz FuzzStressSpec -fuzztime 5s ./internal/workload

# Coverage gate: per-package statement coverage must stay at or above the
# floor. Packages without test files are reported but do not fail the gate;
# adding their first test pulls them in automatically.
echo "== coverage gate (floor 50%)"
# internal/workload and internal/baselines feed the stress acceptance gates,
# so they must be measured — a package that loses its test files drops out of
# the floor silently, and the awk END block catches that for these two.
go test -cover ./... | awk '
    $1 != "ok" && /coverage:/ { printf "coverage: %-32s (no test files)\n", $1; next }
    $1 == "ok" && /no statements/ { printf "coverage: %-32s (no statements)\n", $2; next }
    $1 == "ok" && /coverage:/ {
        for (i = 1; i <= NF; i++) if ($i == "coverage:") pct = $(i + 1)
        sub(/%.*/, "", pct)
        printf "coverage: %-32s %5.1f%%\n", $2, pct
        if (pct + 0 < 50) { printf "coverage: %s below 50%% floor\n", $2; bad = 1 }
        measured[$2] = 1
    }
    END {
        split("repro/internal/workload repro/internal/baselines", need, " ")
        for (i in need) if (!(need[i] in measured)) {
            printf "coverage: %s has no measured coverage (tests gone?)\n", need[i]; bad = 1
        }
        exit bad
    }'

# Memory-budget gate: building the 100k-node CSR graph plus the 10k-peer
# compact overlay must fit the live-heap budget asserted by the test (64 MB;
# measured ~10 MB). A failure means a dense structure crept back into the
# frozen representation — most likely the O(peers^2) latency matrix or a
# per-node allocation in the Dijkstra hot path. The default route cache is
# bounded by bytes (32 MB), so this budget and the scale1m slice's keep meaning.
echo "== memory budget gate (100k nodes / 10k peers)"
go test -run TestMemoryBudget100k -count=1 ./internal/topology/

# Scale1m-slice gate: one CI-sized cell of the million-node capacity sweep
# (100k-IP-node/10k-peer topology with an 8-entry route cache, plus a
# 10k-peer sorted-ring discovery plane). TestScale1mSliceBudget enforces
# wall-clock ceilings, a live-heap budget, and all-lookups-resolve;
# TestScale1mSliceDeterministic requires byte-identical structural columns
# across a rerun and across worker counts. A failure means superlinear
# construction or a dense structure crept back into the scale path.
echo "== scale1m slice gate (build ceilings + heap budget + rerun determinism)"
go test -run 'TestScale1mSlice' -count=1 ./internal/experiment/

# Trace gate: the same seed must produce byte-identical JSONL traces, the
# traces must satisfy the protocol invariants (spidersim -check), and the
# gzip trace path must round-trip to the same events.
echo "== trace determinism + invariant gate"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/spidersim" ./cmd/spidersim
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 30 -duration 3m \
    -trace "$tmp/a.jsonl" > /dev/null
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 30 -duration 3m \
    -trace "$tmp/b.jsonl" > /dev/null
cmp "$tmp/a.jsonl" "$tmp/b.jsonl"
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 30 -duration 3m \
    -trace "$tmp/c.jsonl.gz" > /dev/null
gunzip -c "$tmp/c.jsonl.gz" | cmp - "$tmp/a.jsonl"
"$tmp/spidersim" -check "$tmp/a.jsonl" "$tmp/c.jsonl.gz"
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 30 -duration 3m \
    -check > /dev/null

# Span gate: the causal span analyzer must be deterministic — the same trace
# must render byte-identical reports across runs, and the committed golden
# trace must render exactly the committed golden report. A diff here means
# either the span builder changed (regenerate testdata/golden_spans.txt with
# the command below) or nondeterminism crept into tree construction.
echo "== span determinism gate"
go build -o "$tmp/spidertrace" ./cmd/spidertrace
for cmd in summary phases critical; do
    "$tmp/spidertrace" "$cmd" "$tmp/a.jsonl" > "$tmp/span1.$cmd.txt"
    "$tmp/spidertrace" "$cmd" "$tmp/a.jsonl" > "$tmp/span2.$cmd.txt"
    cmp "$tmp/span1.$cmd.txt" "$tmp/span2.$cmd.txt"
done
{
    "$tmp/spidertrace" phases testdata/golden_trace.jsonl.gz
    "$tmp/spidertrace" critical testdata/golden_trace.jsonl.gz
} > "$tmp/golden_spans.txt"
cmp "$tmp/golden_spans.txt" testdata/golden_spans.txt

# Chaos gate: 20% loss (plus duplication and jitter) on every link. The
# 100-request workload must finish with zero hung compositions, the trace
# must satisfy the probe-conservation invariants with faults accounted, and
# the fault plane must be deterministic: same seed, byte-identical trace.
echo "== chaos gate (loss=0.2, dup=0.05, jitter=10ms)"
"$tmp/spidersim" -seed 7 -ipnodes 400 -peers 60 -requests 100 -duration 3m \
    -faults "loss=0.2,dup=0.05,jitter=10ms,seed=3" -check -trace "$tmp/f1.jsonl" > /dev/null
"$tmp/spidersim" -seed 7 -ipnodes 400 -peers 60 -requests 100 -duration 3m \
    -faults "loss=0.2,dup=0.05,jitter=10ms,seed=3" -check -trace "$tmp/f2.jsonl" > /dev/null
cmp "$tmp/f1.jsonl" "$tmp/f2.jsonl"

# Flash-crowd chaos cell: the same faulty wire while a flash crowd piles
# onto one function under a heavy-tailed popularity curve. Zero hung
# compositions and a clean invariant check are required as usual, and the
# scenario plane must be as deterministic as the fault plane.
echo "== chaos gate: flash-crowd cell"
"$tmp/spidersim" -seed 7 -ipnodes 400 -peers 60 -requests 100 -duration 3m \
    -scenario "zipf=1.1,flash=fn0:6@60s+60s" \
    -faults "loss=0.2,dup=0.05,jitter=10ms,seed=3" -check -trace "$tmp/fc1.jsonl" > /dev/null
"$tmp/spidersim" -seed 7 -ipnodes 400 -peers 60 -requests 100 -duration 3m \
    -scenario "zipf=1.1,flash=fn0:6@60s+60s" \
    -faults "loss=0.2,dup=0.05,jitter=10ms,seed=3" -check -trace "$tmp/fc2.jsonl" > /dev/null
cmp "$tmp/fc1.jsonl" "$tmp/fc2.jsonl"

# Federation chaos gate: partition one whole domain across the commit window
# of a federated run. After the heal and a full lease drain the run must show
# zero hung compositions and zero orphaned reservations (-check enforces
# both, plus the 2PC lifecycle trace invariant), and the fault plane must
# stay deterministic: same seed, byte-identical trace.
echo "== federation chaos gate (domain partition during commit)"
"$tmp/spidersim" -seed 7 -ipnodes 400 -peers 60 -functions 12 -requests 40 \
    -duration 60s -domains "domains=3,gateways=2,hold=8s,life=8s" \
    -faults "partition=20s@15s,seed=4" -check -trace "$tmp/d1.jsonl" > /dev/null
"$tmp/spidersim" -seed 7 -ipnodes 400 -peers 60 -functions 12 -requests 40 \
    -duration 60s -domains "domains=3,gateways=2,hold=8s,life=8s" \
    -faults "partition=20s@15s,seed=4" -check -trace "$tmp/d2.jsonl" > /dev/null
cmp "$tmp/d1.jsonl" "$tmp/d2.jsonl"

# Figure gates. Every simulated figure must (1) print exactly the committed
# golden tables — internal/experiment/testdata/figures.golden is the
# concatenated stdout of `spiderbench -fig F` over the loop below; after a
# deliberate protocol change regenerate it from that loop — and (2) be
# byte-identical, tables and trace, at any worker count. Fig 11's cells are
# single requests on an idle world, scale's compare load-aware against
# load-blind composition, stress's replay adversarial workloads through five
# algorithms, federate's drive the cross-domain 2PC under faults: between them
# every layer's determinism is on the line. The acceptance thresholds
# themselves (spidernet >= strawmen, p99 bounds, load-aware wins) live in the
# package tests that `go test ./...` above already enforced.
echo "== figure gate (golden tables + parallel determinism, trace included)"
go build -o "$tmp/spiderbench" ./cmd/spiderbench
for fig in 8 9 11 scale stress overhead federate; do
    "$tmp/spiderbench" -fig "$fig" -parallel 1 -trace "$tmp/$fig.p1.jsonl" > "$tmp/$fig.p1.txt" 2> /dev/null
    "$tmp/spiderbench" -fig "$fig" -parallel 8 -trace "$tmp/$fig.p8.jsonl" > "$tmp/$fig.p8.txt" 2> /dev/null
    cmp "$tmp/$fig.p1.txt" "$tmp/$fig.p8.txt"
    cmp "$tmp/$fig.p1.jsonl" "$tmp/$fig.p8.jsonl"
    cat "$tmp/$fig.p1.txt" >> "$tmp/figures.txt"
done
cmp "$tmp/figures.txt" internal/experiment/testdata/figures.golden

# No federate cell may leave an orphaned reservation (the last column).
if awk 'NR > 2 && $NF != 0 { exit 1 }' "$tmp/federate.p1.txt"; then
    echo "federate: zero orphaned reservations in every cell"
else
    echo "federate: orphaned reservations detected"; exit 1
fi

# The size every PR reports, counted one way: non-test Go outside benchmark/.
echo "== non-test Go lines: $(find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l)"

echo "== ci ok"
