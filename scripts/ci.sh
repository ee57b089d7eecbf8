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

# The socket runtime composes at the protocol's own collect and give-up
# timers (bcp.CollectTimeout, bcp.GiveUpTimeout): five runs under the race
# detector, and the same short timeout, keep a race or a wall-clock
# regression from hiding behind one lucky run.
echo "== tcpnet composition over real sockets (-race x5, 60s timeout)"
go test -race -count=5 -timeout 60s ./internal/tcpnet

# Recovery on the live runtime: every maintenance walk is one object handed
# from peer goroutine to peer goroutine, and a switchover commits across
# them. The same short timeout turns a lost pong that hangs into a failure. Ten
# runs, because a graph one peer refreshes while another reads it raced about
# once in sixteen. Beside it, the crash model on real time: a downed peer's
# loop parks the timers that come due and fires them, in due order, when the
# peer is back (its margins are tens of milliseconds, sized for 2 cores).
echo "== live recovery: maintenance walks + switchover + paused timers (-race x10, 60s timeout)"
go test -race -count=10 -timeout 60s -run 'TestTestbedRecovery|TestTimersWaitForRecovery' ./internal/livenet

# Allocation gates: the object budgets of one composition and one recovery
# interval, and the paths that must allocate nothing at all (route cost,
# candidate scoring, the dedupe key, next-hop planning). The run above had
# them under the race detector only, whose runtime allocates differently;
# these are the figures DESIGN.md quotes. The two benchmarks print the same
# paths' objects, bytes and time into the log, the third the objects of
# one simulator event (0: a timer is a pooled event) and the fourth one DHT
# discovery lookup; the next ones do that for the
# world build and the route plane: the four build passes (peer-latency matrix
# at the paper's scale and the DHT ring at 1k-100k peers, each on one core and
# fanned over two, the scale workload's
# 300k-node graph generation and its compact mesh), the whole full overlay
# build at the paper's scale (mesh search plus matrix), which is what
# the steady workload's setup_s pays, 200 cold route queries on the scale
# workload's overlay, each settling its source's sweep only until the target
# is final, which are most of its run_s, the route-oracle traffic BCP sends
# on the paper-scale overlay (bursts of cost queries, mostly hits), and one
# evicting route miss.
echo "== allocation gates (no race detector) + compose/recovery-tick + world-build and route benchmarks"
go test -run 'Alloc' -count=1 ./internal/...
go test -run '^$' -bench 'BCPCompose|RecoveryTick|SimEventDispatch|DHTLookup' -benchmem -benchtime 20x .
go test -run '^$' -bench 'PairDistancesPaperScale|DHTBuildRing' -benchmem -benchtime 3x -cpu 1,2 .
go test -run '^$' -bench 'GeneratePowerLaw300k|CompactMesh30k|TopologyPaperScale|RouteTables30k|RouteOracle1k' -benchmem -benchtime 3x .
go test -run '^$' -bench 'OverlayRouteEvict' -benchmem .

# Message gates, beside the allocation gates: one pinned small cell holds DHT
# messages per composed session and routed hops per hop-origin lookup under
# ceilings 10 % above their measured values, so a change that silently stops
# probes from carrying first-hop hints or the source's lists, or concurrent
# lookups of one function from joining, fails here; a second one, with
# recovery on, holds rec.* messages per session-interval the same way, so a
# prober that walks every backup every interval does; a third, a shedding
# cell, holds the successes' median wait after their last probe under 1 ms,
# read as the collect phase of each success's span tree, so a dead probe that
# stops returning its credit does; a fourth, a churned recovery cell, holds
# the successes' p99 span-tree collect phase under 1 ms with the checker
# clean, so next-hop selection that stops reading the liveness view (p99 back
# at the 3.2 s window, probes sent to peers already down) does; a fifth, on the
# benchmark's steady world, holds the mean lookup under a ceiling, so routing
# tables that stop holding each bucket's nearest member (121.6 → 173.2 ms) or
# lookups that go on past the key's first holder to its root (153.6 ms) do; a
# sixth, a churned run drained after its last session ended, holds what is
# left reserved (hard, soft or held) and below link capacity at zero and
# wants every arrival answered, so an allocation whose lease nothing expires
# (a teardown a downed peer never heard) or a timer a crash throws away does.
# Beside them the DHT's completeness tests hold what a holder answers to its
# root's items under late puts, a join that displaces a replica, replica
# outages and an out-of-order copy, and print the stale answers left; and
# BCP's discovery cache is held to answering an expired list at once: a source
# composes on expired lists in the time it takes on fresh ones, with one
# refresh per list, sent to the peer that answered it last and answered as a
# delta, and a refresh that times out leaves the list in place — so a cache
# that goes back to blocking on a refresh, or forgets a list whose refresh
# failed, fails here. A source hands each first-hop peer a list once: a
# second probe through the same hop carries none of its items, one after the
# root gained an item carries exactly that item, the hop rebuilds the source's
# list every time, and a hop that never got the first probe counts the tail
# short, looks the function up at the hinted peer and composes — so probes
# that carry whole lists again, or a hop that trusts a tail it cannot rebuild,
# fail here. -v prints what each measured.
echo "== discovery + maintenance message gates, collect-wait gates, lookup gate, drain gate, lookup completeness, stale discovery cache, carried tails"
go test -run 'DiscoveryMessageBudget|MaintenanceMessageBudget|CollectWaitBudget|ChurnCollectWait|LookupStretch|DrainAfterChurn' -count=1 -v ./internal/cluster
go test -run 'HoldersAnswerWithTheRootsItems|StaleAnswersNeedAPeerThatWasDown|HolderWithAGapRoutesOn' -count=1 -v ./internal/dht
go test -run 'ExpiredListAnswersAtOnce|FailedRefreshKeepsTheList|SecondProbeCarriesOnlyTheTail|ShortHopIgnoresTheTail|HandRestartsWhenTheListChanges' -count=1 -v ./internal/bcp

# The benchmark is a module of its own (benchmark/go.mod), so ./... above
# never descends into it: vet and test it here, so an internal/ rename that
# breaks its driver fails CI and not only the next benchmark run.
echo "== benchmark module (go vet + go test -C benchmark ./...)"
go vet -C benchmark ./...
go test -C benchmark ./...

# A/B smoke: one pair of the alternating-pair comparison every performance
# claim is made with, HEAD against the working tree on steady. On a committed
# tree both sides are the same code, so the script must report equal digests,
# overlapping ok_share intervals and no move; anything else means its export,
# its parsing or its arithmetic broke.
echo "== A/B smoke (scripts/ab.sh HEAD --pairs 1 --workloads steady)"
ab="$(sh scripts/ab.sh HEAD --pairs 1 --workloads steady 2> /dev/null)"
echo "$ab"
echo "$ab" | grep -qx 'digests steady: equal in all 1 pairs'
echo "$ab" | grep -qx 'ok_share steady: parent .*, change .*, intervals overlap'
echo "$ab" | grep -qx 'verdict: no move'

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
# traces must satisfy the protocol invariants (spidertrace check on each
# file and on the committed golden trace; spidersim -check on a run), and
# the gzip trace path must round-trip to the same events. The churn-free run
# must issue every one of its 30 requests: one compose.start each. Counters
# are folds of the events and histograms do not read the trace, so a -stats
# run prints the same counter, wire and distribution tables with a trace file
# attached and without one.
echo "== trace determinism + invariant gate"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/spidersim" ./cmd/spidersim
go build -o "$tmp/spidertrace" ./cmd/spidertrace
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 30 -duration 3m \
    -trace "$tmp/a.jsonl" > /dev/null
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 30 -duration 3m \
    -trace "$tmp/b.jsonl" > /dev/null
cmp "$tmp/a.jsonl" "$tmp/b.jsonl"
starts="$(grep -c '"kind":"compose.start"' "$tmp/a.jsonl")"
[ "$starts" -eq 30 ] || { echo "spidersim -requests 30 traced $starts compose.start events"; exit 1; }
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 30 -duration 3m \
    -trace "$tmp/c.jsonl.gz" > /dev/null
gunzip -c "$tmp/c.jsonl.gz" | cmp - "$tmp/a.jsonl"
"$tmp/spidertrace" check "$tmp/a.jsonl"
"$tmp/spidertrace" check "$tmp/c.jsonl.gz"
"$tmp/spidertrace" check testdata/golden_trace.jsonl.gz
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 30 -duration 3m \
    -check > /dev/null
counters() { awk '/^# per-layer counters/{on=1} /^# trace summary/{on=0} on' "$1"; }
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 30 -duration 3m \
    -stats > "$tmp/s1.txt"
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 30 -duration 3m \
    -stats -trace "$tmp/s.jsonl" > "$tmp/s2.txt"
counters "$tmp/s1.txt" > "$tmp/c1.txt"
counters "$tmp/s2.txt" > "$tmp/c2.txt"
[ -s "$tmp/c1.txt" ] || { echo "spidersim -stats printed no counter tables"; exit 1; }
cmp "$tmp/c1.txt" "$tmp/c2.txt"
# A churned run goes through a cluster.Plan's churn clause: deterministic,
# checker-clean, and failing exactly what it asks for — five minute ticks
# of 5 % of 80 peers, refilling a pick that is already down, are 20 failures.
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 60 -duration 6m -churn 0.05 \
    -check -trace "$tmp/ch1.jsonl" > /dev/null
"$tmp/spidersim" -seed 7 -ipnodes 600 -peers 80 -requests 60 -duration 6m -churn 0.05 \
    -check -trace "$tmp/ch2.jsonl" > /dev/null
cmp "$tmp/ch1.jsonl" "$tmp/ch2.jsonl"
downs="$(grep -c '"kind":"net.down"' "$tmp/ch1.jsonl")"
[ "$downs" -eq 20 ] || { echo "spidersim -churn 0.05 traced $downs net.down events, want 20"; exit 1; }

# Span gate: the causal span analyzer must be deterministic — the same trace
# must render byte-identical reports across runs, and the committed golden
# trace must render exactly the committed golden report. A diff here means
# either the span builder changed (regenerate testdata/golden_spans.txt with
# the command below) or nondeterminism crept into tree construction.
echo "== span determinism gate"
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
# The run must also switch at least one session over, so duplicated and lost
# copies of a switchover's reverse-path walk stay exercised.
echo "== chaos gate (loss=0.2, dup=0.05, jitter=10ms)"
"$tmp/spidersim" -seed 7 -ipnodes 400 -peers 60 -requests 100 -duration 3m \
    -faults "loss=0.2,dup=0.05,jitter=10ms,seed=3" -check -trace "$tmp/f1.jsonl" > /dev/null
"$tmp/spidersim" -seed 7 -ipnodes 400 -peers 60 -requests 100 -duration 3m \
    -faults "loss=0.2,dup=0.05,jitter=10ms,seed=3" -check -trace "$tmp/f2.jsonl" > /dev/null
cmp "$tmp/f1.jsonl" "$tmp/f2.jsonl"
switchovers="$(grep -c '"kind":"rec.switchover"' "$tmp/f1.jsonl" || true)"
[ "$switchovers" -ge 1 ] || { echo "chaos run traced no rec.switchover"; exit 1; }

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
# stay deterministic: same seed, byte-identical trace. Beside it, the commit's
# acknowledgement path: participants acknowledge a commit to the client, so a
# request decided before its coordinator crashes still succeeds, a committed
# two-segment request costs no fed.result, and the gateways' prepare dedup
# sets are empty after a drain — a relay through the coordinator, or a dedup
# entry nothing forgets, fails here. A gateway that composes a segment a
# second time hands its first hops no list items they were handed before, so
# the second request's probe bytes drop by at least those items (-v prints
# both totals).
echo "== federation chaos gate (domain partition during commit, commit acknowledgements, prepare dedup, lists handed once)"
go test -run 'TestDecisionOutlivesCoordinator|TestCommitWireCost|TestPrepareDedupForgets|TestGatewayHandsItsListsOnce' -count=1 -v ./internal/federation
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

# The size every PR reports, counted one way: non-test Go outside benchmark/,
# and beside it the settable fields the knob ratchet (options_test.go) covers.
echo "== non-test Go lines: $(find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l)"
knobs="$(go test -count=1 -run '^TestEveryOptionHasASetter$' -v . | sed -n 's/.*knobs: \([0-9]*\) settable fields.*/\1/p')"
[ -n "$knobs" ] || { echo "the knob ratchet logged no field count"; exit 1; }
echo "== knobs (settable fields): $knobs"

echo "== ci ok"
