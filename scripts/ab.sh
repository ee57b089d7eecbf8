#!/bin/sh
# ab.sh — alternating-pair A/B run of the repo benchmark: a parent revision
# against the working tree.
#
#   scripts/ab.sh PARENT [--pairs N] [--workloads w1,w2,...]
#
# PARENT is any git revision; it is exported with `git archive` into a
# temporary directory, removed on exit. Pair k (seeds 1..N, default 10) runs
# `go run -C benchmark repro/benchmark --workload W --seed k --seconds S
# --trace 0` once in each tree, S being BENCHMARK.json's run_seconds: the
# parent first on odd seeds, the working tree first on even ones, so a drift
# of the machine falls on both sides. Workloads default to all of
# BENCHMARK.json's.
#
# For every workload and end-to-end metric it prints both sides' median
# [q1, q3] over the pairs (quartiles as BENCHMARK.json's spreads define them),
# the change's median relative to the parent's, how many pairs the working
# tree won and a verdict:
#   worse   the median is worse than the parent's by more than the bound
#   noisy   either side's interquartile range exceeds the bound of the median
#   better  at least ten pairs, at least 9 in 10 won, and the median better
#           by more than the parent's interquartile range
#   same    anything else
# Then one line per workload saying whether the virtual digests of every pair
# were equal; one line per workload with each side's ok_share pooled over its
# runs (operations ok over operations attempted, from each run's counts), its
# 95 % Wilson score interval and whether the two intervals overlap — the
# comparison a ratio near 1 needs, where a per-run median and quartiles say
# little; and a last line: "verdict: no move" when no metric is worse, noisy
# or better and every digest is equal. Exit status 1 when a metric is
# worse or a run reported itself incorrect. Needs git, tar, jq and go.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
usage() { echo "usage: scripts/ab.sh PARENT [--pairs N] [--workloads w1,w2,...]" >&2; exit 2; }
[ $# -ge 1 ] || usage
parent="$1"; shift
pairs=10
workloads="$(jq -r '[.workloads[].name] | join(",")' "$repo/BENCHMARK.json")"
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs) [ $# -ge 2 ] || usage; pairs="$2"; shift 2 ;;
    --workloads) [ $# -ge 2 ] || usage; workloads="$2"; shift 2 ;;
    *) usage ;;
    esac
done
case "$pairs" in ''|*[!0-9]*|0) usage ;; esac
seconds="$(jq -r '.run_seconds' "$repo/BENCHMARK.json")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$parent^{commit}")" | tar -x -C "$tmp/parent"

# run SIDE TREE WORKLOAD SEED appends one JSON line per run to runs.jsonl.
run() {
    status=0
    go run -C "$2/benchmark" repro/benchmark --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 \
        > "$tmp/out" 2> "$tmp/err" || status=$?
    if ! tail -n 2 "$tmp/out" | jq -sce 'length == 2' > /dev/null 2>&1; then
        echo "ab: $1 $3 seed $4 printed no result (exit $status):" >&2
        cat "$tmp/err" >&2
        exit 1
    fi
    tail -n 2 "$tmp/out" | jq -sc --arg side "$1" --arg w "$3" --argjson seed "$4" \
        '{side: $side, workload: $w, seed: $seed, digest: .[0].virtual_digest,
          ok: .[0].counts.ok, attempted: .[0].counts.attempted,
          correct: .[1].correct, metrics: (.[1].metrics | map_values(.value))}' >> "$tmp/runs.jsonl"
    printf '  %-6s %-8s seed %-2s %s\n' "$1" "$3" "$4" "$(tail -n 1 "$tmp/runs.jsonl" | jq -r '.digest')" >&2
}

k=1
while [ "$k" -le "$pairs" ]; do
    for w in $(echo "$workloads" | tr ',' ' '); do
        if [ $((k % 2)) -eq 1 ]; then
            run parent "$tmp/parent" "$w" "$k"; run change "$repo" "$w" "$k"
        else
            run change "$repo" "$w" "$k"; run parent "$tmp/parent" "$w" "$k"
        fi
    done
    k=$((k + 1))
done

jq -rs --slurpfile bench "$repo/BENCHMARK.json" --arg order "$workloads" '
def cut($x; $i): ($x | length) as $n
    | ([1, ([(($i * ($n + 1)) / 4 | floor), $n - 1] | min)] | max) as $j
    | ($i * ($n + 1) - $j * 4) as $d
    | ($x[$j - 1] * (4 - $d) + $x[$j] * $d) / 4;
def spread: sort as $x
    | if ($x | length) == 1 then {m: $x[0], q1: $x[0], q3: $x[0]}
      else {m: cut($x; 2), q1: cut($x; 1), q3: cut($x; 3)} end;
def num: if . == 0 or (fabs >= 1000) then (. * 10 | round / 10 | tostring)
         else (. * 10000 | round / 10000 | tostring) end;
def show: "\(.m | num) [\(.q1 | num), \(.q3 | num)]";
# wilson(k; n): the share k/n and its 95 % Wilson score interval.
def wilson($k; $n): (1.96 * 1.96) as $z2 | ($k / $n) as $p | (1 + $z2 / $n) as $d
    | (($p + $z2 / (2 * $n)) / $d) as $c
    | (($z2 * ($p * (1 - $p) / $n + $z2 / (4 * $n * $n)) | sqrt) / $d) as $h
    | {p: $p, lo: ($c - $h), hi: ($c + $h)};
def pooled: wilson(map(.ok) | add; map(.attempted) | add);
def interval: "\(.p | num) [\(.lo | num), \(.hi | num)]";
def wide($n): tostring | . + (" " * ([$n - length, 1] | max));
. as $runs
| [($order | split(","))[] as $w
   | ($runs | map(select(.workload == $w))) as $rw
   | ($rw | map(select(.side == "parent")) | sort_by(.seed)) as $p
   | ($rw | map(select(.side == "change")) | sort_by(.seed)) as $c
   | {w: $w,
      equal: ([range(0; $p | length) | select($p[.].digest == $c[.].digest)] | length),
      incorrect: ($rw | map(select(.correct | not)) | length),
      n: ($p | length),
      pw: ($p | pooled), cw: ($c | pooled),
      rows: [$bench[0].end_to_end[] as $m
        | ($p | map(.metrics[$m.name])) as $pv
        | ($c | map(.metrics[$m.name])) as $cv
        | (if $m.better == "lower" then 1 else -1 end) as $worse
        | ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * $worse < 0)] | length) as $wins
        | ($pv | spread) as $ps | ($cv | spread) as $cs
        | (if $ps.m == 0 then 0 else ($cs.m - $ps.m) / $ps.m end) as $rel
        | {name: $m.name, bound: $m.bound, ps: $ps, cs: $cs, rel: $rel, wins: $wins,
           verdict: (if $rel * $worse > $m.bound then "worse"
                     elif ($ps.m != 0 and ($ps.q3 - $ps.q1) / $ps.m > $m.bound)
                          or ($cs.m != 0 and ($cs.q3 - $cs.q1) / $cs.m > $m.bound) then "noisy"
                     elif ($pv | length) >= 10 and $wins * 10 >= 9 * ($pv | length)
                          and ($ps.m - $cs.m) * $worse > ($ps.q3 - $ps.q1) then "better"
                     else "same" end)}]}] as $cells
| ($cells[] | .w as $w | .n as $n | .rows[]
   | "\($w | wide(9))\(.name | wide(18))\(.ps | show | wide(32))\(.cs | show | wide(32))\(((.rel * 1000 | round) / 10 + 0 | tostring) + "%" | wide(9))\("\(.wins)/\($n)" | wide(7))\(((.bound * 100 | round | tostring) + "%") | wide(6))\(.verdict)"),
  ($cells[] | "digests \(.w): " + (if .equal == .n then "equal in all \(.n) pairs" else "differ in \(.n - .equal) of \(.n) pairs" end)
     + (if .incorrect > 0 then "; \(.incorrect) runs incorrect" else "" end)),
  ($cells[] | "ok_share \(.w): parent \(.pw | interval), change \(.cw | interval), "
     + (if .pw.lo <= .cw.hi and .cw.lo <= .pw.hi then "intervals overlap" else "intervals disjoint" end)),
  ([$cells[].rows[] | select(.verdict != "same") | "\(.verdict)"] | group_by(.) | map("\(length) \(.[0])")) as $moved
  | ([$cells[] | select(.equal != .n)] | length) as $differ
  | "verdict: " + (if ($moved | length) == 0 and $differ == 0 then "no move"
                   else ($moved + (if $differ > 0 then ["digests differ on \($differ) workloads"] else [] end) | join(", ")) end)
' "$tmp/runs.jsonl" | {
    printf '%-9s%-18s%-32s%-32s%-9s%-7s%-6s%s\n' workload metric "parent median [q1, q3]" "change median [q1, q3]" change wins bound verdict
    tee "$tmp/report"
}
! grep -q -e ' worse$' -e 'runs incorrect' "$tmp/report"
