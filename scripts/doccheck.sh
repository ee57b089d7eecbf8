#!/bin/sh
# doccheck.sh — the docs may name only what exists. From README.md, DESIGN.md,
# EXPERIMENTS.md and the verify skill it takes every back-ticked span and every
# line of a fenced block and fails on
#   - a Go identifier (Name, pkg.Name, Type.Field, ...) no .go file in the
#     tree contains as a word,
#   - a -flag, given to one of the four CLIs or cited on its own, that the
#     CLI's -h does not list,
#   - a repo path (internal/..., cmd/..., a top-level file) that is not there,
# and on a DESIGN.md longer than its cap.
# A deletion that leaves its name behind in a document fails here, not in a
# reader's shell. Names a document cites *as deleted* go on the list below.
set -eu
cd "$(dirname "$0")/.."

docs="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"

# Cited as deleted, with the measurement that deleted them: EXPERIMENTS.md's
# "Why no trust layer" and its note on where the micro-benchmarks live
# (spiderbench -bench); the verify skill's note on the batch checker and trace
# loaders the streaming obs.Checker replaced.
gone="internal/trust TrustAware -bench CheckTotals LoadTrace ReadTrace"

# Flags of the go tool and of the tests, for spans that cite one bare.
gotool="-race -run -bench -benchmem -benchtime -count -cpu -cover -fuzz -fuzztime -update -v -timeout -o"

# DESIGN.md may only shrink: the cap is its length when the cap was set.
cap=1100
if [ "$(wc -l < DESIGN.md)" -gt "$cap" ]; then
    echo "doccheck: DESIGN.md has $(wc -l < DESIGN.md) lines, more than its cap of $cap: cut it, do not grow it"
    exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

find . -name '*.go' | xargs cat | tr -c 'A-Za-z0-9_' '\n' | sort -u > "$tmp/words"

mkdir "$tmp/bin"
go build -o "$tmp/bin/" ./cmd/...
for cli in spidersim spiderbench spidernode spidertrace; do
    { echo " -h"; "$tmp/bin/$cli" -h 2>&1 || true; } | grep -oE '(^|[ [|])-[a-z][a-z0-9]*' | tr -d ' [|' | sort -u > "$tmp/flags.$cli"
done

# doc<TAB>text records: fenced lines as they are, inline spans with the line
# breaks inside them folded.
for d in $docs; do
    awk '/^ *```/ { f = !f; next } f' "$d" | sed "s|^|$d	|" >> "$tmp/fenced"
    awk '/^ *```/ { f = !f; next } !f' "$d" | tr '\n' ' ' | grep -o '`[^`]*`' | tr -d '`' |
        sed 's/   */ /g' | sort -u | sed "s|^|$d	|" >> "$tmp/inline"
done

{
    # Go identifiers: a span that is one dotted identifier, the path before
    # its package and call parentheses aside, and no file name; every
    # component must be a word of the tree.
    sed -E 's|	[a-z0-9/]*/([a-z0-9]+\.[A-Z])|	\1|; s|\(\)$||' "$tmp/inline" |
        grep -E '	[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)*$' |
        grep -vE '\.(go|md|json|sh|mod|txt|gz|golden)$' |
        while IFS='	' read -r doc id; do
            for w in $(echo "$id" | tr '.' ' '); do
                case " $gone " in *" $w "*) continue ;; esac
                grep -qx "$w" "$tmp/words" || echo "$doc: \`$id\`: no Go file knows $w"
            done
        done

    # Flags: after a CLI's name, that CLI's; opening a span with no CLI in it,
    # any CLI's or the go tool's. A piece ends at a pipe, a ;, an & or a #.
    for kind in fenced inline; do
        awk -F '	' -v dir="$tmp" -v inline="$kind" -v gotool="$gotool" -v gone="$gone" '
            BEGIN {
                n = split("spidersim spiderbench spidernode spidertrace", C, " ")
                for (i = 1; i <= n; i++)
                    while ((getline f < (dir "/flags." C[i])) > 0) { known[C[i] " " f]; any[f] }
                m = split(gotool, G, " ")
                for (i = 1; i <= m; i++) any[G[i]]
                m = split(gone, G, " ")
                for (i = 1; i <= m; i++) dead[G[i]]
            }
            {
                np = split($2, P, /[|;&#]/)
                for (p = 1; p <= np; p++) {
                    piece = P[p]; cli = ""; at = 0
                    for (i = 1; i <= n; i++)
                        if (match(piece, "(^|[ /])" C[i] "( |$)") && (at == 0 || RSTART < at)) {
                            cli = C[i]; at = RSTART; rest = substr(piece, RSTART + RLENGTH - 1)
                        }
                    if (cli != "") piece = rest
                    else if (inline != "inline" || p > 1 || piece !~ /^-[a-z]/) continue
                    while (match(piece, /(^|[ [])-[a-z][a-z0-9]*/)) {
                        f = substr(piece, RSTART, RLENGTH); sub(/^[ []/, "", f)
                        piece = substr(piece, RSTART + RLENGTH)
                        if (f in dead) continue
                        if (cli != "" && !((cli " " f) in known)) print $1 ": `" $2 "`: " cli " has no flag " f
                        if (cli == "" && !(f in any)) print $1 ": `" $2 "`: no CLI has a flag " f
                    }
                }
            }' "$tmp/$kind"
    done

    # Paths: under a top-level directory of the repo, or a file name on its
    # own. A package path may carry an identifier (internal/p2p.Node), a
    # pattern a /... or a *.
    cat "$tmp/fenced" "$tmp/inline" | while IFS='	' read -r doc text; do
        for atom in $(echo "$text" | grep -oE '(^|[ (=])(\./)?(internal|cmd|scripts|testdata|examples|benchmark|\.claude)/[A-Za-z0-9_./*-]*' | sed -E 's|^[ (=]||; s|^\./||'); do
            path="$(echo "$atom" | sed -E 's|/?\.\.\.$||; s|[.,:]+$||; s|\.[A-Z][A-Za-z0-9.]*$||')"
            case " $gone " in *" $path "*) continue ;; esac
            # shellcheck disable=SC2086 # the pattern is meant to expand
            ls -d $path > /dev/null 2>&1 || echo "$doc: \`$text\`: no $path in the repo"
        done
        if echo "$text" | grep -qE '^[A-Za-z0-9_]+(/[A-Za-z0-9_]+)?\.(go|md|json|sh|mod|txt|gz|golden)$'; then
            [ -n "$(find . -path "*/$text" -print -quit)" ] || echo "$doc: \`$text\`: no such file in the repo"
        fi
    done
} | sort -u > "$tmp/unknown"

if [ -s "$tmp/unknown" ]; then
    cat "$tmp/unknown"
    echo "doccheck: $(wc -l < "$tmp/unknown") name(s) the tree does not know: fix the document, or list a name it cites as deleted in scripts/doccheck.sh"
    exit 1
fi
echo "doccheck: $(cat "$tmp/inline" "$tmp/fenced" | wc -l) spans and command lines of $(echo "$docs" | wc -w) documents name only what exists"
