#!/usr/bin/env bash
# Docs consistency check, run by scripts/check.sh:
#
#  1. every `src/<dir>` named in docs/ARCHITECTURE.md must exist as a
#     directory (the layer map must not drift from the tree);
#  2. every intra-repo markdown link in the tracked *.md files must
#     resolve (relative to the file containing it).
#  3. every qualified name inside a backticked span of README.md or
#     docs/*.md (`Type::member`, `obs::traceInstant`) must have its last
#     component appear as a word in the code, so a deleted or renamed
#     symbol cannot live on in the docs.
#
# Exits non-zero listing every violation.
set -euo pipefail

cd "$(dirname "$0")/.."
fail=0

# --- 1. src/ subdirectories named in the architecture doc exist ------
while IFS= read -r dir; do
    if [ ! -d "$dir" ]; then
        echo "check_docs: docs/ARCHITECTURE.md names missing directory: $dir"
        fail=1
    fi
done < <(grep -oE 'src/[a-z_0-9]+' docs/ARCHITECTURE.md | sort -u)

# --- 2. intra-repo markdown links resolve ----------------------------
# Inline links: [text](target). External schemes and pure-anchor links
# are skipped; a target's own "#fragment" suffix is stripped before the
# existence check (fragments are not validated).
for md in README.md ROADMAP.md PAPER.md PAPERS.md docs/*.md; do
    [ -f "$md" ] || continue
    base=$(dirname "$md")
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|'#'*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        if [ ! -e "$base/$path" ] && [ ! -e "$path" ]; then
            echo "check_docs: broken link in $md: $target"
            fail=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$md" | sed 's/^](//; s/)$//')
done

# --- 3. backticked qualified names still exist in the code ----------
while IFS= read -r qname; do
    member="${qname##*::}"
    if ! grep -rqw -- "$member" src bench tests examples perfbench; then
        echo "check_docs: stale reference in the docs: \`$qname\`"
        fail=1
    fi
done < <(grep -ohE '`[^`]+`' README.md docs/*.md |
             grep -oE '[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_~][A-Za-z0-9_]*)+' |
             sort -u)

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED"
    exit 1
fi
echo "check_docs: OK"
