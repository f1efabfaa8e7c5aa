#!/usr/bin/env bash
# Fixcheck smoke run: generate a simulated fix history with histgen,
# then hand each commit's unified diff (plain GNU `diff -ru` output,
# exactly what a CI bot would capture from a patch) to
# `refminer fixcheck` against the post-commit tree, verifying that
#
#   1. every partial-fix commit exits 1 and names at least one
#      left-unfixed sibling from the same clone group;
#   2. the neutral refactor commit exits 0 with nothing fixed, nothing
#      introduced, nothing left behind;
#   3. the JSONL bytes are identical across `--jobs` settings and cache
#      temperature (warm shared cache vs cold cache-less run);
#   4. fixcheck agrees with `refminer diff` on the same two revisions:
#      the same fixed findings, and its `incomplete` lines name exactly
#      the findings diff reports as `left_behind`;
#   5. a malformed diff exits 2 with a diagnostic, not a panic.
#
# Env:
#   REFMINER_BIN  prebuilt refminer binary; default `cargo run`
#   HISTGEN_BIN   prebuilt histgen binary; default `cargo run`
set -u

here="$(cd "$(dirname "$0")/.." && pwd)"
outdir="$(mktemp -d "${TMPDIR:-/tmp}/refminer-fixcheck.XXXXXX")"
trap 'rm -rf "$outdir"' EXIT

refminer() {
    if [ -n "${REFMINER_BIN:-}" ]; then
        "$REFMINER_BIN" "$@"
    else
        cargo run --quiet --manifest-path "$here/Cargo.toml" -p refminer --bin refminer -- "$@"
    fi
}

histgen() {
    if [ -n "${HISTGEN_BIN:-}" ]; then
        "$HISTGEN_BIN" "$@"
    else
        cargo run --quiet --manifest-path "$here/Cargo.toml" -p refminer --bin histgen -- "$@"
    fi
}

fail() {
    echo "fixcheck_smoke.sh: FAIL ($1)" >&2
    exit 1
}

hist="$outdir/hist"
histgen --seed 23 --scale 0.05 --clone-groups 2 "$hist" > /dev/null \
    || fail "histgen"
[ -f "$hist/history.json" ] || fail "histgen wrote no history.json"

revs=$(cd "$hist" && ls -d rev?? | sort)
[ -n "$revs" ] || fail "histgen wrote no revisions"

cache="$outdir/cache"
prev=""
commit=0
fix_commits=0
neutral_commits=0
for rev in $revs; do
    cur="$hist/$rev"
    if [ -z "$prev" ]; then
        prev="$cur"
        continue
    fi
    commit=$((commit + 1))

    # The real-world artifact: a recursive GNU diff between snapshots.
    # (Exit 1 just means "files differ".)
    diff -ru "$prev" "$cur" > "$outdir/fix.patch" || true
    [ -s "$outdir/fix.patch" ] || fail "commit $commit: empty diff"

    refminer fixcheck --json --jobs 1 --cache-dir "$cache" \
        "$cur" "$outdir/fix.patch" > "$outdir/fc_warm.jsonl"
    warm_status=$?
    refminer fixcheck --json --jobs 4 "$cur" "$outdir/fix.patch" \
        > "$outdir/fc_cold.jsonl"
    cold_status=$?
    [ "$warm_status" -eq "$cold_status" ] \
        || fail "commit $commit: exit codes differ across jobs/cache"
    cmp -s "$outdir/fc_warm.jsonl" "$outdir/fc_cold.jsonl" \
        || fail "commit $commit: fixcheck bytes differ across jobs/cache temperature"

    # fixcheck is the diff pipeline run over the reverse-applied tree,
    # so both must report the same fixed findings and the same
    # left-behind clones (compared as multisets of finding objects).
    refminer diff --json --jobs 1 "$prev" "$cur" > "$outdir/diff.jsonl"
    [ $? -le 1 ] || fail "commit $commit: refminer diff failed"
    python3 - "$outdir/diff.jsonl" "$outdir/fc_warm.jsonl" <<'EOF' \
        || fail "commit $commit: diff and fixcheck disagree"
import collections, json, sys
diff = [json.loads(l) for l in open(sys.argv[1])]
fixcheck = [json.loads(l) for l in open(sys.argv[2])]
def bag(rows, key, tag, finding):
    return collections.Counter(
        json.dumps(finding(r), sort_keys=True) for r in rows if r.get(key) == tag
    )
from_diff = lambda r: r["finding"]
from_line = lambda r: json.loads(r["line"])
assert bag(diff, "delta", "fixed", from_diff) == bag(fixcheck, "fixcheck", "fixed", from_line), \
    "fixed findings differ"
assert bag(diff, "delta", "left_behind", from_diff) == \
    bag(fixcheck, "fixcheck", "incomplete", from_line), "left-behind clones differ"
EOF

    # The groups this commit repaired, per the generator's ground truth.
    groups=$(python3 - "$hist/history.json" "$rev" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for rev in doc["revisions"]:
    if rev["dir"] == sys.argv[2]:
        print(" ".join(sorted({f["group"] for f in rev["fixed"]})))
EOF
)
    if [ -n "$groups" ]; then
        fix_commits=$((fix_commits + 1))
        [ "$warm_status" -eq 1 ] \
            || fail "commit $commit: partial fix must exit 1 (got $warm_status)"
        grep -q '"fixcheck":"fixed"' "$outdir/fc_warm.jsonl" \
            || fail "commit $commit: fixed finding not reported"
        # Every repaired group must have an incomplete report naming a
        # *different* member of the group — a sibling, not the fixed
        # site itself.
        python3 - "$hist/history.json" "$rev" "$outdir/fc_warm.jsonl" <<'EOF' \
            || fail "commit $commit: no left-unfixed sibling reported"
import json, sys
doc = json.load(open(sys.argv[1]))
rev = next(r for r in doc["revisions"] if r["dir"] == sys.argv[2])
incompletes = [json.loads(l) for l in open(sys.argv[3]) if '"fixcheck":"incomplete"' in l]
for f in rev["fixed"]:
    group, fixed_file = f["group"], f["path"].rsplit("/", 1)[-1]
    siblings = [
        i for i in incompletes
        if group + "_" in i["line"] and fixed_file not in i["line"]
    ]
    assert siblings, f"group {group}: fixed {fixed_file} but no sibling reported"
EOF
    else
        neutral_commits=$((neutral_commits + 1))
        [ "$warm_status" -eq 0 ] \
            || fail "commit $commit: neutral diff must be clean (got $warm_status)"
        grep -q '"fixcheck":"fixed"' "$outdir/fc_warm.jsonl" \
            && fail "commit $commit: neutral diff reported a fix"
        grep -q '"fixcheck":"incomplete"' "$outdir/fc_warm.jsonl" \
            && fail "commit $commit: neutral diff reported incompletes"
    fi
    prev="$cur"
done

[ "$fix_commits" -gt 0 ] || fail "no fix commits replayed"
[ "$neutral_commits" -gt 0 ] || fail "no neutral commit replayed"

# Malformed input must be a diagnostic, never a panic.
echo "this is not a diff" > "$outdir/garbage.patch"
refminer fixcheck "$hist/rev01" "$outdir/garbage.patch" \
    > /dev/null 2> "$outdir/garbage.err"
[ $? -eq 2 ] || fail "malformed diff must exit 2"
grep -q "refminer fixcheck:" "$outdir/garbage.err" \
    || fail "malformed diff produced no diagnostic"

echo "fixcheck_smoke.sh: PASS ($commit commits, $fix_commits partial fixes \
caught, $neutral_commits neutral)"
