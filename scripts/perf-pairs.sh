#!/bin/sh
# Alternating timed pairs of a parent checkout's `perf` against this one's:
# the protocol a change that claims a gain has to run (choosing-metrics §8).
# Builds both binaries, runs N pairs on seeds 11.. (odd seeds parent first),
# and prints every run, both medians, the parent's interquartile distance
# and the win count of each end-to-end metric.
#
#   scripts/perf-pairs.sh WORKLOAD PARENT_CHECKOUT [N=10] [SECONDS=20]
#
# Start nothing else while it runs: timing on a small host is noisy.
set -eu

[ $# -ge 2 ] || { echo "usage: $0 WORKLOAD PARENT_CHECKOUT [N=10] [SECONDS=20]" >&2; exit 2; }
workload=$1
parent=$(cd "$2" && pwd)
n=${3:-10}
seconds=${4:-20}
change=$(cd "$(dirname "$0")/.." && pwd)

for dir in "$parent" "$change"; do
    CARGO_TARGET_DIR="$dir/perf/target" \
        cargo build --release --offline --quiet --manifest-path "$dir/perf/Cargo.toml"
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
echo "# $workload: $n pairs x ${seconds}s, parent=$parent change=$change"
printf '%-4s %-6s %-5s %12s %12s %10s %9s %6s %s\n' \
    seed side order cols_per_s batch_ms_p80 scan_ratio setup_s failed digest
i=0
while [ "$i" -lt "$n" ]; do
    seed=$((11 + i))
    if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    pos=1
    for side in $order; do
        eval "dir=\$$side"
        out=$("$dir/perf/target/release/perf" run --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0) || echo "# seed $seed $side: exit $?"
        echo "$out" | awk -v seed="$seed" -v side="$side" -v pos="$pos" '
            /^# /      { for (f = 1; f <= NF; f++) if ($f ~ /^digest=/) digest = substr($f, 8) }
            /^[a-z][a-z0-9_]* / { m[$1] = $2 }
            /^\{/      { failed = $0; sub(/.*"failed":/, "", failed); sub(/[,}].*/, "", failed)
                         if ($0 !~ /"correct":true/) failed = failed "!" }
            END { printf "%-4s %-6s %-5s %12.2f %12.3f %10.4f %9.3f %6s %s\n", seed, side, pos,
                  m["cols_per_s"], m["batch_ms_p80"], m["scan_ratio"], m["setup_s"], failed, digest }
        ' | tee -a "$runs"
        pos=$((pos + 1))
    done
    i=$((i + 1))
done

awk '
    function sorted(side, col, out,    k, j, t, cnt) {
        cnt = 0
        for (k = 1; k <= rows[side]; k++) out[++cnt] = v[side, k, col]
        for (k = 2; k <= cnt; k++) { t = out[k]; for (j = k - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
        return cnt
    }
    function quantile(a, cnt, p,    h, lo) { h = (cnt - 1) * p + 1; lo = int(h); return lo >= cnt ? a[cnt] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
    { side = $2; rows[side]++; for (c = 4; c <= 7; c++) v[side, rows[side], c] = $c
      if ($8 != "0") bad++; digest[$1, side] = $9; seeds[$1] = 1 }
    END {
        name[4] = "cols_per_s"; name[5] = "batch_ms_p80"; name[6] = "scan_ratio"; name[7] = "setup_s"
        higher[4] = 1
        printf "\n%-13s %12s %12s %12s %9s %s\n", "metric", "parent_med", "change_med", "parent_iqr", "change/p", "change wins / ties / pairs"
        for (c = 4; c <= 7; c++) {
            np = sorted("parent", c, p); nc = sorted("change", c, q)
            pm = quantile(p, np, 0.5); cm = quantile(q, nc, 0.5)
            wins = ties = 0
            for (k = 1; k <= rows["parent"] && k <= rows["change"]; k++) {
                a = v["parent", k, c]; b = v["change", k, c]
                if (a == b) ties++; else if ((b > a) == (higher[c] == 1)) wins++
            }
            printf "%-13s %12.4f %12.4f %12.4f %9.3f %d / %d / %d\n", name[c], pm, cm,
                quantile(p, np, 0.75) - quantile(p, np, 0.25), pm ? cm / pm : 0, wins, ties, k - 1
        }
        for (s in seeds) if (digest[s, "parent"] != digest[s, "change"]) { print "# verdict digests differ at seed " s; bad++ }
        if (bad) { print "# " bad " run(s) failed, were incorrect, or disagree on verdicts"; exit 1 }
    }
' "$runs"
