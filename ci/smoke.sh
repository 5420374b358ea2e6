#!/usr/bin/env bash
# The CI smoke jobs, runnable locally: `ci/smoke.sh <job>` runs exactly
# what the workflow job of that name runs (.github/workflows/ci.yml calls
# this script). `ci/smoke.sh all` runs every job and lists the red ones.
#
# Jobs: experiments scale shard chaos telemetry chaos-strict
#       chaos-adversarial load baselines wire-fuzz benchmark
#
# Everything is byte-deterministic, so most checks are "run it twice —
# two seeds' worth of output, two pool widths, two shard counts — and
# diff". Scratch output goes to $SMOKE_TMP (default: a fresh mktemp dir).
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=${SMOKE_TMP:-$(mktemp -d)}
NPROC=$(nproc)

build() { cargo build --release -p tamp-harness --bin tamp-exp; }
exp() { ./target/release/tamp-exp "$@"; }

# same_at_any_width <tag> [file-or-dir written under results/ ...] -- <tamp-exp args>
# Run the command at --jobs 1 and at --jobs $(nproc); stdout and every
# named export must be byte-identical (docs/PERFORMANCE.md contract).
# A failing command fails the job at the first width.
same_at_any_width() {
    local tag=$1 outs=()
    shift
    while [ "$1" != "--" ]; do outs+=("$1"); shift; done
    shift
    exp "$@" --jobs 1 | tee "$TMP/$tag-jobs1.txt"
    for o in ${outs[@]+"${outs[@]}"}; do
        rm -rf "$TMP/$tag-jobs1-$(basename "$o")"
        mv "results/$o" "$TMP/$tag-jobs1-$(basename "$o")"
    done
    exp "$@" --jobs "$NPROC" | tee "$TMP/$tag-jobsN.txt"
    diff -u "$TMP/$tag-jobs1.txt" "$TMP/$tag-jobsN.txt"
    for o in ${outs[@]+"${outs[@]}"}; do
        diff -r "$TMP/$tag-jobs1-$(basename "$o")" "results/$o"
    done
}

# Results freshness lock: the full figure sweep is byte-deterministic
# (across runs and --jobs widths — every grid runs on the pool, so both
# are checked) and takes well under a minute, so the checked-in results/
# must be exactly what the binary writes. A PR that moves a number
# regenerates the files with `tamp-exp all --seed 2005 >
# results/full_run.txt`.
job_experiments() {
    build
    local csvs=(fig2 analysis fig11 fig12 fig13 fig14 ablation_group_size
        ablation_loss ablation_scale ablation_leader ablation_piggyback
        ablation_topology ablation_detector ablation_suspicion baselines_grid)
    same_at_any_width all "${csvs[@]/%/.csv}" -- all --seed 2005
    cp "$TMP/all-jobsN.txt" results/full_run.txt
    git diff --exit-code -- results/
}

# A9 scale smoke: the 1000-node warm-start run must hold the §4 model
# envelope (enforced by the binary's exit code) inside a hard wall-clock
# budget, and a same-seed rerun must be byte-identical (wall-clock
# column aside). One 10 000-node run must also stay under a memory
# ceiling: every warm-started holder shares its directory's key pages
# with the other holders of its segment, and a change that un-shares
# them shows here first. CEILING_MB is the measured peak of that run
# (192 MB on a 2-core host) plus 20 %. The n = 1000 rerun must also
# match the checked-in results/scale.csv (freshness lock), so the job
# keeps a copy of it before the first run overwrites it.
job_scale() {
    build
    cut -d, -f1-10 results/scale.csv > "$TMP/scale-checked-in.csv"
    python3 - <<'EOF'
import resource, subprocess, sys
CEILING_MB = 231
run = subprocess.run(["./target/release/tamp-exp", "scale", "--nodes", "10000",
                      "--seed", "2005", "--jobs", "1"], timeout=300)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"scale --nodes 10000: peak RSS {peak_mb:.0f} MB, ceiling {CEILING_MB} MB")
sys.exit(run.returncode or int(peak_mb > CEILING_MB))
EOF
    timeout 120 ./target/release/tamp-exp scale --nodes 1000 --seed 2005
    cut -d, -f1-10 results/scale.csv > "$TMP/scale-run1.csv"
    timeout 120 ./target/release/tamp-exp scale --nodes 1000 --seed 2005
    cut -d, -f1-10 results/scale.csv | diff -u "$TMP/scale-run1.csv" -
    diff -u "$TMP/scale-checked-in.csv" "$TMP/scale-run1.csv"
}

# Sharded-engine smoke: the same simulation run sequentially and split
# across topology shards must export byte-identical measurements at any
# worker-pool width (crates/netsim/tests/differential_shard.rs).
job_shard() {
    build
    timeout 120 ./target/release/tamp-exp scale --nodes 1000 --seed 2005 --shards 1 --jobs 1
    cut -d, -f1-10 results/scale.csv > "$TMP/scale-seq.csv"
    timeout 120 ./target/release/tamp-exp scale --nodes 1000 --seed 2005 --shards 4 --jobs "$NPROC"
    cut -d, -f1-10 results/scale.csv | diff -u "$TMP/scale-seq.csv" -
    exp chaos --seed 7 --strict --shards 1 > "$TMP/chaos-seq.txt"
    exp chaos --seed 7 --strict --shards 4 > "$TMP/chaos-sharded.txt"
    diff -u "$TMP/chaos-seq.txt" "$TMP/chaos-sharded.txt"
    exp load --quick --users 4000 --datacenters 2 --shards 1 --jobs 1
    cp results/load/slo.csv "$TMP/slo-seq.csv"
    cp results/load/timeline.csv "$TMP/timeline-seq.csv"
    exp load --quick --users 4000 --datacenters 2 --shards 4 --jobs "$NPROC"
    diff -u "$TMP/slo-seq.csv" results/load/slo.csv
    diff -u "$TMP/timeline-seq.csv" results/load/timeline.csv
}

# Bounded chaos smoke: fixed seed set on the small two-segment topology,
# a lax two-datacenter proxy sweep at both pool widths, plus the oracle
# bite check (MAX_LOSS=0 must fail with a shrunk repro).
job_chaos() {
    build
    exp chaos --seed 0 --sweep 20
    exp chaos --seed 3 --proxy
    same_at_any_width proxy -- chaos --proxy --seed 0 --sweep 10
    if exp chaos --seed 1 --sweep 3 --broken; then
        echo "broken config unexpectedly passed the oracle" >&2
        return 1
    fi
}

# Telemetry smoke: same-seed exports are byte-identical, then schema
# spot checks (docs/OBSERVABILITY.md).
job_telemetry() {
    build
    exp metrics --quick --seed 2005
    rm -rf "$TMP/telemetry-run1"
    mv results/telemetry "$TMP/telemetry-run1"
    exp metrics --quick --seed 2005
    diff -r "$TMP/telemetry-run1" results/telemetry
    # Freshness: the checked-in exports are what the binary writes.
    git diff --exit-code -- results/telemetry
    local jsonl=results/telemetry/metrics-n20-seed2005.events.jsonl
    local csv=results/telemetry/metrics-n20-seed2005.metrics.csv
    test -s "$jsonl" && test -s "$csv"
    head -1 "$csv" | grep -qx 'subsystem,name,node,kind,value,count,sum,p50,p90,p99,max'
    grep -q '^{"t":[0-9]*,"type":"' "$jsonl"
    grep -q '^net,sent_bytes.heartbeat,cluster,counter,' "$csv"
    grep -q '^membership,heartbeats_sent,' "$csv"
    grep -q '^harness,detection_ns,cluster,histogram,' "$csv"
}

# Strict-oracle smoke: no loss or repair-window excuses, removals must
# follow the suspicion state machine (docs/ROBUSTNESS.md). The
# checked-in regression scenarios plus seeded sweeps (2000..2049, and
# the two-datacenter proxy sweep 2005..2024).
job_chaos_strict() {
    build
    for f in scenarios/*.chaos; do
        exp chaos --scenario "$f" --strict
    done
    same_at_any_width sweep -- chaos --strict --seed 2000 --sweep 50
    same_at_any_width proxy -- chaos --strict --proxy --seed 2005 --sweep 20
}

# Adversarial fault-class smoke: gray-partition / rack-fail / churn-storm
# / clock-skew / router-reform generator and the A10 grid, under the
# strict oracle on the ring topology (docs/CHAOS.md). The quick grid is
# what results/adversarial_grid.csv holds (freshness lock).
job_chaos_adversarial() {
    build
    exp chaos --scenario scenarios/router-reform.chaos --strict
    same_at_any_width adv -- chaos --adversarial --strict --seed 3000 --sweep 30
    same_at_any_width grid -- adversarial --quick
    git diff --exit-code -- results/adversarial_grid.csv
}

# Load smoke: a short closed-loop run plus one chaos-under-load campaign
# (docs/LOAD.md), the results/load/ exports included, then the
# SLO-regression gate against ci/slo-goldens.csv (re-pinned with
# `tamp-exp slo-gate --update` in the PR that explains a shift).
job_load() {
    build
    # results/load is checked in with the campaign's exports too; the
    # same-seed comparison is over what this command writes.
    rm -rf results/load
    exp load --quick --users 20000 --datacenters 2 | tee "$TMP/load-run1.txt"
    rm -rf "$TMP/load-run1"
    mv results/load "$TMP/load-run1"
    exp load --quick --users 20000 --datacenters 2 | tee "$TMP/load-run2.txt"
    diff -u "$TMP/load-run1.txt" "$TMP/load-run2.txt"
    diff -r "$TMP/load-run1" results/load
    head -1 results/load/slo.csv | grep -qx 'partition,count,p50_ns,p95_ns,p99_ns,p999_ns'
    head -1 results/load/timeline.csv | grep -qx 'second,completed,failed,p99_ns'
    grep -q '^doc00,' results/load/slo.csv
    exp metrics --quick | tee "$TMP/metrics.txt"
    grep -q 'request SLO' "$TMP/metrics.txt"
    rm -rf results/load
    same_at_any_width campaign load -- load --quick --users 8000 --datacenters 2 --campaign
    # The checked-in results/load/ is what this command writes.
    git diff --exit-code -- results/load
    for fault in leader-death proxy-failover wan-partition; do
        grep -q "^$fault," results/load/campaign.csv
    done
    grep -q '^proxied,' results/load/slo.csv
    grep -q '^direct,' results/load/slo.csv
    exp slo-gate --jobs "$NPROC"
}

# Baselines smoke: the A11 five-protocol grid in quick mode, plus the
# new protocol columns through the strict oracle (docs/BASELINES.md).
job_baselines() {
    build
    same_at_any_width baselines baselines_grid.csv -- baselines --quick
    for p in alltoall gossip tamp swim tamp-rapid; do
        grep -q "^$p," results/baselines_grid.csv
    done
    exp chaos --strict --seed 4 --protocol swim
    exp chaos --strict --seed 4 --protocol tamp-rapid
}

# Wire-codec fuzz smoke: the proptest fuzz/differential layer that locks
# the zero-copy receive path, then — at pool width 1 and N, since the
# decoder's payload table is per thread — the payload-sharing tests
# (the table's own unit test, and `tests/intern.rs` on warm tables) and
# the in-memory vs wire-codec engine differential (which includes the
# 2-shard × wire-codec and the killed-in-flight cases).
job_wire_fuzz() {
    PROPTEST_CASES=512 cargo test --release -p tamp-wire --test fuzz_codec
    for jobs in 1 "$NPROC"; do
        TAMP_JOBS=$jobs PROPTEST_CASES=512 cargo test --release -p tamp-wire --lib --test intern
        TAMP_JOBS=$jobs cargo test --release --test differential_codec
    done
}

# Perf-ledger smoke: contract tests, then all five workloads at their
# smallest size with every output check (no timing is judged).
job_benchmark() {
    (cd benchmark && cargo test --release --offline)
    benchmark/run.sh --smoke
}

JOBS="experiments scale shard chaos telemetry chaos-strict chaos-adversarial load baselines wire-fuzz benchmark"

job=${1:-}
job=${job%-smoke} # the workflow's job names work too
case "$job" in
all)
    # `experiments` goes first: the later jobs leave their --quick
    # exports in results/ (`git checkout -- results` puts them back).
    red=()
    for j in $JOBS; do
        echo "=== $j"
        if ! ("$0" "$j"); then red+=("$j"); fi
    done
    echo "red: ${red[*]:-none}"
    [ ${#red[@]} -eq 0 ]
    ;;
experiments | scale | shard | chaos | telemetry | chaos-strict | chaos-adversarial | load | baselines | wire-fuzz | benchmark)
    "job_${job//-/_}"
    ;;
*)
    echo "usage: $0 <$(echo "$JOBS" | tr ' ' '|')|all>" >&2
    exit 2
    ;;
esac
