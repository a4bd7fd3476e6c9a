#!/usr/bin/env sh
# Tier-1 verification: the whole workspace must build and test fully
# offline against the committed Cargo.lock (the build is hermetic — see
# DESIGN.md §5). The in-tree lpmem-lint gate always runs (it needs nothing
# beyond cargo itself); fmt and clippy run strictly when installed.
set -eu

cd "$(dirname "$0")/.."

# Every BENCH_*.json shares one envelope (`lpmem_bench::cli::write_bench`):
# {"schema":"lpmem-bench-v2","bench":…,"counters":{…},"timings":{…},
# "rows":[{"counters":{…},"timings":{…}},…]}. The counters are a pure
# function of the bench's inputs; the timings, worker count included, are
# not.
bench_schema() {
    if ! grep -q '^{"schema":"lpmem-bench-v2","bench":"[a-z-]*","counters":{' "$1"; then
        echo "$1: not an lpmem-bench-v2 report"
        exit 1
    fi
}

# A fresh run ($2) must reproduce every counters object of the committed
# report ($1), top level and rows, in order and byte for byte.
same_counters() {
    bench_schema "$1"
    bench_schema "$2"
    grep -o '"counters":{[^}]*}' "$1" >target/counters_committed.txt
    grep -o '"counters":{[^}]*}' "$2" >target/counters_fresh.txt
    if ! cmp -s target/counters_committed.txt target/counters_fresh.txt; then
        echo "counters drifted: $2 does not reproduce the committed $1"
        diff target/counters_committed.txt target/counters_fresh.txt || true
        exit 1
    fi
}

echo "==> cargo build --release --locked --offline"
cargo build --release --locked --offline

echo "==> cargo check --all-features (no feature may fail to build)"
cargo check --workspace --all-targets --all-features --locked --offline

echo "==> cargo check lpbench --locked (the benchmark builds against the in-tree crates)"
# lpbench is a workspace of its own, and its committed Cargo.lock lists
# each in-tree crate's dependencies: a deleted public name that lpbench
# binds, or a changed dependency edge between workspace crates, breaks
# only the benchmark and none of the workspace's own builds and tests.
CARGO_TARGET_DIR=target/lpbench-check \
    cargo check --manifest-path lpbench/Cargo.toml --locked --offline --all-targets

echo "==> cargo test -q --locked --offline --workspace"
cargo test -q --locked --offline --workspace

echo "==> repro golden: every table's stdout is byte-identical to the committed transcript"
# repro prints no timings, so its whole stdout is deterministic; a change
# that moves any reproduced number must regenerate the golden on purpose:
#   cargo run --release -p lpmem-bench --bin repro > crates/bench/tests/golden/repro.txt
# The same run also gates the reproduction's shape: every table checks the
# named claims of its EXPERIMENTS.md Shape, and repro exits 1 naming each
# one that fails (`repro: claim failed: F4a: ...`), which stops this script.
mkdir -p target
cargo run --release --locked --offline -p lpmem-bench --bin repro >target/repro.txt
cmp target/repro.txt crates/bench/tests/golden/repro.txt

echo "==> sweep smoke (quick grid, 4 workers)"
LPMEM_SWEEP_THREADS=4 \
    cargo run --release --locked --offline -p lpmem-bench --bin sweep -- \
    --quick --jsonl /dev/null

echo "==> explore smoke (small space, exhaustive, fixed seed)"
cargo run --release --locked --offline -p lpmem-bench --bin explore -- \
    --axes small --strategy exhaustive --budget 32 --seed 2003 \
    --threads 2 --jsonl /dev/null

echo "==> explore smoke: evolutionary worker byte-identity on full and cmp (DESIGN.md §8)"
# Frontier JSONL must be byte-identical at any worker count. The full-space
# search at budget 8192 takes most of its offspring from the
# enumeration-order fallback; with O(budget) bookkeeping it runs in well
# under a second.
cargo run --release --locked --offline -p lpmem-bench --bin explore -- \
    --axes full --strategy evolutionary --budget 8192 --seed 3 \
    --threads 1 --jsonl target/explore_full_t1.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin explore -- \
    --axes full --strategy evolutionary --budget 8192 --seed 3 \
    --threads 2 --jsonl target/explore_full_t2.jsonl
cmp target/explore_full_t1.jsonl target/explore_full_t2.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin explore -- \
    --axes cmp --strategy evolutionary --budget 256 --seed 7 \
    --threads 1 --jsonl target/explore_cmp_t1.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin explore -- \
    --axes cmp --strategy evolutionary --budget 256 --seed 7 \
    --threads 2 --jsonl target/explore_cmp_t2.jsonl
cmp target/explore_cmp_t1.jsonl target/explore_cmp_t2.jsonl

echo "==> explore golden: single-core pricing over the whole full space (DESIGN.md §8)"
# Exhausting the 20,736-point full space takes well under a second; its
# frontier must match the committed JSONL byte for byte, so a change that
# moves a single-core price (a codec, a bus, a partition) stops here.
# Regenerate it on purpose after a model change:
#   explore --axes full --strategy exhaustive --budget 20736 \
#       --jsonl crates/bench/tests/golden/explore_full.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin explore -- \
    --axes full --strategy exhaustive --budget 20736 \
    --jsonl target/explore_full_exhaustive.jsonl
cmp target/explore_full_exhaustive.jsonl crates/bench/tests/golden/explore_full.jsonl

echo "==> explore smoke: fault-scored worker byte-identity (DESIGN.md §8, §12)"
# Under a fault spec the workers share the evaluator's campaign table too;
# the frontier JSONL must still be byte-identical at any worker count.
cargo run --release --locked --offline -p lpmem-bench --bin explore -- \
    --axes full --strategy evolutionary --budget 4096 --seed 5 \
    --faults secded --threads 1 --jsonl target/explore_fault_t1.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin explore -- \
    --axes full --strategy evolutionary --budget 4096 --seed 5 \
    --faults secded --threads 2 --jsonl target/explore_fault_t2.jsonl
cmp target/explore_fault_t1.jsonl target/explore_fault_t2.jsonl

echo "==> isa backend differential smoke + speedup gate (DESIGN.md §10)"
# Byte-identical traces on every kernel is a hard gate; the >=5x speedup
# check self-skips on single-CPU machines (or LPMEM_SKIP_TIMING_GATE=1),
# where wall-clock ratios are meaningless. Quick sampling times less than
# the full run behind the committed BENCH_isa.json, but its counters
# (kernel, scale, instret) must equal the committed ones.
mkdir -p target
cargo run --release --locked --offline -p lpmem-bench --bin isa-bench -- \
    --quick --json target/BENCH_isa_smoke.json --check-speedup 5
same_counters BENCH_isa.json target/BENCH_isa_smoke.json

echo "==> fleet smoke: worker byte-identity + bounded-memory gate (DESIGN.md §11)"
# The fleet path streams every device through the online statistics, so
# peak RSS is bounded by per-device footprint, not fleet size:
# materializing this smoke's event stream (20000 devices x 1024 events
# x 16 B/event) would need ~320 MiB and blow the 128 MiB gate. The JSONL
# body must be byte-identical at any worker count.
cargo run --release --locked --offline -p lpmem-bench --bin fleet -- \
    --devices 20000 --events 1024 --threads 1 --jsonl target/fleet_t1.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin fleet -- \
    --devices 20000 --events 1024 --threads 2 --jsonl target/fleet_t2.jsonl \
    --assert-peak-rss-mb 128
cmp target/fleet_t1.jsonl target/fleet_t2.jsonl

echo "==> fault campaign smoke: worker byte-identity + zero-fault equivalence (DESIGN.md §12)"
# Campaign reports draw every flip from logical coordinates, so the
# fault-mode JSONL must be byte-identical at any worker count; and a
# disabled FaultSpec must reproduce the plain fleet bytes exactly (the
# reliability layer costs nothing when off).
cargo run --release --locked --offline -p lpmem-bench --bin fleet -- \
    --devices 2000 --faults secded --tech t90 --threads 1 \
    --jsonl target/fault_t1.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin fleet -- \
    --devices 2000 --faults secded --tech t90 --threads 2 \
    --jsonl target/fault_t2.jsonl
cmp target/fault_t1.jsonl target/fault_t2.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin fleet -- \
    --devices 2000 --faults off --threads 2 --jsonl target/fault_off.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin fleet -- \
    --devices 2000 --threads 2 --jsonl target/fault_plain.jsonl
cmp target/fault_off.jsonl target/fault_plain.jsonl

echo "==> fault campaign counter gate: counters match BENCH_fault.json (DESIGN.md §12)"
# The campaign's counters (outcome counts, class statistics) are
# deterministic at any worker count, so a fresh 100k-device run (about
# 2.5 s at 2 workers) must reproduce the committed ones exactly.
# Regenerate the file on purpose after a model change:
#   fleet --devices 100000 --faults secded --tech t90 --threads 1 \
#       --bench-json BENCH_fault.json
cargo run --release --locked --offline -p lpmem-bench --bin fleet -- \
    --devices 100000 --faults secded --tech t90 --threads 2 \
    --bench-json target/BENCH_fault_smoke.json >/dev/null
same_counters BENCH_fault.json target/BENCH_fault_smoke.json

echo "==> cmp smoke: worker byte-identity + zero-CMP equivalence (DESIGN.md §13)"
# CMP scenarios draw every core seed and fault flip from logical
# coordinates, so the --cmp JSONL must be byte-identical at any worker
# count; and a disabled CmpSpec must reproduce the plain sweep bytes
# exactly (the scenario layer costs nothing when off).
cargo run --release --locked --offline -p lpmem-bench --bin sweep -- \
    --quick --threads 1 --flows system --kernels fir --techs t180,t90 \
    --variants default --cmp c4b8x32w4-zrun-t180+t90-p600 \
    --jsonl target/cmp_t1.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin sweep -- \
    --quick --threads 2 --flows system --kernels fir --techs t180,t90 \
    --variants default --cmp c4b8x32w4-zrun-t180+t90-p600 \
    --jsonl target/cmp_t2.jsonl
cmp target/cmp_t1.jsonl target/cmp_t2.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin sweep -- \
    --quick --threads 2 --flows system --kernels fir --techs t180,t90 \
    --variants default --cmp off --jsonl target/cmp_off.jsonl
cargo run --release --locked --offline -p lpmem-bench --bin sweep -- \
    --quick --threads 2 --flows system --kernels fir --techs t180,t90 \
    --variants default --jsonl target/cmp_plain.jsonl
cmp target/cmp_off.jsonl target/cmp_plain.jsonl

echo "==> invalid cmp spec smoke: rejected before any task runs (exit 2, no panic)"
# `c4b0x32w4-zrun` and `c4b0x32w4` parse but describe an LLC with no
# banks, compressed or not. The sweep must refuse each up front with a
# usage error (exit 2) instead of panicking inside a task.
for spec in c4b0x32w4-zrun c4b0x32w4; do
    set +e
    cargo run --release --locked --offline -p lpmem-bench --bin sweep -- \
        --quick --flows system --kernels fir --techs t180 --variants default \
        --cmp "$spec" --jsonl /dev/null 2>target/cmp_invalid.err
    status=$?
    set -e
    if [ "$status" -ne 2 ] || grep -q panicked target/cmp_invalid.err; then
        echo "--cmp $spec: expected exit 2 without a panic, got exit $status:"
        cat target/cmp_invalid.err
        exit 1
    fi
done

echo "==> cmp-bench quick run: counters match BENCH_cmp.json (DESIGN.md §13)"
# Quick sampling times less than the full run behind the committed
# BENCH_cmp.json, but every cell's counters (spec, energies, LLC counts)
# are a pure function of the spec and must equal the committed ones.
cargo run --release --locked --offline -p lpmem-bench --bin cmp-bench -- \
    --quick --json target/BENCH_cmp_smoke.json
same_counters BENCH_cmp.json target/BENCH_cmp_smoke.json

echo "==> pool panic-isolation gate (DESIGN.md §12)"
# A panicking task must yield a deterministic per-task error record, not
# kill the harness: the sweep test injects one panic and checks its
# `panic: <msg>` row, the untouched rows and the error count at 1, 2 and
# 8 workers.
cargo test -q --locked --offline -p lpmem-util --lib pool
cargo test -q --locked --offline -p lpmem-bench --lib \
    sweep::tests::a_panicking_task_becomes_one_error_row -- --exact

echo "==> fleet bench report (self-skips on single-CPU hosts, like isa-bench)"
# Quick throughput emission: the committed BENCH_fleet.json comes from a
# full 1M-device run (about 20 s at 2 workers), so only its schema is
# checked here, not its counters.
bench_schema BENCH_fleet.json
if [ "$(nproc 2>/dev/null || echo 1)" -gt 1 ] && [ -z "${LPMEM_SKIP_TIMING_GATE:-}" ]; then
    cargo run --release --locked --offline -p lpmem-bench --bin fleet -- \
        --devices 100000 --bench-json target/BENCH_fleet_smoke.json
    bench_schema target/BENCH_fleet_smoke.json
else
    echo "    skipped (single CPU or LPMEM_SKIP_TIMING_GATE); committed BENCH_fleet.json stands"
fi

echo "==> lpmem-lint --deny (determinism/accounting invariants, DESIGN.md §9, §14)"
# The bench record doubles as a smoke test of the semantic phase: a full
# workspace analysis (AST + call graph + taint fixpoint) must finish and
# report its counters. The committed BENCH_lint.json comes from the same
# command on the tree pinned at b900095 (lpbench's lint_pinned corpus);
# the current tree differs, so only the schema is checked.
cargo run --release --locked --offline -p lpmem-lint --bin lint -- \
    --deny --bench-json target/BENCH_lint_smoke.json
bench_schema BENCH_lint.json
bench_schema target/BENCH_lint_smoke.json

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "==> cargo fmt not installed; skipping format gate"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --all-targets --all-features --locked --offline -- -D warnings"
    cargo clippy --workspace --all-targets --all-features --locked --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint gate"
fi

echo "verify: OK"
