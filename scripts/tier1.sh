#!/usr/bin/env bash
# Tier-1 gate: the offline build-and-test cycle every change must pass.
#
# Works with no network access — proptest resolves to the shim
# vendored under vendor/ (see DESIGN.md §3).
#
# Usage: scripts/tier1.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== tier-1: fault-injection smoke (strict) =="
# Every fault class must be detected under AOS, missed by Baseline,
# with zero false positives, and the static lint cross-check must be
# consistent — nonzero exit otherwise.
cargo run -q --release -p aos-cli -- faults --seeds 2 --strict true

echo "== tier-1: static protocol lint smoke (strict) =="
# A clean generated trace must carry zero protocol findings.
cargo run -q --release -p aos-cli -- lint >/dev/null

echo "== tier-1: cross-policy detection matrix smoke =="
# The clean row of the policy x fault-kind matrix must stay silent
# under every static policy (AOS, CryptSan, PACSan, PACTight) —
# nonzero exit on any clean-trace false positive.
cargo run -q --release -p aos-cli -- matrix --scale 0.01 --seeds 1 >/dev/null

echo "== tier-1: adversarial differential fuzz smoke (fixed seed) =="
# A fixed-seed, fixed-budget campaign must run finding-free (exit 0):
# every generated attack chain lands exactly on the pinned
# static/dynamic split. The checked-in golden corpus must replay with
# bit-stable verdicts through both oracles.
cargo run -q --release -p aos-cli -- fuzz --seed 7 --budget 4 >/dev/null
cargo run -q --release -p aos-cli -- fuzz \
    --replay-corpus tests/golden/fuzz/composites.aosc >/dev/null

echo "== tier-1: corpus record -> replay -> verify round-trip =="
# Record a cell, replay it (exit 0 = CRC-clean and bit-identical
# machinery engaged), replay the same ops on a Baseline machine,
# verify the whole file.
corpus_file="${TMPDIR:-/tmp}/aos_tier1_corpus.aosc"
rm -f "$corpus_file"
cargo run -q --release -p aos-cli -- corpus record \
    --out "$corpus_file" --workloads mcf --systems aos --scale 0.004 >/dev/null
cargo run -q --release -p aos-cli -- corpus replay \
    "$corpus_file" --entry mcf-aos >/dev/null
cargo run -q --release -p aos-cli -- corpus replay \
    "$corpus_file" --entry mcf-aos --system baseline >/dev/null
cargo run -q --release -p aos-cli -- corpus verify "$corpus_file" >/dev/null
rm -f "$corpus_file"

echo "== tier-1: MCU geometry sweep smoke =="
# A small benign window must finish cleanly on every sweep point
# (exit 0 = zero violations).
cargo run -q --release -p aos-cli -- ablate \
    --scale 0.002 --mcq 24,48 --bwb 64 >/dev/null

echo "== tier-1: closed-pipe smoke =="
# A reader that exits early closes aos's stdout (or stderr) under it;
# aos must still end with its own code — 0, or 2 for a usage error —
# never a panic's 101. pipefail would fail the pipe on the expected 2,
# so each status is read from PIPESTATUS with errexit off.
cargo build -q --release -p aos-cli
aos_bin="${CARGO_TARGET_DIR:-target}/release/aos"
closed_pipe_status() {
    local status
    set +e
    "$aos_bin" "$@" 2>&1 | head -1 >/dev/null
    status=${PIPESTATUS[0]}
    set -e
    echo "$status"
}
for invocation in "workloads" "run mcf --json --scale 0.01"; do
    # shellcheck disable=SC2086 # split the invocation into arguments
    status=$(closed_pipe_status $invocation)
    if [ "$status" = 101 ]; then
        echo "aos $invocation | head -1 panicked (exit 101)" >&2
        exit 1
    fi
done

# Hardened crates must not grow new unwrap() on input-reachable paths,
# the streaming pipeline must not regress into collect-then-iterate
# (needless_collect re-materializes traces the refactor made lazy),
# library crates must not print to stdout — user-facing output belongs
# to the CLI binary, which is exempt from the gate by not being in the
# crate list — and every unsafe block or impl must carry
# a `// SAFETY:` comment stating its soundness argument.
# The gate is advisory when clippy is not installed (offline image).
if command -v cargo-clippy >/dev/null 2>&1; then
    echo "== tier-1: clippy unwrap + needless-collect + print-stdout + undocumented-unsafe gate (library crates) =="
    for crate in aos-util aos-heap aos-mcu aos-hbt aos-isa aos-sim aos-core aos-fault aos-lint aos-fuzz; do
        cargo clippy -q -p "$crate" --no-deps -- \
            -D clippy::unwrap_used -D clippy::needless_collect \
            -D clippy::print_stdout \
            -D clippy::undocumented_unsafe_blocks
    done
else
    echo "== tier-1: clippy not installed, skipping lint gates =="
fi

# Coverage is report-only (a soft floor, never a hard failure): when
# cargo-llvm-cov is installed the line rate is printed so reviewers
# can watch the trend; the offline image without it skips cleanly.
if command -v cargo-llvm-cov >/dev/null 2>&1; then
    echo "== tier-1: coverage report (soft floor ${AOS_COVERAGE_FLOOR:-70}%, report-only) =="
    cargo llvm-cov --workspace --summary-only || \
        echo "coverage run failed (report-only, not fatal)"
else
    echo "== tier-1: cargo-llvm-cov not installed, skipping coverage report =="
fi

echo "tier-1 OK"
