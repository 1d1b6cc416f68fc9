#!/usr/bin/env bash
# Full repo gate: build, lint, format, test. Run before every commit.
# Clippy and fmt run ahead of the test suite (and the bench smoke) so
# formatting drift and lint regressions fail in seconds, not minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace --all-targets
# Examples that assert their own results (milliseconds, no files written).
for ex in quickstart transformation_pipeline fault_tolerance network_routing program_analysis; do
    "target/release/examples/$ex" > /dev/null
done
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo test -q --workspace

# The widened data plane's equivalence suites, named explicitly so a
# failure points straight at the plane that diverged (they also run
# as part of the workspace suite above). proptest_sparse pins the sparse
# CSR pipeline to the dense oracle and the tiled bridge to the untiled
# closure. elimination and proptest_mappings pin every mapping's one plan
# builder: LU/Faddeev bit-exactness and closure cross-mapping equality.
# ready_dense pins the simulator's event-driven ready loop to the dense
# every-cycle loop (outputs and RunStats) on compiled closure and
# elimination plans, multi-cycle durations included. failure_injection
# pins fault injection, recovery and the bypass-degraded array (one
# LPGS mapping over the healthy cells); proptest_packed pins the lane
# plane to the scalar engine, on a degraded array too.
cargo test -q --test proptest_lanes --test proptest_swar --test proptest_laws \
    --test proptest_sparse --test proptest_durations --test elimination \
    --test ready_dense --test proptest_mappings --test failure_injection \
    --test proptest_packed

# The repo benchmark (perfbench/, its own workspace) links systolic-bench
# and systolic-util by path; build it so an API change there fails here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# Perf smoke (non-gating: wall-clock numbers are machine-dependent).
./scripts/bench_smoke.sh || echo "check.sh: bench_smoke failed (non-gating)"

echo "check.sh: all gates passed"
