#!/usr/bin/env bash
# Perf smoke: records BENCH_partition.json and checks its gates (crates/bench/src/record.rs).
cd "$(dirname "$0")/.." && exec cargo run --release -q -p systolic-bench --bin bench_record
