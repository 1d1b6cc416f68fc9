//! Records `BENCH_partition.json` at the repository root and checks every
//! perf-smoke gate on the values it measured; exits nonzero when a gate
//! fails. See [`systolic_bench::record`].
//!
//! Usage: `cargo run --release -p systolic-bench --bin bench_record`
//! (or `scripts/bench_smoke.sh`).

use std::path::Path;
use std::process::ExitCode;
use systolic_bench::record::{self, GATES};

fn main() -> ExitCode {
    let out = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_partition.json"
    ));
    let r = record::run();
    record::write(out, &r.to_json()).expect("write BENCH_partition.json");
    println!("bench_record: wrote BENCH_partition.json");
    let mut passed = true;
    for g in &GATES {
        let v = (g.measure)(&r);
        let pass = g.bound.admits(v);
        passed &= pass;
        let verdict = if pass { "pass" } else { "FAIL" };
        let shown = v.map_or("missing".to_string(), |v| format!("{v:.4}"));
        println!(
            "bench_record: {verdict} {} = {shown} ({:?})",
            g.key, g.bound
        );
    }
    if passed {
        println!("bench_record: gates passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
