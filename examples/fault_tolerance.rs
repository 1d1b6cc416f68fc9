//! §5's fault-tolerance argument, measured: a linear partitioned array
//! degrades gracefully under cell failures (bypass reconfiguration keeps
//! `m - f` cells productive), while a 2-D mesh without per-cell routing
//! muxes retires a whole row and column per fault.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use systolic::closure::gnp;
use systolic::partition::{
    grid_fault_capacity, linear_fault_capacity, ClosureEngine, LinearEngine,
};
use systolic_semiring::{warshall, Bool};

fn main() {
    let n = 16;
    let m = 8;
    let a = gnp(n, 0.2, 99).adjacency_matrix();
    let want = warshall(&a);

    let (_, healthy) = ClosureEngine::<Bool>::closure(&LinearEngine::new(m), &a).unwrap();
    println!("healthy linear array: m = {m}, {} cycles\n", healthy.cycles);

    println!("| faults | healthy cells | cycles | slowdown | ideal m/(m-f) | result |");
    println!("|-------:|--------------:|-------:|---------:|--------------:|--------|");
    for faults in 1..=4usize {
        let fault_set: Vec<usize> = (0..faults).map(|i| 2 * i + 1).collect();
        let eng = LinearEngine::bypassing(m, &fault_set).unwrap();
        let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        let ok = got == want;
        println!(
            "| {faults:>6} | {:>13} | {:>6} | {:>8.3} | {:>13.3} | {} |",
            stats.cells,
            stats.cycles,
            stats.cycles as f64 / healthy.cycles as f64,
            m as f64 / (m - faults) as f64,
            if ok { "exact ✓" } else { "WRONG" }
        );
        assert!(ok);
    }

    println!("\nremaining computational capacity after worst-case faults (§5):");
    println!("| faults | linear (m = 16) | 2-D mesh (4×4) |");
    println!("|-------:|----------------:|---------------:|");
    for f in 0..=4usize {
        println!(
            "| {f:>6} | {:>15.3} | {:>14.3} |",
            linear_fault_capacity(16, f),
            grid_fault_capacity(4, f)
        );
    }
    println!(
        "\nthe linear array loses one cell per fault; the mesh loses a row and a column —\n\
         the quantitative form of the paper's §5 conclusion."
    );
}
