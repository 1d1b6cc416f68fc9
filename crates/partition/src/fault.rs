//! Fault tolerance (§5): *"linear arrays are more advantageous than
//! two-dimensional ones because they are better suited to incorporate
//! fault-tolerant capabilities."*
//!
//! This module makes that claim measurable:
//!
//! * [`LinearEngine::bypassing`](crate::LinearEngine::bypassing) — a
//!   linear partitioned array with a set of failed cells, reconfigured by
//!   the classical bypass scheme: each faulty cell's pivot-chain register
//!   is switched to a pass-through, so the `f` healthy cells form a working
//!   linear array whose inter-cell links have one extra cycle of latency
//!   per bypassed neighbor — the same [`LpgsMapping`](crate::LpgsMapping)
//!   over the healthy cells. It still computes exact closures; throughput
//!   degrades gracefully by `(m-f)/m` (work is redistributed), which
//!   experiment E19 measures.
//! * [`grid_fault_capacity`] — the matching 2-D story: without per-cell
//!   routing muxes, reconfiguring a `√m × √m` mesh around a fault requires
//!   retiring the fault's whole row and column (the standard spare-row/
//!   column argument), so `f` worst-case faults leave `(√m - f)²` usable
//!   cells — a much steeper loss than the linear array's `m - f`.

/// Usable computational capacity of a `side × side` mesh after `faults`
/// worst-case cell failures, under spare-row/column reconfiguration: each
/// fault retires one row and one column.
pub fn grid_fault_capacity(side: usize, faults: usize) -> f64 {
    if faults >= side {
        return 0.0;
    }
    let left = side - faults;
    (left * left) as f64 / (side * side) as f64
}

/// Usable capacity of a linear array after `faults` failures with bypass
/// reconfiguration.
pub fn linear_fault_capacity(m: usize, faults: usize) -> f64 {
    if faults >= m {
        return 0.0;
    }
    (m - faults) as f64 / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClosureEngine;
    use crate::linear::LinearEngine;
    use systolic_semiring::{warshall, Bool, DenseMatrix};

    fn bool_adj(n: usize, edges: &[(usize, usize)]) -> DenseMatrix<Bool> {
        let mut a = DenseMatrix::<Bool>::zeros(n, n);
        for &(i, j) in edges {
            a.set(i, j, true);
        }
        a
    }

    #[test]
    fn degraded_array_still_computes_exact_closures() {
        let a = bool_adj(7, &[(0, 3), (3, 6), (6, 1), (1, 5), (5, 0), (2, 4)]);
        let want = warshall(&a);
        for faults in [vec![1], vec![0, 3], vec![2, 3, 4]] {
            let eng = LinearEngine::bypassing(5, &faults).unwrap();
            let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
            assert_eq!(got, want, "faults {faults:?}");
            assert_eq!(stats.cells, 5 - faults.len());
            assert_eq!(
                ClosureEngine::<Bool>::name(&eng),
                "linear-partitioned-degraded"
            );
        }
    }

    #[test]
    fn bypass_delays_reflect_gap_sizes() {
        let a = bool_adj(9, &[(0, 8), (8, 3), (3, 6), (6, 1), (2, 7), (7, 2)]);
        let run = |eng: &LinearEngine| ClosureEngine::<Bool>::closure(eng, &a).unwrap().1;
        // healthy = [0,1,4,5]: gaps 1, 3, 1.
        let eng = LinearEngine::bypassing(6, &[2, 3]).unwrap();
        assert_eq!(ClosureEngine::<Bool>::cells(&eng), 4);
        assert_eq!(eng.mapping().faults(), vec![2, 3]);
        let physical: Vec<_> = (0..5).map(|c| eng.mapping().physical_cell(c)).collect();
        assert_eq!(physical, [Some(0), Some(1), Some(4), Some(5), None]);
        // Only the gaps shape the schedule: healthy = [1,2,5,6] has the
        // same gaps and runs identically, while the unit-gap chain of four
        // healthy cells runs differently.
        let same_gaps = LinearEngine::bypassing(7, &[0, 3, 4]).unwrap();
        assert_eq!(run(&eng), run(&same_gaps));
        assert_ne!(run(&LinearEngine::new(4)), run(&eng));
    }

    #[test]
    fn throughput_degrades_gracefully_not_catastrophically() {
        let a = bool_adj(12, &[(0, 11), (11, 5), (5, 9), (9, 2), (2, 7), (7, 0)]);
        let healthy = LinearEngine::new(4);
        let (_, h) = ClosureEngine::<Bool>::closure(&healthy, &a).unwrap();
        let degraded = LinearEngine::bypassing(4, &[2]).unwrap();
        let (_, d) = ClosureEngine::<Bool>::closure(&degraded, &a).unwrap();
        let slowdown = d.cycles as f64 / h.cycles as f64;
        // Ideal slowdown is 4/3 ≈ 1.33; allow scheduling slack but insist
        // it is nowhere near losing the whole array.
        assert!((1.0..1.9).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn linear_beats_grid_capacity_under_faults() {
        // §5's argument quantified at equal cell budget m = 16.
        for f in 1..4 {
            let lin = linear_fault_capacity(16, f);
            let grid = grid_fault_capacity(4, f);
            assert!(lin > grid, "f={f}: linear {lin} vs grid {grid}");
        }
        assert_eq!(grid_fault_capacity(4, 4), 0.0);
        assert_eq!(linear_fault_capacity(16, 4), 0.75);
    }
}
