//! §4.2's linear-vs-2-D trade-off, as a sweep table (E12).

use crate::models::{GridModel, LinearModel};
use systolic_partition::GsetSchedule;
use systolic_transform::GenericGGraph;

/// One `(n, m)` design point comparing the two partitioned structures.
#[derive(Clone, Debug, PartialEq)]
pub struct TradeoffRow {
    /// Problem size.
    pub n: usize,
    /// Cell budget (`m = s²`).
    pub m: usize,
    /// Shared throughput `m/(n²(n+1))`.
    pub throughput: f64,
    /// Shared interior utilization `(n-1)(n-2)/(n(n+1))`.
    pub utilization: f64,
    /// Shared host I/O bandwidth `m/n`.
    pub io_bandwidth: f64,
    /// Linear memory connections (`m+1`).
    pub linear_mem_connections: usize,
    /// Grid memory connections (`2√m`).
    pub grid_mem_connections: usize,
    /// Fraction of linear G-sets that under-fill the array.
    pub linear_boundary_fraction: f64,
    /// Fraction of grid G-sets that under-fill the array (triangular sets).
    pub grid_boundary_fraction: f64,
    /// Fraction of cell-slots idle in linear boundary sets.
    pub linear_boundary_idle: f64,
    /// Fraction of cell-slots idle in grid boundary sets.
    pub grid_boundary_idle: f64,
}

/// Builds the comparison row for one `(n, s)` design point (`m = s²`).
pub fn tradeoff_row(n: usize, s: usize) -> TradeoffRow {
    let m = s * s;
    let lin = LinearModel { n, m };
    let grid = GridModel { n, s };
    let gg = GenericGGraph::closure(n);
    let ls = GsetSchedule::linear(&gg, m);
    let gs = GsetSchedule::grid(&gg, s);
    let idle = |sched: &GsetSchedule, cells: usize| {
        let slots = sched.len() * cells;
        let used = sched.total_gnodes();
        (slots - used) as f64 / slots as f64
    };
    TradeoffRow {
        n,
        m,
        throughput: lin.throughput(),
        utilization: lin.utilization(),
        io_bandwidth: grid.io_bandwidth(),
        linear_mem_connections: lin.memory_connections(),
        grid_mem_connections: grid.memory_connections(),
        linear_boundary_fraction: ls.boundary_sets() as f64 / ls.len() as f64,
        grid_boundary_fraction: gs.boundary_sets() as f64 / gs.len() as f64,
        linear_boundary_idle: idle(&ls, m),
        grid_boundary_idle: idle(&gs, m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_measures_match_both_models() {
        let row = tradeoff_row(24, 3);
        let lin = LinearModel { n: 24, m: 9 };
        let grid = GridModel { n: 24, s: 3 };
        assert_eq!(row.throughput, lin.throughput());
        assert_eq!(row.throughput, grid.throughput());
        assert_eq!(row.utilization, grid.utilization());
        assert_eq!(row.io_bandwidth, lin.io_bandwidth());
    }

    #[test]
    fn boundary_idle_shrinks_with_n() {
        let small = tradeoff_row(8, 2);
        let large = tradeoff_row(64, 2);
        assert!(large.linear_boundary_idle < small.linear_boundary_idle);
        assert!(large.grid_boundary_idle < small.grid_boundary_idle);
    }

    #[test]
    fn boundary_idle_is_bounded_and_nonzero() {
        // The parallelogram's slanted edges always produce some partial
        // sets, but the idle fraction is modest even at small n/m.
        let row = tradeoff_row(16, 2);
        assert!(row.linear_boundary_idle > 0.0);
        assert!(row.linear_boundary_idle < 0.35, "{row:?}");
        assert!(row.grid_boundary_idle > 0.0);
        assert!(row.grid_boundary_idle < 0.35, "{row:?}");
    }
}
