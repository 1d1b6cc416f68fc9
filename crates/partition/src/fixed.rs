//! Fixed-size arrays derived from the G-graph (§3.2).
//!
//! * [`FixedArrayEngine`] — the Fig. 17 G-graph implemented directly: one
//!   cell per G-node (`n × (n+1)` cells), neighbor links only (pivot
//!   streams flow right, column streams flow down-left), data transfers
//!   overlapped with computation, throughput `1/n` with unrestricted
//!   chaining of problem instances. Inputs enter through `n` parallel
//!   boundary ports (modelled as preloaded port buffers — the fixed-size
//!   array is not host-bandwidth-limited, unlike the partitioned arrays of
//!   Fig. 21).
//! * [`FixedLinearEngine`] — §3.2's collapse of each G-graph row into a
//!   single cell: `n` cells, throughput `1/(n(n+1))`, with the row's pivot
//!   stream recirculating through a per-cell loopback buffer.
//!
//! Both are thin [`Mapping`] impls over the shared [`MappedEngine`]
//! executor: schedules compile once per `(n, batch_len)` shape into a
//! memoized `CompiledPlan` and reuse a reset simulator across calls (see
//! [`crate::plan`]).

use crate::engine::stream_key;
use crate::mapping::{MappedEngine, Mapping};
use crate::plan::{CompiledPlan, PlanBuilder};
use crate::wiring::{Ends, Wiring};
use systolic_arraysim::{StreamDst, StreamSrc};
use systolic_transform::GenericGGraph;

/// The Fig. 17 mapping: one cell per G-node, neighbor links only.
#[derive(Clone, Debug, Default)]
pub struct FixedArrayMapping;

impl FixedArrayMapping {
    /// Cells used for problem size `n`.
    pub fn cells_for(n: usize) -> usize {
        n * (n + 1)
    }
}

impl Mapping for FixedArrayMapping {
    fn name(&self) -> &'static str {
        "fixed-array"
    }

    fn cells(&self) -> usize {
        0 // problem-size dependent; see cells_for
    }

    /// One cell per G-node: `(k, g)` with `g = h - k` runs on cell
    /// `k·w + g` of a `rows × w` array. Built for closure graphs (any row
    /// durations); other graph families are not supported.
    fn graph_plan(&self, gg: &GenericGGraph, batch_len: usize) -> CompiledPlan {
        let rows = gg.rows();
        let w = gg.row(0).width;

        let mut plan = PlanBuilder::new(gg.row(0).len, batch_len, rows * w);
        let wire = Wiring::new(gg, &mut plan);

        // Pivot links (k,g) → (k,g+1) and column links (k,g) → (k+1,g-1).
        let mut pl = vec![usize::MAX; rows * w];
        let mut cl = vec![usize::MAX; rows * w];
        for k in 0..rows {
            for g in 0..w {
                if g + 1 < w {
                    pl[k * w + g] = plan.add_link();
                }
                if k + 1 < rows && g >= 1 {
                    cl[k * w + g] = plan.add_link();
                }
            }
        }

        // Parallel boundary input ports, one per row-0 column cell.
        let ports: Vec<usize> = (0..wire.inputs()).map(|_| plan.add_bank()).collect();
        plan.set_memory_connections(0);

        for inst in 0..batch_len {
            for (g, &port) in ports.iter().enumerate() {
                plan.feed_preload(port, stream_key(inst, 0, g), inst, g);
            }
        }

        for inst in 0..batch_len {
            for k in 0..rows {
                let h_lo = gg.row(k).h_lo;
                for g in 0..gg.row(k).width {
                    let cell = k * w + g;
                    wire.node(
                        &mut plan,
                        cell,
                        inst,
                        k,
                        h_lo + g,
                        Ends {
                            col_in: |p: &mut PlanBuilder| match k {
                                0 => p.bank_src(ports[g], stream_key(inst, 0, g)),
                                _ => StreamSrc::Link(cl[(k - 1) * w + g + 1]),
                            },
                            pivot_in: |_: &mut PlanBuilder| StreamSrc::Link(pl[cell - 1]),
                            col_out: |_: &mut PlanBuilder| StreamDst::Link(cl[cell]),
                            pivot_out: |_: &mut PlanBuilder| StreamDst::Link(pl[cell]),
                        },
                    );
                }
            }
        }

        let slowest = (0..rows).map(|k| gg.row(k).gnode_time()).max().unwrap_or(0);
        plan.set_max_cycles((batch_len as u64 + 8) * slowest * 40 + 100_000);
        plan.finish()
    }
}

/// The Fig. 17 fixed-size array: one cell per G-node.
pub type FixedArrayEngine = MappedEngine<FixedArrayMapping>;

impl FixedArrayEngine {
    /// Creates the engine (the array size adapts to the problem size).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cells used for problem size `n`.
    pub fn cells_for(n: usize) -> usize {
        FixedArrayMapping::cells_for(n)
    }
}

/// §3.2's mapping collapsing each G-graph row into one cell.
#[derive(Clone, Debug, Default)]
pub struct FixedLinearMapping;

impl Mapping for FixedLinearMapping {
    fn name(&self) -> &'static str {
        "fixed-linear"
    }

    fn cells(&self) -> usize {
        0 // n cells for problem size n
    }

    /// Row `k` runs on cell `k`, its pivot stream recirculating through
    /// the cell's loopback bank. Built for closure graphs (any row
    /// durations); other graph families are not supported.
    fn graph_plan(&self, gg: &GenericGGraph, batch_len: usize) -> CompiledPlan {
        let rows = gg.rows();

        let mut plan = PlanBuilder::new(gg.row(0).len, batch_len, rows);
        // Bank k: cell k's pivot loopback; bank rows+k: row k → k+1 columns.
        for _ in 0..2 * rows {
            plan.add_bank();
        }
        let loop_bank = |k: usize| k;
        let col_bank = |k: usize| rows + k;
        plan.set_memory_connections(2 * rows);
        let wire = Wiring::new(gg, &mut plan);

        // Host: the collapsed row 0 consumes one column at a time, so the
        // single-injection host keeps up (rate 1/(n+1) of a word per cycle).
        for inst in 0..batch_len {
            for h in 0..wire.inputs() {
                plan.feed_host(0, stream_key(inst, 0, h), inst, h);
            }
        }

        for inst in 0..batch_len {
            for k in 0..rows {
                for h in gg.row(k).h_lo..=gg.row(k).h_hi() {
                    wire.node(
                        &mut plan,
                        k,
                        inst,
                        k,
                        h,
                        Ends {
                            col_in: |p: &mut PlanBuilder| match k {
                                0 => p.host_src(0, stream_key(inst, 0, h)),
                                _ => p.bank_src(col_bank(k - 1), stream_key(inst, k - 1, h)),
                            },
                            pivot_in: |p: &mut PlanBuilder| {
                                p.bank_src(loop_bank(k), stream_key(inst, k, h - 1))
                            },
                            col_out: |p: &mut PlanBuilder| {
                                p.bank_dst(col_bank(k), stream_key(inst, k, h))
                            },
                            pivot_out: |p: &mut PlanBuilder| {
                                p.bank_dst(loop_bank(k), stream_key(inst, k, h))
                            },
                        },
                    );
                }
            }
        }

        // The single-cell-per-row case of the shared budget formula.
        let ideal = wire.ideal_cycles(1);
        plan.set_max_cycles(batch_len as u64 * ideal * 20 + 100_000);
        plan.finish()
    }
}

/// §3.2's linear fixed-size array: each G-graph row collapsed into one cell.
pub type FixedLinearEngine = MappedEngine<FixedLinearMapping>;

impl FixedLinearEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClosureEngine;
    use systolic_semiring::{warshall, Bool, DenseMatrix, MaxMin};

    fn bool_adj(n: usize, edges: &[(usize, usize)]) -> DenseMatrix<Bool> {
        let mut a = DenseMatrix::<Bool>::zeros(n, n);
        for &(i, j) in edges {
            a.set(i, j, true);
        }
        a
    }

    #[test]
    fn fixed_array_matches_warshall() {
        for (n, edges) in [
            (3usize, vec![(0, 1), (1, 2)]),
            (5, vec![(0, 2), (2, 4), (4, 1), (1, 0), (3, 3)]),
            (7, vec![(6, 0), (0, 6), (1, 3), (3, 5), (5, 1)]),
        ] {
            let a = bool_adj(n, &edges);
            let eng = FixedArrayEngine::new();
            let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
            assert_eq!(got, warshall(&a), "n={n}");
            assert_eq!(stats.cells, n * (n + 1));
        }
    }

    #[test]
    fn fixed_array_throughput_approaches_one_over_n() {
        // Chain many instances: steady-state initiation interval is n.
        let n = 6;
        let a = bool_adj(n, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let insts = 12;
        let eng = FixedArrayEngine::new();
        let batch: Vec<_> = (0..insts).map(|_| a.clone()).collect();
        let (res, stats) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        assert!(res.iter().all(|r| *r == warshall(&a)));
        let per_instance = stats.cycles as f64 / insts as f64;
        // Pipeline fill adds O(n) total; per-instance cost must approach n.
        assert!(
            per_instance < 1.6 * n as f64,
            "per-instance cycles {per_instance} vs n {n}"
        );
        assert!(per_instance >= n as f64);
    }

    #[test]
    fn fixed_linear_matches_warshall_and_counts() {
        let n = 5;
        let a = bool_adj(n, &[(0, 4), (4, 2), (2, 0), (1, 3)]);
        let eng = FixedLinearEngine::new();
        let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(stats.cells, n);
        assert_eq!(stats.host_words, (n * n) as u64);
    }

    #[test]
    fn fixed_linear_throughput_is_one_over_n_n_plus_1() {
        let n = 4;
        let a = bool_adj(n, &[(0, 1), (1, 2), (2, 3)]);
        let insts = 6;
        let eng = FixedLinearEngine::new();
        let batch: Vec<_> = (0..insts).map(|_| a.clone()).collect();
        let (_, stats) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        let per_instance = stats.cycles as f64 / insts as f64;
        let ideal = (n * (n + 1)) as f64 * 1.0; // (n+1) G-nodes × n cycles / n cells… per row
                                                // Each cell executes (n+1) tasks of n cycles per instance.
        let ideal = ideal * n as f64 / n as f64;
        assert!(
            per_instance < 1.5 * (n * (n + 1)) as f64,
            "per-instance {per_instance} vs ideal {ideal}"
        );
    }

    #[test]
    fn fixed_array_works_over_maxmin() {
        let n = 4;
        let mut a = DenseMatrix::<MaxMin>::zeros(n, n);
        a.set(0, 1, 5);
        a.set(1, 2, 3);
        a.set(0, 2, 2);
        a.set(2, 3, 9);
        let eng = FixedArrayEngine::new();
        let (got, _) = ClosureEngine::<MaxMin>::closure(&eng, &a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(*got.get(0, 3), 3);
    }

    #[test]
    fn fixed_engines_rerun_bit_identically_from_cache() {
        let a = bool_adj(5, &[(0, 2), (2, 4), (4, 1), (1, 0)]);
        let arr = FixedArrayEngine::new();
        let (r1, s1) = ClosureEngine::<Bool>::closure(&arr, &a).unwrap();
        let (r2, s2) = ClosureEngine::<Bool>::closure(&arr, &a).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        let lin = FixedLinearEngine::new();
        let (r1, s1) = ClosureEngine::<Bool>::closure(&lin, &a).unwrap();
        let (r2, s2) = ClosureEngine::<Bool>::closure(&lin, &a).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
    }
}
