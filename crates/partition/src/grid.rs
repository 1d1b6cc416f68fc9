//! The two-dimensional partitioned array of Fig. 19.
//!
//! `√m × √m` cells. In skewed coordinates, G-node `(k, h)` maps to cell
//! `(k mod √m, h mod √m)`; a G-set is a `√m × √m` block of `(k, h)` space,
//! so the parallelogram's slanted edges produce the paper's *triangular
//! boundary sets* (Fig. 19a), which simply leave some cells idle.
//!
//! Streams cross only the block perimeter: column streams leave through the
//! bottom edge into `√m` column banks and re-enter through the top edge;
//! pivot streams leave through the right edge into `√m` pivot banks and
//! re-enter on the left — the paper's `2√m` connections to external
//! memories. Within a block both stream families ride neighbor links.
//! Blocks are scheduled by vertical paths: `h`-block-major, `k`-blocks
//! top-to-bottom inside (the 2-D analogue of Fig. 20b).
//!
//! The geometry lives in [`GridMapping`], whose one builder compiles any
//! G-graph (closure, and the LU and Faddeev trapezoids of
//! [`crate::algo`]); execution is the shared [`MappedEngine`].

use crate::engine::{stream_key, EngineError};
use crate::mapping::{MappedEngine, Mapping};
use crate::plan::{CompiledPlan, PlanBuilder};
use crate::wiring::{Ends, Wiring};
use systolic_arraysim::{StreamDst, StreamSrc};
use systolic_transform::GenericGGraph;

/// The cut-and-pile mapping onto a `√m × √m` grid.
#[derive(Clone, Debug)]
pub struct GridMapping {
    s: usize,
}

impl GridMapping {
    /// Creates the mapping for an `s × s` grid (`m = s²` cells). A zero
    /// side is representable but rejected with
    /// [`crate::EngineError::BadInput`] at run time (see
    /// [`Mapping::validate`]).
    pub fn new(s: usize) -> Self {
        Self { s }
    }

    /// Grid side length `√m`.
    pub fn side(&self) -> usize {
        self.s
    }
}

impl Mapping for GridMapping {
    fn name(&self) -> &'static str {
        "grid-partitioned"
    }

    fn cells(&self) -> usize {
        self.s * self.s
    }

    fn validate(&self) -> Result<(), EngineError> {
        if self.s == 0 {
            return Err(EngineError::BadInput(
                "grid needs at least a 1×1 array (side ≥ 1)".into(),
            ));
        }
        Ok(())
    }

    /// Compiles the grid schedule: G-node `(k, h)` runs on cell
    /// `(k mod s, h mod s)`; `h`-blocks advance left to right, `k`-blocks
    /// top to bottom inside. One G-set spans `s` rows, so it mixes their
    /// computation times.
    fn graph_plan(&self, gg: &GenericGGraph, batch_len: usize) -> CompiledPlan {
        let s = self.s;
        let bcols = (gg.h_max() + 1).div_ceil(s);
        let brows = gg.rows().div_ceil(s);
        let cell_id = |ri: usize, ci: usize| ri * s + ci;

        let mut plan = PlanBuilder::new(gg.row(0).len, batch_len, s * s);
        // Horizontal pivot links (ri,ci) → (ri,ci+1); vertical column links
        // (ri,ci) → (ri+1,ci).
        let mut hl = vec![usize::MAX; s * s];
        let mut vl = vec![usize::MAX; s * s];
        for ri in 0..s {
            for ci in 0..s {
                if ci + 1 < s {
                    hl[cell_id(ri, ci)] = plan.add_link();
                }
                if ri + 1 < s {
                    vl[cell_id(ri, ci)] = plan.add_link();
                }
            }
        }
        // Column banks (top/bottom edge) 0..s, pivot banks (left/right edge)
        // s..2s.
        for _ in 0..2 * s {
            plan.add_bank();
        }
        let col_bank = |ci: usize| ci;
        let piv_bank = |ri: usize| s + ri;
        plan.set_memory_connections(2 * s);
        let wire = Wiring::new(gg, &mut plan);

        // Host demands in schedule order (instance, h-block, cell column).
        for inst in 0..batch_len {
            for h in 0..wire.inputs() {
                plan.feed_host(cell_id(0, h % s), stream_key(inst, 0, h), inst, h);
            }
        }

        for inst in 0..batch_len {
            for bc in 0..bcols {
                for br in 0..brows {
                    for ri in 0..s {
                        for ci in 0..s {
                            let (k, h) = (br * s + ri, bc * s + ci);
                            let cell = cell_id(ri, ci);
                            wire.node(
                                &mut plan,
                                cell,
                                inst,
                                k,
                                h,
                                Ends {
                                    col_in: |p: &mut PlanBuilder| {
                                        if k == 0 {
                                            p.host_src(cell, stream_key(inst, 0, h))
                                        } else if ri > 0 {
                                            StreamSrc::Link(vl[cell_id(ri - 1, ci)])
                                        } else {
                                            p.bank_src(col_bank(ci), stream_key(inst, k - 1, h))
                                        }
                                    },
                                    pivot_in: |p: &mut PlanBuilder| match ci {
                                        0 => p.bank_src(piv_bank(ri), stream_key(inst, k, h - 1)),
                                        _ => StreamSrc::Link(hl[cell_id(ri, ci - 1)]),
                                    },
                                    col_out: |p: &mut PlanBuilder| {
                                        if ri + 1 < s {
                                            StreamDst::Link(vl[cell])
                                        } else {
                                            p.bank_dst(col_bank(ci), stream_key(inst, k, h))
                                        }
                                    },
                                    pivot_out: |p: &mut PlanBuilder| {
                                        if ci + 1 < s {
                                            StreamDst::Link(hl[cell])
                                        } else {
                                            p.bank_dst(piv_bank(ri), stream_key(inst, k, h))
                                        }
                                    },
                                },
                            );
                        }
                    }
                }
            }
        }

        let ideal = wire.ideal_cycles(s * s) + 1;
        plan.set_max_cycles(batch_len as u64 * ideal * 40 + 200_000);
        plan.finish()
    }
}

/// Cut-and-pile executor on a `√m × √m` grid.
pub type GridEngine = MappedEngine<GridMapping>;

impl GridEngine {
    /// Creates an engine with an `s × s` grid (`m = s²` cells, `s ≥ 1`).
    pub fn new(s: usize) -> Self {
        Self::from_mapping(GridMapping::new(s))
    }

    /// Creates the engine from a total cell budget `m`, which must be a
    /// perfect square.
    ///
    /// # Errors
    /// Returns [`EngineError::BadInput`] when `m` is not a perfect square.
    pub fn from_cells(m: usize) -> Result<Self, EngineError> {
        let s = (m as f64).sqrt().round() as usize;
        if s * s == m && s >= 1 {
            Ok(Self::new(s))
        } else {
            Err(EngineError::BadInput(format!(
                "grid cell budget m={m} is not a perfect square \
                 (nearest squares: {} and {})",
                s.saturating_sub(1).pow(2),
                (s + 1).pow(2)
            )))
        }
    }

    /// Grid side length `√m`.
    pub fn side(&self) -> usize {
        self.mapping().side()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClosureEngine;
    use systolic_semiring::{warshall, Bool, DenseMatrix, MinPlus};

    fn bool_adj(n: usize, edges: &[(usize, usize)]) -> DenseMatrix<Bool> {
        let mut a = DenseMatrix::<Bool>::zeros(n, n);
        for &(i, j) in edges {
            a.set(i, j, true);
        }
        a
    }

    #[test]
    fn matches_warshall_across_grid_sides() {
        let a = bool_adj(6, &[(0, 3), (3, 5), (5, 1), (1, 4), (4, 0)]);
        let want = warshall(&a);
        for s in [1usize, 2, 3, 4] {
            let eng = GridEngine::new(s);
            let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
            assert_eq!(got, want, "s={s}");
            assert_eq!(stats.memory_connections, 2 * s);
            assert_eq!(stats.cells, s * s);
        }
    }

    #[test]
    fn matches_warshall_minplus() {
        let n = 7;
        let mut a = DenseMatrix::<MinPlus>::zeros(n, n);
        for (i, j, w) in [
            (0usize, 1usize, 3u64),
            (1, 4, 2),
            (4, 6, 8),
            (6, 2, 1),
            (2, 0, 5),
            (3, 5, 7),
            (5, 3, 7),
        ] {
            a.set(i, j, w);
        }
        let eng = GridEngine::new(2);
        let (got, _) = ClosureEngine::<MinPlus>::closure(&eng, &a).unwrap();
        assert_eq!(got, warshall(&a));
    }

    #[test]
    fn from_cells_accepts_squares_only() {
        assert!(GridEngine::from_cells(9).is_ok());
        assert_eq!(GridEngine::from_cells(9).unwrap().side(), 3);
        match GridEngine::from_cells(8) {
            Err(EngineError::BadInput(msg)) => {
                assert!(msg.contains("m=8"), "{msg}");
                assert!(msg.contains("perfect square"), "{msg}");
            }
            other => panic!("expected BadInput for m=8, got {other:?}"),
        }
    }

    #[test]
    fn chained_instances() {
        let a = bool_adj(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let b = bool_adj(5, &[(4, 0), (0, 2), (2, 4)]);
        let eng = GridEngine::new(2);
        let (got, _) = ClosureEngine::<Bool>::closure_many(&eng, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(got[0], warshall(&a));
        assert_eq!(got[1], warshall(&b));
    }

    #[test]
    fn grid_and_linear_have_same_useful_ops() {
        use crate::linear::LinearEngine;
        let a = bool_adj(6, &[(0, 5), (5, 3), (3, 1)]);
        let (_, gs) = ClosureEngine::<Bool>::closure(&GridEngine::new(2), &a).unwrap();
        let (_, ls) = ClosureEngine::<Bool>::closure(&LinearEngine::new(4), &a).unwrap();
        assert_eq!(gs.useful_ops, ls.useful_ops);
        assert_eq!(gs.useful_ops, (6 * 5 * 4) as u64);
    }
}
