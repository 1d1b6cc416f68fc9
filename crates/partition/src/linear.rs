//! The linear partitioned array of Fig. 18 (cut-and-pile / LPGS).
//!
//! `m` cells in a chain. In skewed coordinates `h = g + k` (see
//! `systolic-transform::ggraph`), cell `c` is responsible for every G-node
//! whose `h ≡ c (mod m)`; the G-set executed concurrently is `m`
//! consecutive `h` positions of one G-graph row, and G-sets are scheduled
//! by vertical paths: block-major over `h`, rows top-to-bottom inside a
//! block (Fig. 20a).
//!
//! Streams:
//! * the **pivot stream** of a row flows cell-to-cell over neighbor links
//!   and crosses G-set block boundaries through the single **pivot bank**;
//! * each cell's **column stream** output is consumed by the *same cell*
//!   one row later, through the cell's **private memory bank** — hence the
//!   paper's `m + 1` connections to external memories;
//! * row 0 reads its columns from the host R-chain (Fig. 21) and row `n-1`
//!   writes the result columns to the output collectors.
//!
//! **Bypass (§5).** With faulty cells switched to pass-through
//! ([`LinearEngine::bypassing`]) the healthy cells still form a chain, whose
//! links take one cycle per physical hop: the same mapping and executor.
//!
//! The schedule is pure geometry, so it lives in [`LpgsMapping`], whose one
//! builder compiles any G-graph — the LU and Faddeev trapezoids of
//! [`crate::algo`] included — and the shared [`MappedEngine`] executor
//! does everything else: the closure plan is
//! compiled once per `(G-graph, batch_len)` into a [`CompiledPlan`] and
//! memoized; repeat calls reset and reload a cached simulator instead of
//! rebuilding anything. It also never inspects *values*, so the engine is
//! generic over the semiring — including the 64-lane `BoolLanes` packing
//! [`crate::PackedEngine`] drives through it, which shares this engine's
//! plan cache (a packed group and a scalar single run use the same
//! single-instance plan).

use crate::engine::{stream_key, EngineError};
use crate::mapping::{MappedEngine, Mapping};
use crate::plan::{CompiledPlan, PlanBuilder};
use crate::wiring::{Ends, Wiring};
use systolic_arraysim::{FaultEvent, FaultKind, StreamDst, StreamSrc};
use systolic_semiring::PathSemiring;
use systolic_transform::GenericGGraph;

/// The cut-and-pile (LPGS) mapping onto a linear chain of cells: the
/// healthy cells of a `physical`-cell array, in order (all of them unless
/// faulty cells are bypassed).
#[derive(Clone, Debug)]
pub struct LpgsMapping {
    physical: usize,
    /// Physical positions of the working cells, ascending; logical cell
    /// `c` of the chain is physical cell `healthy[c]`.
    healthy: Vec<usize>,
}

impl LpgsMapping {
    /// Creates the mapping for `m` cells with unit link delays. A zero
    /// cell count is representable but rejected with
    /// [`crate::EngineError::BadInput`] at run time (see
    /// [`Mapping::validate`]).
    pub fn new(m: usize) -> Self {
        Self {
            physical: m,
            healthy: (0..m).collect(),
        }
    }

    /// The bypass configuration of a `physical`-cell chain with the
    /// `faulty` cells switched to pass-through: the healthy cells form a
    /// working chain whose link from one healthy cell to the next has one
    /// cycle of latency per physical hop.
    ///
    /// # Errors
    /// [`EngineError::BadInput`] for a duplicate or out-of-range fault
    /// index, or when no healthy cell remains.
    pub fn bypassing(physical: usize, faulty: &[usize]) -> Result<Self, EngineError> {
        let mut f = faulty.to_vec();
        f.sort_unstable();
        f.dedup();
        if f.len() != faulty.len() {
            return Err(EngineError::BadInput("duplicate fault index".into()));
        }
        if f.iter().any(|&c| c >= physical) {
            return Err(EngineError::BadInput(format!(
                "fault index out of range (physical = {physical})"
            )));
        }
        let healthy: Vec<usize> = (0..physical)
            .filter(|c| f.binary_search(c).is_err())
            .collect();
        if healthy.is_empty() {
            return Err(EngineError::BadInput("no healthy cells remain".into()));
        }
        Ok(Self { physical, healthy })
    }

    /// The bypassed (faulty) physical cells, ascending.
    pub(crate) fn faults(&self) -> Vec<usize> {
        (0..self.physical)
            .filter(|c| self.healthy.binary_search(c).is_err())
            .collect()
    }

    /// Physical position of logical (chain) cell `logical`.
    pub(crate) fn physical_cell(&self, logical: usize) -> Option<usize> {
        self.healthy.get(logical).copied()
    }
}

impl Mapping for LpgsMapping {
    fn name(&self) -> &'static str {
        if self.healthy.len() < self.physical {
            "linear-partitioned-degraded"
        } else {
            "linear-partitioned"
        }
    }

    fn cells(&self) -> usize {
        self.healthy.len()
    }

    fn validate(&self) -> Result<(), EngineError> {
        if self.healthy.is_empty() {
            return Err(EngineError::BadInput(
                "linear array needs at least one cell (m ≥ 1)".into(),
            ));
        }
        Ok(())
    }

    /// Compiles the schedule: cell `c` runs every G-node with
    /// `h ≡ c (mod m)`; blocks of `m` consecutive `h` positions advance
    /// left to right, rows top to bottom inside a block. One G-set is a
    /// slice of one row, so its members share a computation time.
    fn graph_plan(&self, gg: &GenericGGraph, batch_len: usize) -> CompiledPlan {
        let m = self.healthy.len();
        let blocks = (gg.h_max() + 1).div_ceil(m);

        let mut plan = PlanBuilder::new(gg.row(0).len, batch_len, m);
        // Pivot links cell c → c+1, one cycle per physical hop (so longer
        // where faulty cells are bypassed).
        let links: Vec<usize> = self
            .healthy
            .windows(2)
            .map(|w| plan.add_link_with_delay((w[1] - w[0]) as u64))
            .collect();
        // Cell banks 0..m, pivot bank m.
        for _ in 0..=m {
            plan.add_bank();
        }
        let pivot_bank = m;
        plan.set_memory_connections(m + 1);
        let wire = Wiring::new(gg, &mut plan);

        // Host demand order mirrors the schedule: instance, block, cell.
        for inst in 0..batch_len {
            for h in 0..wire.inputs() {
                // Row 0 consumes column h in natural row order.
                plan.feed_host(h % m, stream_key(inst, 0, h), inst, h);
            }
        }

        for inst in 0..batch_len {
            for b in 0..blocks {
                for k in 0..gg.rows() {
                    for c in 0..m {
                        let h = b * m + c;
                        wire.node(
                            &mut plan,
                            c,
                            inst,
                            k,
                            h,
                            Ends {
                                col_in: |p: &mut PlanBuilder| match k {
                                    0 => p.host_src(c, stream_key(inst, 0, h)),
                                    _ => p.bank_src(c, stream_key(inst, k - 1, h)),
                                },
                                pivot_in: |p: &mut PlanBuilder| match c {
                                    0 => p.bank_src(pivot_bank, stream_key(inst, k, h - 1)),
                                    _ => StreamSrc::Link(links[c - 1]),
                                },
                                col_out: |p: &mut PlanBuilder| {
                                    p.bank_dst(c, stream_key(inst, k, h))
                                },
                                pivot_out: |p: &mut PlanBuilder| {
                                    if c < m - 1 {
                                        StreamDst::Link(links[c])
                                    } else {
                                        p.bank_dst(pivot_bank, stream_key(inst, k, h))
                                    }
                                },
                            },
                        );
                    }
                }
            }
        }

        // Generous budget over the ideal (work / m) cycles per instance.
        let ideal = wire.ideal_cycles(m) + 1;
        plan.set_max_cycles(batch_len as u64 * ideal * 20 + 100_000);
        plan.finish()
    }
}

/// Cut-and-pile executor on a linear array of `m` cells.
pub type LinearEngine = MappedEngine<LpgsMapping>;

impl LinearEngine {
    /// Creates an engine with `m ≥ 1` cells.
    pub fn new(m: usize) -> Self {
        Self::from_mapping(LpgsMapping::new(m))
    }

    /// Creates the bypass configuration of a `physical`-cell array with
    /// the `faulty` cells switched to pass-through (see
    /// [`LpgsMapping::bypassing`]).
    ///
    /// # Errors
    /// As [`LpgsMapping::bypassing`].
    pub fn bypassing(physical: usize, faulty: &[usize]) -> Result<Self, EngineError> {
        LpgsMapping::bypassing(physical, faulty).map(Self::from_mapping)
    }
}

/// Fault events carry logical (chain) coordinates; blame maps them back to
/// the physical array, so escalation bypasses the right hardware.
impl<S: PathSemiring> crate::recover::FaultAware<S> for LinearEngine {
    fn recent_faults(&self) -> Vec<FaultEvent> {
        self.recent_fault_events()
    }

    fn blame_cell(&self, event: &FaultEvent) -> Option<usize> {
        let logical = match event.kind {
            FaultKind::CorruptEmit { cell } | FaultKind::StickCell { cell, .. } => cell,
            // Link c sits between cells c and c+1; blame its writer.
            FaultKind::DropWord { link } | FaultKind::DuplicateWord { link } => link,
            // Banks 0..m are private to their cell; bank m is the shared
            // pivot-boundary bank and indicts no single cell.
            FaultKind::BankFlip { bank } => bank,
        };
        self.mapping().physical_cell(logical)
    }

    fn bypass_plan(&self, faulty: &[usize]) -> Option<LinearEngine> {
        let mut all = self.mapping().faults();
        all.extend_from_slice(faulty);
        all.sort_unstable();
        all.dedup();
        Self::bypassing(self.mapping().physical, &all).ok()
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
    fn matches_warshall_across_cell_counts() {
        let a = bool_adj(6, &[(0, 3), (3, 5), (5, 1), (1, 4), (4, 0), (2, 2)]);
        let want = warshall(&a);
        for m in [1usize, 2, 3, 4, 5, 7, 13] {
            let eng = LinearEngine::new(m);
            let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
            assert_eq!(got, want, "m={m}");
            assert_eq!(stats.memory_connections, m + 1);
            assert_eq!(stats.useful_ops, (6 * 5 * 4) as u64);
        }
    }

    #[test]
    fn matches_warshall_minplus() {
        let n = 5;
        let mut a = DenseMatrix::<MinPlus>::zeros(n, n);
        for (i, j, w) in [
            (0, 1, 2u64),
            (1, 2, 3),
            (2, 3, 1),
            (3, 4, 4),
            (4, 0, 9),
            (0, 4, 99),
        ] {
            a.set(i, j, w);
        }
        let eng = LinearEngine::new(3);
        let (got, _) = ClosureEngine::<MinPlus>::closure(&eng, &a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(*got.get(0, 4), 10);
    }

    #[test]
    fn chained_instances_share_the_array() {
        let a = bool_adj(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let b = bool_adj(5, &[(4, 3), (3, 2), (2, 1), (1, 0)]);
        let eng = LinearEngine::new(3);
        let (got, stats) =
            ClosureEngine::<Bool>::closure_many(&eng, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(got[0], warshall(&a));
        assert_eq!(got[1], warshall(&b));
        assert_eq!(stats.output_words, 2 * 25);
    }

    #[test]
    fn no_partitioning_overhead_banks_are_single_ported() {
        // The paper's "no overhead" claim: data transfers overlap compute;
        // banks never absorb more than one word per cycle.
        let a = bool_adj(8, &[(0, 7), (7, 2), (2, 5), (5, 0), (1, 6), (6, 1)]);
        let eng = LinearEngine::new(3);
        let (_, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        assert!(stats.max_bank_writes_per_cycle <= 1);
    }

    #[test]
    fn io_words_equal_n_squared_per_instance() {
        let a = bool_adj(6, &[(0, 1), (2, 3)]);
        let eng = LinearEngine::new(2);
        let (_, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        assert_eq!(stats.host_words, 36);
        assert!(stats.io_bandwidth() < 1.0);
    }

    #[test]
    fn rejects_tiny_problems() {
        let a = DenseMatrix::<Bool>::zeros(1, 1);
        let eng = LinearEngine::new(2);
        assert!(ClosureEngine::<Bool>::closure(&eng, &a).is_err());
    }

    #[test]
    fn cached_plan_reruns_bit_identically() {
        let a = bool_adj(7, &[(0, 3), (3, 6), (6, 1), (1, 5), (5, 0), (2, 4)]);
        let b = bool_adj(7, &[(6, 0), (0, 6), (2, 5)]);
        let eng = LinearEngine::new(3);
        let batch = [a, b];
        // First call compiles; second reuses plan + simulator; third (after
        // clearing the caches) recompiles from scratch.
        let (r1, s1) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        let (r2, s2) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        eng.clear_caches();
        let (r3, s3) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
        // RunStats equality ignores only wall time.
        assert_eq!(s1, s2);
        assert_eq!(s1, s3);
    }

    #[test]
    fn blame_and_bypass_speak_physical_cells() {
        use crate::recover::FaultAware;
        let blame = |eng: &LinearEngine, kind| {
            FaultAware::<Bool>::blame_cell(eng, &FaultEvent { cycle: 0, kind })
        };
        // healthy = [0, 1, 4, 5]: logical cell 2 is physical cell 4.
        let eng = LinearEngine::bypassing(6, &[2, 3]).unwrap();
        assert_eq!(blame(&eng, FaultKind::CorruptEmit { cell: 2 }), Some(4));
        assert_eq!(blame(&eng, FaultKind::DropWord { link: 1 }), Some(1));
        // Bank 4 of a 4-cell chain is the shared pivot bank: no owner.
        assert_eq!(blame(&eng, FaultKind::BankFlip { bank: 4 }), None);
        let next = FaultAware::<Bool>::bypass_plan(&eng, &[0]).unwrap();
        assert_eq!(next.mapping().faults(), vec![0, 2, 3]);
        assert!(FaultAware::<Bool>::bypass_plan(&eng, &[0, 1, 4, 5]).is_none());

        // The fault-free chain blames the identity.
        let eng = LinearEngine::new(4);
        for c in 0..4 {
            assert_eq!(blame(&eng, FaultKind::CorruptEmit { cell: c }), Some(c));
            assert_eq!(
                blame(&eng, FaultKind::StickCell { cell: c, cycles: 3 }),
                Some(c)
            );
            assert_eq!(blame(&eng, FaultKind::BankFlip { bank: c }), Some(c));
        }
        for l in 0..3 {
            assert_eq!(blame(&eng, FaultKind::DuplicateWord { link: l }), Some(l));
        }
        assert_eq!(blame(&eng, FaultKind::BankFlip { bank: 4 }), None);
    }

    #[test]
    fn cache_survives_shape_and_semiring_changes() {
        let eng = LinearEngine::new(2);
        let a5 = bool_adj(5, &[(0, 1), (1, 2)]);
        let a6 = bool_adj(6, &[(0, 1), (1, 2)]);
        let (g1, _) = ClosureEngine::<Bool>::closure(&eng, &a5).unwrap();
        let (g2, _) = ClosureEngine::<Bool>::closure(&eng, &a6).unwrap();
        let (g3, _) = ClosureEngine::<Bool>::closure(&eng, &a5).unwrap();
        assert_eq!(g1, warshall(&a5));
        assert_eq!(g2, warshall(&a6));
        assert_eq!(g1, g3);
        // Same shape, different semiring: the plan is reused, the cached
        // simulator is type-mismatched and rebuilt.
        let mut w = DenseMatrix::<MinPlus>::zeros(5, 5);
        w.set(0, 1, 2);
        w.set(1, 2, 3);
        let (g4, _) = ClosureEngine::<MinPlus>::closure(&eng, &w).unwrap();
        assert_eq!(g4, warshall(&w));
    }
}
