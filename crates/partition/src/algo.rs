//! Elimination-algorithm pipelines (§4.3): LU decomposition and the
//! Faddeev algorithm compiled and executed by the *same* mappings that run
//! transitive closure.
//!
//! The closure engines map the uniform Fig. 17 parallelogram; here the
//! G-graph is a [`GenericGGraph`] elimination trapezoid whose rows shrink
//! (`len = msize - k`), so G-node computation times *vary* across rows
//! while staying uniform within a row — exactly the §4.3 situation. A
//! mapping never looks inside a G-node, so [`EliminationMapping`] only
//! selects which closure mapping compiles the graph:
//!
//! * [`EliminationMapping::Linear`] — [`LpgsMapping`] onto `m` chained
//!   cells: cell `c` owns skewed positions `h ≡ c (mod m)`; every G-set is
//!   a slice of *one* row, so members share a computation time and no cell
//!   idles inside a set (Fig. 22b's equal-time paths).
//! * [`EliminationMapping::Grid`] — [`GridMapping`] onto `√m × √m` cells:
//!   a G-set is an `s × s` block of `(k, h)` space mixing `s` different
//!   row times, so fast members idle until the slowest finishes — the
//!   *time mixing* that §4.3 charges against two-dimensional G-sets.
//!
//! The graph's elimination family makes its cells run divider-head and
//! update-fuse programs over the [`Real`] semiring; each fuse's finished
//! pivot-row element leaves through the task's dedicated `head_out`
//! stream, each level's pivot stream (the `L` column) drains at the row's
//! right edge, and the last level's fused sub-columns are the remaining
//! trailing block. [`run_elimination_timed`] runs the graph on a fresh
//! [`crate::MappedEngine`] over the chosen geometry — the executor and
//! result decoder closure uses — which reassembles those streams into
//! the full in-place elimination state — for LU the compact `L\U` factors,
//! bit-identical to the straight-line reference (identical expression
//! trees, same f64 operations in the same order). Per-level durations
//! enter only through the graph ([`GenericGGraph::with_row_durations`]).

use crate::engine::EngineError;
use crate::grid::{GridEngine, GridMapping};
use crate::linear::{LinearEngine, LpgsMapping};
use crate::mapping::Mapping;
use crate::plan::CompiledPlan;
use systolic_arraysim::RunStats;
use systolic_semiring::{DenseMatrix, Real};
use systolic_transform::GenericGGraph;

/// Which elimination algorithm to pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Algo {
    /// LU decomposition without pivoting of an `n × n` matrix
    /// (`n - 1` elimination levels).
    Lu,
    /// The Faddeev algorithm: eliminate the first `n` columns of the
    /// `2n × 2n` compound matrix `[[A, B], [-C, D]]`, leaving the Schur
    /// complement `D + C·A⁻¹·B` in the lower-right block.
    Faddeev,
}

impl Algo {
    /// Algorithm name for reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Lu => "lu",
            Algo::Faddeev => "faddeev",
        }
    }

    /// Side length of the matrix the pipeline consumes for problem size
    /// `n` (`n` for LU, `2n` for Faddeev's compound matrix).
    pub fn msize(self, n: usize) -> usize {
        match self {
            Algo::Lu => n,
            Algo::Faddeev => 2 * n,
        }
    }

    /// Number of elimination levels for problem size `n`.
    pub fn levels(self, n: usize) -> usize {
        match self {
            Algo::Lu => n - 1,
            Algo::Faddeev => n,
        }
    }

    /// The algorithm's generic G-graph for problem size `n`.
    pub fn graph(self, n: usize) -> GenericGGraph {
        match self {
            Algo::Lu => GenericGGraph::lu(n),
            Algo::Faddeev => GenericGGraph::faddeev(n),
        }
    }
}

/// Array geometry for an elimination run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EliminationMapping {
    /// LPGS chain of `m` cells (`m + 1` memory connections).
    Linear {
        /// Number of cells.
        m: usize,
    },
    /// `s × s` grid (`2s` memory connections).
    Grid {
        /// Grid side length.
        s: usize,
    },
}

impl EliminationMapping {
    /// Mapping name for reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            EliminationMapping::Linear { .. } => "lpgs-linear",
            EliminationMapping::Grid { .. } => "grid-partitioned",
        }
    }

    /// Total number of cells.
    pub fn cells(self) -> usize {
        match self {
            EliminationMapping::Linear { m } => LpgsMapping::new(m).cells(),
            EliminationMapping::Grid { s } => GridMapping::new(s).cells(),
        }
    }

    /// Validates the geometry and compiles `gg` on it — through the very
    /// mapping that runs transitive closure on the same array.
    fn compile(self, gg: &GenericGGraph, batch_len: usize) -> Result<CompiledPlan, EngineError> {
        fn on<M: Mapping>(
            mapping: M,
            gg: &GenericGGraph,
            batch_len: usize,
        ) -> Result<CompiledPlan, EngineError> {
            mapping.validate()?;
            Ok(mapping.graph_plan(gg, batch_len))
        }
        match self {
            EliminationMapping::Linear { m } => on(LpgsMapping::new(m), gg, batch_len),
            EliminationMapping::Grid { s } => on(GridMapping::new(s), gg, batch_len),
        }
    }
}

/// Deterministic diagonally-dominant `msize × msize` input matrix —
/// numerically stable under elimination without pivoting, shared by the
/// CLI, the benchmarks and the tests so runs are reproducible.
pub fn elimination_input(msize: usize, seed: u64) -> DenseMatrix<Real> {
    DenseMatrix::<Real>::from_fn(msize, msize, |i, j| {
        let h = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((i * 131 + j * 17) as u64);
        let frac = (h % 1000) as f64 / 1000.0;
        if i == j {
            (msize as f64) + 1.0 + frac
        } else {
            frac - 0.5
        }
    })
}

/// The §4.3 per-level durations: level `k` still works on an
/// `(msize-k) × (msize-k)` trailing submatrix, so its per-word duration is
/// `msize - k` — monotone decreasing, uniform within a row.
pub fn level_durations(algo: Algo, n: usize) -> Vec<u32> {
    let msize = algo.msize(n);
    (0..algo.levels(n)).map(|k| (msize - k) as u32).collect()
}

/// Compiles the plan for one elimination pipeline: `batch_len` instances
/// of `algo` at problem size `n` on `mapping`, with **per-row G-node
/// durations** (§4.3): every word of a row-`k` G-node occupies its cell for
/// `durs[k]` cycles. Durations change utilization, never results.
///
/// # Panics
/// When `mapping` has no cells, or `durs` is not one duration ≥ 1 per
/// level.
pub fn elimination_plan_timed(
    algo: Algo,
    n: usize,
    mapping: EliminationMapping,
    batch_len: usize,
    durs: &[u32],
) -> CompiledPlan {
    mapping
        .compile(&algo.graph(n).with_row_durations(durs), batch_len)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one elimination instance through the simulated partitioned array
/// and reassembles the full in-place elimination state (`msize × msize`).
///
/// For [`Algo::Lu`] the result is the compact `L\U` factor matrix; for
/// [`Algo::Faddeev`] it is the compound matrix after `n` levels, whose
/// lower-right `n × n` block is the Schur complement. Both match the
/// straight-line `systolic_dgraph::eval_elimination_graph` reference
/// bit-for-bit.
///
/// # Errors
/// [`EngineError::BadInput`] for shape/geometry problems, simulator errors
/// (deadlock, runaway) forwarded, [`EngineError::Corrupt`] when an output
/// stream drained with the wrong word count.
pub fn run_elimination(
    algo: Algo,
    mapping: EliminationMapping,
    a: &DenseMatrix<Real>,
) -> Result<(DenseMatrix<Real>, RunStats), EngineError> {
    let n = problem_size(algo, a)?;
    run_elimination_timed(algo, mapping, a, &vec![1; algo.levels(n)])
}

/// [`run_elimination`] with varying per-row G-node durations (§4.3):
/// `durs[k]` cycles per word on row `k`. The result matrix is bit-identical
/// to the uniform-duration run; only [`RunStats`] (cycles, occupancy)
/// change — this is the measurement knob behind experiment E30.
///
/// # Errors
/// As [`run_elimination`], plus [`EngineError::BadInput`] when `durs` does
/// not provide exactly one duration ≥ 1 per elimination level.
pub fn run_elimination_timed(
    algo: Algo,
    mapping: EliminationMapping,
    a: &DenseMatrix<Real>,
    durs: &[u32],
) -> Result<(DenseMatrix<Real>, RunStats), EngineError> {
    let n = problem_size(algo, a)?;
    let levels = algo.levels(n);
    if durs.len() != levels || durs.contains(&0) {
        return Err(EngineError::BadInput(format!(
            "need {levels} per-level durations ≥ 1, got {durs:?}"
        )));
    }
    // A fresh executor per call, over the mapping that runs transitive
    // closure on the same array: nothing is cached across calls.
    let gg = algo.graph(n).with_row_durations(durs);
    let a = std::slice::from_ref(a);
    let (mut out, stats) = match mapping {
        EliminationMapping::Linear { m } => LinearEngine::new(m).run_graph(&gg, a, None),
        EliminationMapping::Grid { s } => GridEngine::new(s).run_graph(&gg, a, None),
    }?;
    Ok((out.pop().expect("one instance in, one out"), stats))
}

/// Checks an elimination input's shape and returns the problem size `n`.
fn problem_size(algo: Algo, a: &DenseMatrix<Real>) -> Result<usize, EngineError> {
    let msize = a.rows();
    if a.cols() != msize {
        return Err(EngineError::BadInput(format!(
            "elimination input must be square, got {}×{}",
            a.rows(),
            a.cols()
        )));
    }
    let n = match algo {
        Algo::Lu => msize,
        Algo::Faddeev => {
            if !msize.is_multiple_of(2) {
                return Err(EngineError::BadInput(format!(
                    "Faddeev consumes a 2n×2n compound matrix, got {msize}×{msize}"
                )));
            }
            msize / 2
        }
    };
    if algo.msize(n) < 2 || algo.levels(n) < 1 {
        return Err(EngineError::BadInput(format!(
            "{} needs a problem size of at least 2",
            algo.name()
        )));
    }
    Ok(n)
}
