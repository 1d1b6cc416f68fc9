//! End-to-end checks of the elimination pipelines (§4.3): LU and Faddeev
//! compiled by the closure arrays' own mappings and run on the simulator
//! must be bit-exact (f64 `==`, same expression trees) against both the
//! straight-line kij elimination and the dependence-graph evaluator, on
//! every LPGS chain m ∈ {1, 2, 3, 4, 7} and grid side s ∈ {1, 2, 3}, over
//! seeded `elimination_input` matrices.

use systolic::dgraph::{eval_elimination_graph, faddeev_graph, lu_graph};
use systolic::partition::{
    elimination_input, level_durations, run_elimination, run_elimination_timed, Algo,
    EliminationMapping, EngineError,
};
use systolic::semiring::{DenseMatrix, Real};
use systolic::transform::GenericGGraph;
use systolic_util::Checker;

const LINEAR: [usize; 5] = [1, 2, 3, 4, 7];
const GRID: [usize; 3] = [1, 2, 3];

/// Straight-line in-place kij elimination: the bit-exact reference.
fn elimination_reference(a: &DenseMatrix<Real>, levels: usize) -> DenseMatrix<Real> {
    let n = a.rows();
    let mut x = a.clone();
    for k in 0..levels {
        for i in k + 1..n {
            let l = x.get(i, k) / x.get(k, k);
            x.set(i, k, l);
        }
        for i in k + 1..n {
            for j in k + 1..n {
                let v = x.get(i, j) - x.get(i, k) * x.get(k, j);
                x.set(i, j, v);
            }
        }
    }
    x
}

fn bit_equal(got: &DenseMatrix<Real>, want: &DenseMatrix<Real>, tag: &str) -> Result<(), String> {
    let n = got.rows();
    for i in 0..n {
        for j in 0..n {
            if got.get(i, j).to_bits() != want.get(i, j).to_bits() {
                return Err(format!(
                    "{tag} ({i},{j}): {} != {}",
                    got.get(i, j),
                    want.get(i, j)
                ));
            }
        }
    }
    Ok(())
}

/// Runs `algo` at size `n` on a seeded input over every mapping in
/// `mappings`, checking the result against both references and the
/// mapping's memory-connection count (`m + 1` linear, `2s` grid).
fn check_mappings(
    algo: Algo,
    n: usize,
    seed: u64,
    mappings: &[EliminationMapping],
) -> Result<(), String> {
    let a = elimination_input(algo.msize(n), seed);
    let want = elimination_reference(&a, algo.levels(n));
    let graph = match algo {
        Algo::Lu => lu_graph(n),
        Algo::Faddeev => faddeev_graph(n),
    };
    let dg = eval_elimination_graph::<Real>(&graph, &a).map_err(|e| format!("{e:?}"))?;
    bit_equal(&dg, &want, &format!("{} n={n} dgraph vs kij", algo.name()))?;
    for &mapping in mappings {
        let tag = format!("{} n={n} {mapping:?}", algo.name());
        let (got, stats) = run_elimination(algo, mapping, &a).map_err(|e| format!("{tag}: {e}"))?;
        bit_equal(&got, &want, &tag)?;
        let connections = match mapping {
            EliminationMapping::Linear { m } => m + 1,
            EliminationMapping::Grid { s } => 2 * s,
        };
        if stats.memory_connections != connections {
            return Err(format!(
                "{tag}: {} memory connections",
                stats.memory_connections
            ));
        }
    }
    Ok(())
}

fn linear() -> Vec<EliminationMapping> {
    LINEAR
        .iter()
        .map(|&m| EliminationMapping::Linear { m })
        .collect()
}

fn grid() -> Vec<EliminationMapping> {
    GRID.iter()
        .map(|&s| EliminationMapping::Grid { s })
        .collect()
}

#[test]
fn lu_linear_matches_reference_across_cell_counts() {
    Checker::new("LU on LPGS chains is bit-exact", 3).run(|rng| {
        let seed = rng.next_u64();
        for n in [2usize, 3, 5, 8] {
            check_mappings(Algo::Lu, n, seed, &linear())?;
        }
        Ok(())
    });
}

#[test]
fn lu_grid_matches_reference_across_sides() {
    Checker::new("LU on grids is bit-exact", 3).run(|rng| {
        let seed = rng.next_u64();
        for n in [3usize, 5, 8] {
            check_mappings(Algo::Lu, n, seed, &grid())?;
        }
        Ok(())
    });
}

#[test]
fn faddeev_matches_reference_on_both_mappings() {
    Checker::new("Faddeev on chains and grids is bit-exact", 3).run(|rng| {
        let seed = rng.next_u64();
        let all: Vec<_> = linear().into_iter().chain(grid()).collect();
        for n in [2usize, 3] {
            check_mappings(Algo::Faddeev, n, seed, &all)?;
        }
        Ok(())
    });
}

#[test]
fn useful_ops_match_the_generic_graph() {
    let n = 6;
    let a = elimination_input(n, 3);
    let (_, stats) = run_elimination(Algo::Lu, EliminationMapping::Linear { m: 3 }, &a).unwrap();
    assert_eq!(stats.useful_ops, GenericGGraph::lu(n).total_useful_ops());
}

#[test]
fn varying_durations_never_change_the_result() {
    let n = 7;
    let a = elimination_input(n, 9);
    let (want, uniform) =
        run_elimination(Algo::Lu, EliminationMapping::Linear { m: 3 }, &a).unwrap();
    for mapping in [
        EliminationMapping::Linear { m: 3 },
        EliminationMapping::Grid { s: 2 },
    ] {
        let (got, timed) =
            run_elimination_timed(Algo::Lu, mapping, &a, &level_durations(Algo::Lu, n)).unwrap();
        bit_equal(&got, &want, &format!("{mapping:?} timed")).unwrap();
        assert!(timed.cycles > uniform.cycles, "durations must cost cycles");
    }
}

#[test]
fn linear_beats_grid_occupancy_under_varying_times() {
    // §4.3: with monotone per-row durations, linear G-sets never mix
    // times (one row per set) while an s×s block chains a fast row
    // behind a slow one, throttling it to the slow row's word rate.
    // At equal cell counts (m = s² = 4) measured occupancy must favor
    // the linear chain.
    let n = 12;
    let a = elimination_input(n, 5);
    let durs = level_durations(Algo::Lu, n);
    let (_, lin) =
        run_elimination_timed(Algo::Lu, EliminationMapping::Linear { m: 4 }, &a, &durs).unwrap();
    let (_, grid) =
        run_elimination_timed(Algo::Lu, EliminationMapping::Grid { s: 2 }, &a, &durs).unwrap();
    assert!(
        lin.occupancy() >= grid.occupancy(),
        "linear {} < grid {}",
        lin.occupancy(),
        grid.occupancy()
    );
}

#[test]
fn bad_inputs_are_rejected() {
    let a = elimination_input(5, 1); // odd size: no Faddeev compound
    assert!(matches!(
        run_elimination(Algo::Faddeev, EliminationMapping::Linear { m: 2 }, &a),
        Err(EngineError::BadInput(_))
    ));
    assert!(matches!(
        run_elimination(Algo::Lu, EliminationMapping::Linear { m: 0 }, &a),
        Err(EngineError::BadInput(_))
    ));
    assert!(matches!(
        run_elimination(Algo::Lu, EliminationMapping::Grid { s: 0 }, &a),
        Err(EngineError::BadInput(_))
    ));
    assert!(matches!(
        run_elimination_timed(Algo::Lu, EliminationMapping::Grid { s: 2 }, &a, &[1, 1]),
        Err(EngineError::BadInput(_))
    ));
    let tiny = elimination_input(1, 1);
    assert!(matches!(
        run_elimination(Algo::Lu, EliminationMapping::Linear { m: 1 }, &tiny),
        Err(EngineError::BadInput(_))
    ));
}
