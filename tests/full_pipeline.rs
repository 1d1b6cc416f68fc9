//! End-to-end integration: dependence graph → transformations → G-graph →
//! schedules → simulated arrays → metrics, all on one problem instance.

use systolic::closure::{gnp, Backend, ClosureSolver};
use systolic::dgraph::{closure_full, closure_lean, eval_closure_graph};
use systolic::metrics::{compare_grid_run, compare_linear_run, LinearModel};
use systolic::partition::{
    ClosureEngine, FixedArrayEngine, FixedLinearEngine, GridEngine, GsetSchedule, LinearEngine,
};
use systolic::transform::{ggraph, pipelined, regular, unidirectional, GenericGGraph};
use systolic_semiring::{reflexive, warshall, Bool};

#[test]
fn every_stage_and_engine_agrees_with_warshall() {
    for (n, seed) in [(5usize, 1u64), (8, 2), (11, 3)] {
        let a = gnp(n, 0.25, seed).adjacency_matrix();
        let want = warshall(&a);
        let ar = reflexive(&a);

        // Graph stages.
        for (name, g) in [
            ("full", closure_full(n)),
            ("lean", closure_lean(n)),
            ("pipelined", pipelined(n)),
            ("unidirectional", unidirectional(n)),
            ("regular", regular(n)),
        ] {
            let got =
                eval_closure_graph::<Bool>(&g, &ar).unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
            assert_eq!(got, want, "{name} n={n}");
        }

        // G-graph stream semantics.
        assert_eq!(ggraph::eval::<Bool>(&ar), want, "ggraph n={n}");

        // Simulated arrays.
        let engines: Vec<(&str, Box<dyn ClosureEngine<Bool>>)> = vec![
            ("fixed", Box::new(FixedArrayEngine::new())),
            ("fixed-linear", Box::new(FixedLinearEngine::new())),
            ("linear m=3", Box::new(LinearEngine::new(3))),
            ("linear m=7", Box::new(LinearEngine::new(7))),
            ("grid 2x2", Box::new(GridEngine::new(2))),
            ("grid 3x3", Box::new(GridEngine::new(3))),
        ];
        for (name, eng) in engines {
            let (got, stats) = eng.closure(&a).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(got, want, "{name} n={n}");
            assert_eq!(stats.useful_ops, (n * (n - 1) * (n - 2)) as u64, "{name}");
        }
    }
}

#[test]
fn schedules_are_legal_and_cover_the_ggraph() {
    for n in [4usize, 9, 16, 25] {
        let gg = GenericGGraph::closure(n);
        for m in [1usize, 2, 3, 5, 8] {
            let s = GsetSchedule::linear(&gg, m);
            assert_eq!(s.total_gnodes(), n * (n + 1));
            s.verify_legal().unwrap();
        }
        for side in [1usize, 2, 3, 4] {
            let s = GsetSchedule::grid(&gg, side);
            assert_eq!(s.total_gnodes(), n * (n + 1));
            s.verify_legal().unwrap();
        }
    }
}

#[test]
fn measured_metrics_track_the_paper_models() {
    // One mid-size design point per structure; chained instances push the
    // measurement toward steady state. Tolerances cover pipeline fill and
    // the paper-acknowledged boundary sets.
    let n = 20;
    let batch: Vec<_> = (0..4)
        .map(|i| gnp(n, 0.2, 50 + i).adjacency_matrix())
        .collect();

    let (res, stats) = LinearEngine::new(4).closure_many(&batch).unwrap();
    for (r, a) in res.iter().zip(&batch) {
        assert_eq!(*r, warshall(a));
    }
    for row in compare_linear_run(n, 4, &stats, batch.len() as u64) {
        if row.metric.contains("throughput") || row.metric.contains("utilization") {
            assert!(
                row.within(0.25),
                "linear {}: paper {} measured {}",
                row.metric,
                row.paper,
                row.measured
            );
        }
    }

    let (res, stats) = GridEngine::new(2).closure_many(&batch).unwrap();
    for (r, a) in res.iter().zip(&batch) {
        assert_eq!(*r, warshall(a));
    }
    for row in compare_grid_run(n, 2, &stats, batch.len() as u64) {
        if row.metric.contains("throughput") || row.metric.contains("utilization") {
            assert!(
                row.within(0.25),
                "grid {}: paper {} measured {}",
                row.metric,
                row.paper,
                row.measured
            );
        }
    }
}

#[test]
fn linear_and_grid_share_throughput_at_equal_cells() {
    // §4.2: same m ⇒ same throughput/utilization. Measured cycles of the
    // two structures must agree within a small factor.
    let n = 18;
    let a = gnp(n, 0.2, 9).adjacency_matrix();
    let (_, ls) = LinearEngine::new(4).closure(&a).unwrap();
    let (_, gs) = GridEngine::new(2).closure(&a).unwrap();
    let ratio = ls.cycles as f64 / gs.cycles as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "linear {} vs grid {} cycles",
        ls.cycles,
        gs.cycles
    );
    // Paper model for reference.
    let model = LinearModel { n, m: 4 };
    assert!(ls.cycles as f64 >= model.cycles_per_instance());
}

#[test]
fn solver_facade_matches_direct_engines() {
    let g = gnp(9, 0.3, 77);
    let direct = LinearEngine::new(3)
        .closure(&g.adjacency_matrix())
        .unwrap()
        .0;
    let facade = ClosureSolver::new(Backend::Linear { cells: 3 })
        .transitive_closure(&g)
        .unwrap();
    for i in 0..9 {
        for j in 0..9 {
            assert_eq!(*direct.get(i, j), facade.reachable(i, j));
        }
    }
}
