//! Property tests for varying G-node durations (§4.3), which enter a plan
//! only through the G-graph: a closure graph with every row duration 1
//! must compile to a plan *byte-identical* to `build_plan` — same `Debug`
//! rendering, same results, same `RunStats` — on every closure mapping,
//! and a varying-duration graph (closure, LU or Faddeev) must compile to a
//! plan that replays exactly on a recycled simulator (reset + reload) and
//! changes results never, only timing.

use systolic::partition::{
    elimination_input, Algo, CompiledPlan, FixedArrayMapping, FixedLinearMapping, GridMapping,
    LpgsMapping, LsgpMapping, Mapping,
};
use systolic::transform::GenericGGraph;
use systolic_arraysim::RunStats;
use systolic_semiring::{Bool, DenseMatrix, Semiring};
use systolic_util::{Checker, Rng};

fn bool_batch(rng: &mut Rng, n: usize, len: usize) -> Vec<DenseMatrix<Bool>> {
    (0..len)
        .map(|_| DenseMatrix::from_fn(n, n, |_, _| rng.gen_bool(0.3)))
        .collect()
}

fn run_plan<S: Semiring>(
    plan: &CompiledPlan,
    batch: &[DenseMatrix<S>],
) -> (Vec<Vec<S::Elem>>, RunStats) {
    let mut sim = plan.instantiate::<S>(false);
    plan.load(&mut sim, batch);
    let stats = sim.run().expect("plan runs clean");
    (sim.outputs().to_vec(), stats)
}

/// Every closure mapping compiles the closure graph with explicit unit
/// durations to a byte-identical plan: the `Debug` rendering of the plan,
/// the output streams, and the full `RunStats` all match `build_plan`.
#[test]
fn unit_durations_are_byte_identical_across_all_mappings() {
    Checker::new("unit durations are the identity on plans", 12).run(|rng| {
        let n = 3 + rng.gen_usize(8);
        let len = 1 + rng.gen_usize(2);
        let batch = bool_batch(rng, n, len);
        let unit = GenericGGraph::closure(n).with_row_durations(&vec![1; n]);
        let plans: Vec<(String, CompiledPlan, CompiledPlan)> = vec![
            (
                format!("linear m=3 n={n}"),
                LpgsMapping::new(3).build_plan(n, len),
                LpgsMapping::new(3).graph_plan(&unit, len),
            ),
            (
                format!("lsgp m=4 n={n}"),
                LsgpMapping::new(4).build_plan(n, len),
                LsgpMapping::new(4).graph_plan(&unit, len),
            ),
            (
                format!("grid s=2 n={n}"),
                GridMapping::new(2).build_plan(n, len),
                GridMapping::new(2).graph_plan(&unit, len),
            ),
            (
                format!("fixed n={n}"),
                FixedArrayMapping.build_plan(n, len),
                FixedArrayMapping.graph_plan(&unit, len),
            ),
            (
                format!("fixed-linear n={n}"),
                FixedLinearMapping.build_plan(n, len),
                FixedLinearMapping.graph_plan(&unit, len),
            ),
        ];
        for (what, plan, unit) in plans {
            assert_eq!(
                format!("{plan:?}"),
                format!("{unit:?}"),
                "{what}: unit durations must not rewrite the plan"
            );
            let (out_a, stats_a) = run_plan(&plan, &batch);
            let (out_b, stats_b) = run_plan(&unit, &batch);
            assert_eq!(out_a, out_b, "{what}: outputs diverged");
            assert_eq!(stats_a, stats_b, "{what}: stats diverged");
        }
        Ok(())
    });
}

/// Runs a unit-duration plan and its varying-duration twin on `batch` and
/// checks the §4.3 contract: the same outputs, strictly more cycles, and
/// an exact replay of the timed plan on a recycled simulator.
fn check_timed<S: Semiring>(
    what: &str,
    plan: &CompiledPlan,
    timed: &CompiledPlan,
    batch: &[DenseMatrix<S>],
) {
    let (out_unit, stats_unit) = run_plan(plan, batch);
    let (out_fresh, stats_fresh) = run_plan(timed, batch);
    assert_eq!(out_unit, out_fresh, "{what}: durations changed the results");
    assert!(
        stats_fresh.cycles > stats_unit.cycles,
        "{what}: durations must cost cycles ({} vs {})",
        stats_fresh.cycles,
        stats_unit.cycles
    );
    // Recycled replay: reset the simulator, reload, run again.
    let mut sim = timed.instantiate::<S>(false);
    timed.load(&mut sim, batch);
    let first = sim.run().expect("first run");
    let first_out = sim.outputs().to_vec();
    sim.reset();
    timed.load(&mut sim, batch);
    let replay = sim.run().expect("replayed run");
    let replay_out = sim.outputs().to_vec();
    assert_eq!(
        first_out, replay_out,
        "{what}: recycled replay changed outputs"
    );
    assert_eq!(first, replay, "{what}: recycled replay changed stats");
    assert_eq!(
        (out_fresh, stats_fresh),
        (first_out, first),
        "{what}: fresh and recycled sims disagree"
    );
}

/// A mapping's plan builder at batch length 1.
type Compile = fn(&GenericGGraph) -> CompiledPlan;

/// Varying durations change timing, never values: a graph with a §4.3
/// duration profile compiles to a plan that produces the same output
/// streams as the unit graph's while costing strictly more cycles, and
/// replaying it on a recycled simulator (reset + reload) reproduces the
/// fresh run bit-for-bit — for closure, LU and Faddeev graphs on the
/// linear and grid arrays.
#[test]
fn varying_duration_plans_replay_exactly_and_preserve_results() {
    Checker::new("varying durations replay exactly", 8).run(|rng| {
        let n = 3 + rng.gen_usize(6);
        let batch = bool_batch(rng, n, 1);
        // Monotone §4.3-style profile plus a random bump.
        let mut profile = |rows: usize| -> Vec<u32> {
            (0..rows)
                .map(|k| (rows - k) as u32 + rng.gen_usize(3) as u32)
                .collect()
        };
        let closure = GenericGGraph::closure(n);
        let closure_timed = closure.clone().with_row_durations(&profile(n));
        let elim: Vec<_> = [Algo::Lu, Algo::Faddeev]
            .into_iter()
            .map(|algo| {
                let gg = algo.graph(n);
                let timed = gg.clone().with_row_durations(&profile(gg.rows()));
                let a = elimination_input(algo.msize(n), n as u64);
                (algo, gg, timed, a)
            })
            .collect();
        let compilers: [(&str, Compile); 2] = [
            ("linear m=2", |gg| LpgsMapping::new(2).graph_plan(gg, 1)),
            ("grid s=2", |gg| GridMapping::new(2).graph_plan(gg, 1)),
        ];
        for (what, compile) in compilers {
            check_timed(
                &format!("{what} closure"),
                &compile(&closure),
                &compile(&closure_timed),
                &batch,
            );
            for (algo, gg, timed, a) in &elim {
                check_timed(
                    &format!("{what} {}", algo.name()),
                    &compile(gg),
                    &compile(timed),
                    std::slice::from_ref(a),
                );
            }
        }
        Ok(())
    });
}
