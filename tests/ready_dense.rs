//! The ready-tracking run loop (`ArraySim::run` on a clean simulator) must
//! be indistinguishable from the dense reference loop (`run_dense`) on real
//! compiled plans: the same outputs and the same `RunStats`, wall time
//! aside. Covers every closure mapping (including an LPGS chain with
//! multi-cycle bypass links) and LU/Faddeev elimination on chains and
//! grids under unit, §4.3 `level_durations` and seeded random per-level
//! G-node durations — the multi-cycle path whose quiet cycles the ready
//! loop jumps over.

use systolic::arraysim::{ArraySim, RunStats};
use systolic::partition::{
    elimination_input, elimination_plan_timed, level_durations, Algo, CompiledPlan,
    EliminationMapping, FixedArrayMapping, FixedLinearMapping, GridMapping, LpgsMapping,
    LsgpMapping, Mapping,
};
use systolic::semiring::{Bool, DenseMatrix, Semiring};
use systolic_util::Rng;

const SEED: u64 = 0x5eed_d3e5;

/// Runs `plan` on `input` through both loops, each on a freshly
/// instantiated and loaded simulator, and returns both results.
fn both_loops<S: Semiring>(
    plan: &CompiledPlan,
    input: &DenseMatrix<S>,
) -> [(Vec<Vec<S::Elem>>, RunStats); 2] {
    let run = |dense: bool| {
        let mut sim: ArraySim<S> = plan.instantiate(false);
        plan.load(&mut sim, std::slice::from_ref(input));
        let stats = if dense { sim.run_dense() } else { sim.run() };
        let stats = stats.unwrap_or_else(|e| panic!("run (dense: {dense}) failed: {e}"));
        (sim.outputs().to_vec(), stats)
    };
    [run(false), run(true)]
}

/// Asserts equal stats, naming the first differing field of interest
/// before the full comparison.
fn assert_same_stats(ready: &RunStats, dense: &RunStats, what: &str) {
    assert_eq!(ready.cycles, dense.cycles, "{what}: cycles");
    assert_eq!(ready.stalls, dense.stalls, "{what}: stalls");
    assert_eq!(ready.busy, dense.busy, "{what}: busy");
    assert_eq!(ready.phases, dense.phases, "{what}: phases");
    assert_eq!(
        ready.peak_bank_resident, dense.peak_bank_resident,
        "{what}: peak_bank_resident"
    );
    assert_eq!(
        ready.max_bank_writes_per_cycle, dense.max_bank_writes_per_cycle,
        "{what}: max_bank_writes_per_cycle"
    );
    assert_eq!(ready, dense, "{what}: RunStats");
}

fn closure_case(mapping: &impl Mapping, n: usize, rng: &mut Rng) {
    let what = format!("{mapping:?} n={n}");
    let input = DenseMatrix::<Bool>::from_fn(n, n, |_, _| rng.gen_bool(0.3));
    let plan = mapping.build_plan(n, 1);
    let [(ready_out, ready), (dense_out, dense)] = both_loops(&plan, &input);
    assert_eq!(ready_out, dense_out, "{what}: outputs");
    assert_same_stats(&ready, &dense, &what);
}

#[test]
fn closure_plans_run_identically_on_both_loops() {
    let mut rng = Rng::seed_from_u64(SEED);
    for n in 2..10 {
        closure_case(&FixedArrayMapping, n, &mut rng);
        closure_case(&FixedLinearMapping, n, &mut rng);
        closure_case(&LpgsMapping::new(3), n, &mut rng);
        closure_case(&LsgpMapping::new(3), n, &mut rng);
        closure_case(&GridMapping::new(2), n, &mut rng);
        // Healthy cells 0, 2 and 6: bypass links of 2 and 4 cycles.
        let bypass = LpgsMapping::bypassing(7, &[1, 3, 4, 5]).unwrap();
        closure_case(&bypass, n, &mut rng);
    }
}

#[test]
fn elimination_plans_run_identically_on_both_loops() {
    let mut rng = Rng::seed_from_u64(SEED);
    let mappings = [
        EliminationMapping::Linear { m: 3 },
        EliminationMapping::Linear { m: 4 },
        EliminationMapping::Grid { s: 2 },
    ];
    let mut multi_cycle = 0;
    for algo in [Algo::Lu, Algo::Faddeev] {
        for n in 2..14 {
            let input = elimination_input(algo.msize(n), rng.next_u64());
            let random: Vec<u32> = (0..algo.levels(n))
                .map(|_| rng.gen_range_u64(1, 10) as u32)
                .collect();
            let timings = [
                ("unit", vec![1; algo.levels(n)]),
                ("level", level_durations(algo, n)),
                ("random", random),
            ];
            for mapping in mappings {
                for (timing, durs) in &timings {
                    let what = format!("{algo:?} n={n} {mapping:?} {timing} {durs:?}");
                    let plan = elimination_plan_timed(algo, n, mapping, 1, durs);
                    let [(ready_out, ready), (dense_out, dense)] = both_loops(&plan, &input);
                    let bits =
                        |out: &[Vec<f64>]| out.iter().flatten().map(|x| x.to_bits()).collect();
                    let (r, d): (Vec<u64>, Vec<u64>) = (bits(&ready_out), bits(&dense_out));
                    assert_eq!(r, d, "{what}: outputs");
                    assert_same_stats(&ready, &dense, &what);
                    multi_cycle += usize::from(durs.iter().any(|&d| d > 1));
                }
            }
        }
    }
    // Every level plan and nearly every random one runs multi-cycle tasks,
    // so most of the suite exercises the quiet-cycle jump.
    assert!(multi_cycle >= 100, "only {multi_cycle} multi-cycle plans");
}
