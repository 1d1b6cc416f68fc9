//! `sim_elim`: the §4.3 elimination pipelines. The four distinct ops are LU
//! at n = 48 and Faddeev at n = 24, each on the LPGS chain (m = 4) and on
//! the 2 × 2 grid, with varying G-node times d_k = msize − k through
//! `run_elimination_timed`. Multi-cycle tasks over `Real`, and a fresh plan
//! compiled through `partition::algo` and `transform::generic` per run.
//!
//! `run_elimination_timed` hides its stages, so a traced op is followed by
//! a probe, outside the op span, that repeats the run's stages through
//! the public API — `Algo::graph(..).with_row_durations`,
//! `elimination_plan_timed`, `CompiledPlan::instantiate` / `load`,
//! `ArraySim::run` — with a span per stage. The probe's counters must equal
//! the op's.

use crate::sim_closure::arraysim_layers;
use crate::trace::{mean_self_ns, Tracer};
use crate::{secs, Guard, Quiet, Sample, Summary, Workload};
use std::time::Instant;
use systolic_arraysim::RunStats;
use systolic_dgraph::{eval_elimination_graph, faddeev_graph, lu_graph};
use systolic_partition::{
    elimination_input, elimination_plan_timed, level_durations, run_elimination_timed, Algo,
    EliminationMapping,
};
use systolic_semiring::{DenseMatrix, Real};

/// (default, held-out) seeds.
pub const SEEDS: (u64, u64) = (24, 9002);

/// The runs, one per distinct op: (algorithm, problem size) × mapping.
const PROBLEMS: [(Algo, usize); 2] = [(Algo::Lu, 48), (Algo::Faddeev, 24)];
const MAPPINGS: [EliminationMapping; 2] = [
    EliminationMapping::Linear { m: 4 },
    EliminationMapping::Grid { s: 2 },
];
const RUNS: usize = PROBLEMS.len() * MAPPINGS.len();

struct Problem {
    algo: Algo,
    n: usize,
    input: DenseMatrix<Real>,
    durs: Vec<u32>,
    /// Straight-line reference result, built on first check.
    oracle: Option<DenseMatrix<Real>>,
}

type RunOut = Result<(DenseMatrix<Real>, RunStats), String>;

pub struct SimElim {
    problems: Vec<Problem>,
    cold: Option<Vec<RunOut>>,
    /// The run the next op makes.
    next: usize,
    guard: Guard<RunStats>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl SimElim {
    /// Run `i`: problem `i / MAPPINGS.len()` on mapping `i % MAPPINGS.len()`.
    fn run(&self, i: usize, t: &mut Tracer) -> RunOut {
        let (p, mapping) = (
            &self.problems[i / MAPPINGS.len()],
            MAPPINGS[i % MAPPINGS.len()],
        );
        t.span("partition.run_elimination", |_| {
            run_elimination_timed(p.algo, mapping, &p.input, &p.durs).map_err(|e| e.to_string())
        })
    }

    /// Repeats run `i`'s stages with a span per stage; returns its
    /// counters.
    fn probe(&self, i: usize, t: &mut Tracer) -> Result<RunStats, String> {
        let (p, mapping) = (
            &self.problems[i / MAPPINGS.len()],
            MAPPINGS[i % MAPPINGS.len()],
        );
        t.span("probe", |t| {
            let gg = t.span("transform.ggraph", |_| {
                p.algo.graph(p.n).with_row_durations(&p.durs)
            });
            drop(gg);
            let plan = t.span("partition.plan_compile", |_| {
                elimination_plan_timed(p.algo, p.n, mapping, 1, &p.durs)
            });
            let mut sim = t.span("partition.load", |_| {
                let mut sim = plan.instantiate::<Real>(false);
                plan.load(&mut sim, std::slice::from_ref(&p.input));
                sim
            });
            t.span("arraysim.run", |_| sim.run())
                .map_err(|e| e.to_string())
        })
    }

    /// Checks run `i` bit-exactly against the reference evaluation (so
    /// linear ≡ grid), and its counters against its first repetition's.
    fn check(&mut self, i: usize, run: RunOut) {
        self.attempted += 1;
        let p = &mut self.problems[i / MAPPINGS.len()];
        match run {
            Ok((got, stats)) => {
                let (algo, n, input) = (p.algo, p.n, &p.input);
                let want = p.oracle.get_or_insert_with(|| {
                    let g = match algo {
                        Algo::Lu => lu_graph(n),
                        Algo::Faddeev => faddeev_graph(n),
                    };
                    eval_elimination_graph::<Real>(&g, input)
                        .expect("reference evaluation of a well-formed graph")
                });
                if got
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .ne(want.as_slice().iter().map(|x| x.to_bits()))
                {
                    self.failed += 1;
                }
                self.guard.check(i, "sim_elim RunStats", stats);
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("run_elimination_timed: {e}"));
            }
        }
    }

    /// Checks the set-up's cold runs, once.
    fn check_cold(&mut self) {
        for (i, run) in self.cold.take().into_iter().flatten().enumerate() {
            self.check(i, run);
        }
    }
}

impl Workload for SimElim {
    const KEYS: usize = RUNS;

    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let problems = PROBLEMS
            .iter()
            .enumerate()
            .map(|(i, &(algo, n))| Problem {
                algo,
                n,
                input: elimination_input(algo.msize(n), seed.wrapping_add(i as u64)),
                durs: level_durations(algo, n),
                oracle: None,
            })
            .collect();
        let mut w = Self {
            problems,
            cold: None,
            next: 0,
            guard: Guard::new(RUNS),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        };
        w.cold = Some((0..RUNS).map(|i| w.run(i, t)).collect());
        w
    }

    fn op(&mut self, t: &mut Tracer) -> Sample {
        self.check_cold();
        let i = self.next % RUNS;
        self.next += 1;
        let t0 = Instant::now();
        let run = t.op(|t| self.run(i, t));
        let dt = secs(t0);
        if t.enabled() {
            let probed = self.probe(i, t);
            if !matches!((&probed, &run), (Ok(a), Ok((_, b))) if a == b) {
                self.errors
                    .push(format!("probe of run {i} differs from the op's run"));
            }
        }
        self.check(i, run);
        Sample {
            key: i,
            wall_s: dt,
            work: 1.0,
            work_s: dt,
            latency_us: Some(dt * 1e6),
        }
    }

    fn finish(mut self, t: &Tracer, quiet: &Quiet) -> Summary {
        self.check_cold();
        let mut s = Summary {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.errors,
            ..Summary::default()
        };
        s.problems.extend(self.guard.mismatches.iter().cloned());
        // One pass's counters: the sum over the four runs.
        let mut op_stats: Option<RunStats> = None;
        for i in 0..RUNS {
            if let Some(st) = self.guard.first(i) {
                match &mut op_stats {
                    Some(acc) => acc.merge(st),
                    None => op_stats = Some(st.clone()),
                }
            }
        }
        // Per pass: mean self time per call times the pass's four calls.
        let totals = t.totals();
        let ms = |name| mean_self_ns(&totals, name) / 1e6 * RUNS as f64;
        if let Some(st) = &op_stats {
            s.named = vec![
                ("instances_per_s", quiet.throughput_per_s(), "1/s"),
                ("sim_cycles", st.cycles as f64, "cycles"),
                ("utilization", st.useful_utilization(), "ratio"),
                ("occupancy", st.occupancy(), "ratio"),
            ];
            s.layers = arraysim_layers(st, ms("arraysim.run"));
        }
        s.layers.extend([
            (
                "partition.plan_compile_ms",
                ms("partition.plan_compile"),
                "ms",
            ),
            ("partition.load_ms", ms("partition.load"), "ms"),
            (
                "partition.run_elimination_ms",
                ms("partition.run_elimination"),
                "ms",
            ),
            ("transform.ggraph_ms", ms("transform.ggraph"), "ms"),
        ]);
        s
    }
}
