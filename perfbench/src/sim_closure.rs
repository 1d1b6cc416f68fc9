//! `sim_closure`: the paper's recommended array — LPGS onto m = 4 linear
//! cells — closing 4-instance batches of random n = 32 Boolean graphs on a
//! warm engine. Almost all host time is `arraysim`'s unit-duration event
//! loop.
//!
//! Untraced ops call `ClosureEngine::closure_many`. Traced ops make the same
//! calls it makes, through the public plan API (`Mapping::build_plan`,
//! `CompiledPlan::instantiate` / `load`, `ArraySim::run`), so the plan
//! compile, load, simulator run and output decode get spans of their own.

use crate::trace::{mean_self_ns, Tracer};
use crate::{secs, Guard, Quiet, Sample, Summary, Workload};
use std::time::Instant;
use systolic_arraysim::{ArraySim, RunStats};
use systolic_bench::parallel_batch_input;
use systolic_partition::{ClosureEngine, CompiledPlan, LinearEngine, Mapping};
use systolic_semiring::{reflexive, BitMatrix, Bool, DenseMatrix};

/// (default, held-out) seeds.
pub const SEEDS: (u64, u64) = (0x5eed, 9001);
/// Vertices per instance.
const N: usize = 32;
/// Instances per `closure_many` call.
const BATCH: usize = 4;
/// LPGS cells.
const CELLS: usize = 4;
/// Distinct batches cycled through, the workload's distinct ops; each
/// repeats, feeding the guard.
const POOL: usize = 4;

type BatchOut = Result<(Vec<DenseMatrix<Bool>>, RunStats), String>;

pub struct SimClosure {
    engine: LinearEngine,
    batches: Vec<Vec<DenseMatrix<Bool>>>,
    /// Oracle closures per batch, built on first check.
    oracle: Vec<Option<Vec<BitMatrix>>>,
    /// Plan and simulator of the traced (decomposed) path.
    plan: Option<CompiledPlan>,
    sim: Option<ArraySim<Bool>>,
    next: usize,
    /// Outputs of the set-up's cold call, checked with the first op.
    cold: Option<BatchOut>,
    guard: Guard<RunStats>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    stats: Option<RunStats>,
}

impl SimClosure {
    /// One batch through the engine: `closure_many` untraced, the same
    /// steps with a span each when traced.
    fn close(
        &mut self,
        b: usize,
        t: &mut Tracer,
    ) -> Result<(Vec<DenseMatrix<Bool>>, RunStats), String> {
        if !t.enabled() {
            return self
                .engine
                .closure_many(&self.batches[b])
                .map_err(|e| e.to_string());
        }
        let plan = match self.plan.take() {
            Some(p) => p,
            None => t.span("partition.plan_compile", |_| {
                self.engine.mapping().build_plan(N, BATCH)
            }),
        };
        let mut sim = self.sim.take().unwrap_or_else(|| plan.instantiate(false));
        let mats = &self.batches[b];
        let out = t.span("partition.closure_many", |t| {
            let batch: Vec<DenseMatrix<Bool>> = mats.iter().map(reflexive).collect();
            sim.reset();
            t.span("partition.load", |_| plan.load(&mut sim, &batch));
            let stats = t
                .span("arraysim.run", |_| sim.run())
                .map_err(|e| e.to_string())?;
            let outs = sim.outputs();
            let mut results = Vec::with_capacity(BATCH);
            for inst in 0..BATCH {
                let mut r = DenseMatrix::<Bool>::zeros(N, N);
                for j in 0..N {
                    r.set_col(j, &outs[inst * N + j]);
                }
                results.push(r);
            }
            Ok((results, stats))
        });
        self.plan = Some(plan);
        self.sim = Some(sim);
        out
    }

    /// Checks a batch's outputs against `BitMatrix::transitive_closure` and
    /// its counters against the batch's first run.
    fn check(&mut self, b: usize, got: BatchOut) {
        self.attempted += BATCH as u64;
        let (results, stats) = match got {
            Ok(r) => r,
            Err(e) => {
                self.failed += BATCH as u64;
                self.errors.push(format!("closure_many: {e}"));
                return;
            }
        };
        let batches = &self.batches;
        let want = self.oracle[b].get_or_insert_with(|| {
            batches[b]
                .iter()
                .map(|a| BitMatrix::from_dense(a).transitive_closure())
                .collect()
        });
        for (r, w) in results.iter().zip(want.iter()) {
            if BitMatrix::from_dense(r) != *w {
                self.failed += 1;
            }
        }
        self.guard.check(b, "sim_closure RunStats", stats.clone());
        self.stats.get_or_insert(stats);
    }
}

impl Workload for SimClosure {
    const KEYS: usize = POOL;

    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let batches = (0..POOL)
            .map(|b| parallel_batch_input(BATCH, N, seed.wrapping_add((b * BATCH) as u64)))
            .collect();
        let mut w = Self {
            engine: LinearEngine::new(CELLS),
            batches,
            oracle: vec![None; POOL],
            plan: None,
            sim: None,
            next: 1,
            cold: None,
            guard: Guard::new(POOL),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            stats: None,
        };
        let cold = w.close(0, t);
        w.cold = Some(cold);
        w
    }

    fn op(&mut self, t: &mut Tracer) -> Sample {
        if let Some(cold) = self.cold.take() {
            self.check(0, cold);
        }
        let b = self.next % POOL;
        self.next += 1;
        let t0 = Instant::now();
        let got = t.op(|t| self.close(b, t));
        let dt = secs(t0);
        self.check(b, got);
        Sample {
            key: b,
            wall_s: dt,
            work: BATCH as f64,
            work_s: dt,
            latency_us: Some(dt * 1e6),
        }
    }

    fn finish(mut self, t: &Tracer, quiet: &Quiet) -> Summary {
        if let Some(cold) = self.cold.take() {
            self.check(0, cold);
        }
        let mut s = Summary {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.errors,
            ..Summary::default()
        };
        s.problems.extend(self.guard.mismatches);
        if let Some(st) = &self.stats {
            s.named = vec![
                ("instances_per_s", quiet.throughput_per_s(), "1/s"),
                ("sim_cycles", st.cycles as f64, "cycles"),
                ("utilization", st.useful_utilization(), "ratio"),
            ];
        }
        let totals = t.totals();
        let ms = |name| mean_self_ns(&totals, name) / 1e6;
        s.layers = vec![
            (
                "partition.plan_compile_ms",
                ms("partition.plan_compile"),
                "ms",
            ),
            ("partition.load_ms", ms("partition.load"), "ms"),
            ("partition.decode_ms", ms("partition.closure_many"), "ms"),
        ];
        if let Some(st) = &self.stats {
            s.layers.extend(arraysim_layers(st, ms("arraysim.run")));
        }
        s
    }
}

/// The `arraysim.*` per-layer metrics of one op's counters and the mean
/// self time of its `ArraySim::run` calls.
pub fn arraysim_layers(st: &RunStats, run_ms: f64) -> Vec<crate::Metric> {
    let busy: u64 = st.busy.iter().sum();
    let cell_cycles = (st.cycles * st.cells as u64) as f64;
    vec![
        ("arraysim.run_ms", run_ms, "ms"),
        (
            "arraysim.ns_per_cell_cycle",
            run_ms * 1e6 / cell_cycles.max(1.0),
            "ns",
        ),
        ("arraysim.cycles", st.cycles as f64, "cycles"),
        ("arraysim.busy_cell_cycles", busy as f64, "cycles"),
        (
            "arraysim.stall_cell_cycles",
            st.total_stalls() as f64,
            "cycles",
        ),
        ("arraysim.useful_ops", st.useful_ops as f64, "count"),
        ("arraysim.bank_reads", st.bank_reads as f64, "count"),
        ("arraysim.bank_writes", st.bank_writes as f64, "count"),
        ("arraysim.host_words", st.host_words as f64, "count"),
        (
            "arraysim.useful_ratio",
            st.useful_ops as f64 / busy.max(1) as f64,
            "ratio",
        ),
        ("arraysim.utilization", st.useful_utilization(), "ratio"),
    ]
}
