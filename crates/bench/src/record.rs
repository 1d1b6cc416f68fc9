//! The perf recorder behind `scripts/bench_smoke.sh` (the `bench_record`
//! binary): runs every recorded row in one process, writes
//! `BENCH_partition.json` and checks the gates on the values it measured.
//!
//! Every gated ratio is between two rows of the same run, so the gates
//! hold on any machine regardless of absolute speed. Gates compare the
//! full-precision measurements; the JSON only rounds them for display. A
//! gate whose value is missing, NaN or zero fails: a row that was never
//! measured must not pass vacuously.

use crate::serve::{
    run_concurrent_bench, run_recover_bench, run_serve_bench, ConcurrentBenchReport,
    RecoverBenchReport, ServeBenchReport,
};
use crate::sparse::{compare_graph, scale_row, ScaleRow, TILE};
use crate::{minplus_batch_input, parallel_batch_input, varying_measurement, VaryingMeasurement};
use std::fmt::{self, Write as _};
use std::path::Path;
use std::time::Duration;
use systolic_closure::{condense_csr, SparseClosure};
use systolic_partition::{
    elimination_input, elimination_plan_timed, level_durations, tiled_dag_closure, Algo,
    ClosureEngine, EliminationMapping, LinearEngine, LsgpEngine, PackedEngine, ParallelEngine,
};
use systolic_semiring::{BitMatrix, BoolLanes, DenseMatrix, MinPlusSwar8, PathSemiring, Real};
use systolic_util::{black_box, time_with_setup, Rng, Timing};

/// Timed samples per row.
pub const SAMPLES: usize = 7;
/// Warm-up before each row's samples.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Commands in the software serve stream; the batched stream, the
/// concurrent run and the recover run replay 1/10, 1/20 and 1/4 of it.
pub const SERVE_COMMANDS: usize = 20_000;
/// Seed of every serve run.
pub const SERVE_SEED: u64 = 20_260_808;
/// LU problem size of the varying-time (E30) row.
pub const VARYING_N: usize = 24;
/// Hard peak-RSS ceiling after the 10⁵ sparse row (128 MiB; dense `n²/8`
/// alone would be 1.16 GiB).
pub const PEAK_BYTES_CEILING_1E5: f64 = 134_217_728.0;

/// Everything one recorder run measured.
#[derive(Debug)]
pub struct Record {
    /// Timed rows `(id, timing)`, in run order.
    pub rows: Vec<(String, Timing)>,
    /// Sparse scaling rows, ascending `n`.
    pub sparse: Vec<ScaleRow>,
    /// The §4.3 varying-time comparison at [`VARYING_N`].
    pub varying: VaryingMeasurement,
    /// Serve streams: software, then batched.
    pub serve: Vec<ServeBenchReport>,
    /// The concurrent-TCP run.
    pub concurrent: ConcurrentBenchReport,
    /// The kill-and-recover run.
    pub recover: RecoverBenchReport,
}

impl Record {
    /// Same-run speedup `median(slow) / median(fast)`; `None` when either
    /// row is missing or timed at zero.
    pub fn speedup(&self, slow: &str, fast: &str) -> Option<f64> {
        let median = |id| Some(self.rows.iter().find(|(r, _)| r == id)?.1.median);
        let (s, f) = (median(slow)?, median(fast)?);
        (!s.is_zero() && !f.is_zero()).then(|| s.as_secs_f64() / f.as_secs_f64())
    }

    /// The `BENCH_partition.json` document for this record.
    pub fn to_json(&self) -> Vec<(&'static str, Json)> {
        let results = self.rows.iter().map(|(id, t)| timing_json(id, t));
        let mut doc = vec![
            (
                "bench",
                Json::Str("partition perf smoke (scripts/bench_smoke.sh)".into()),
            ),
            ("samples", Json::Int(SAMPLES as u64)),
            ("results", Json::Arr(results.collect())),
        ];
        for g in &GATES {
            let v = (g.measure)(self);
            match g.json {
                Fmt::Decimals(d) => doc.push((g.key, Json::Num(v.unwrap_or(f64::NAN), d))),
                Fmt::Flag => doc.push((g.key, v.map_or(Json::Null, |v| Json::Bool(v >= 1.0)))),
                Fmt::Unrecorded => {}
            }
        }
        let mut sparse = Vec::new();
        for r in &self.sparse {
            sparse.push(scale_json(r));
            if r.n == 10_000 {
                sparse.push(tiles_json(r));
            }
        }
        let chaos = vec![
            concurrent_json(&self.concurrent),
            recover_json(&self.recover),
        ];
        doc.extend([
            (
                "varying_analytic_linear",
                Json::Num(self.varying.analytic_linear, 4),
            ),
            (
                "varying_analytic_grid",
                Json::Num(self.varying.analytic_grid, 4),
            ),
            ("sparse", Json::Arr(sparse)),
            (
                "serve",
                Json::Arr(self.serve.iter().map(serve_json).collect()),
            ),
            ("chaos", Json::Arr(chaos)),
        ]);
        doc
    }
}

fn ms(d: Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e3, 3)
}

fn int(v: usize) -> Json {
    Json::Int(v as u64)
}

fn timing_json(id: &str, t: &Timing) -> Json {
    Json::Obj(vec![
        ("id", Json::Str(id.into())),
        ("median_ms", ms(t.median)),
        ("mean_ms", ms(t.mean)),
        ("min_ms", ms(t.min)),
    ])
}

fn scale_json(r: &ScaleRow) -> Json {
    Json::Obj(vec![
        ("id", Json::Str(format!("sparse_scale/{}", r.n))),
        ("edges", int(r.edges)),
        ("scc", int(r.scc)),
        ("dag_edges", int(r.dag_edges)),
        ("mode", Json::Str(format!("{:?}", r.mode))),
        ("fill_pairs", Json::Sci(r.fill_pairs)),
        ("fill_exact", Json::Bool(r.fill_exact)),
        ("mem_bytes", int(r.mem_bytes)),
        (
            "peak_rss_bytes",
            r.peak_rss_bytes.map_or(Json::Null, Json::Int),
        ),
        ("gen_ms", Json::Num(r.gen_ms, 1)),
        ("close_ms", Json::Num(r.close_ms, 1)),
    ])
}

fn tiles_json(r: &ScaleRow) -> Json {
    let t = &r.tiles;
    Json::Obj(vec![
        ("id", Json::Str(format!("sparse_tiles/{}", r.n))),
        ("tile", int(TILE)),
        ("grid", int(t.grid)),
        ("total", int(t.total_tiles)),
        ("occupied_in", int(t.occupied_input_tiles)),
        ("occupied_out", int(t.occupied_output_tiles)),
        ("muls", int(t.tile_muls)),
        ("skipped", int(t.skipped_muls)),
    ])
}

fn serve_json(r: &ServeBenchReport) -> Json {
    Json::Obj(vec![
        ("id", Json::Str(format!("serve_stream/{}", r.id))),
        ("n", int(r.n)),
        ("commands", int(r.commands)),
        ("qps", Json::Num(r.qps, 0)),
        ("p50_us", Json::Num(r.p50_us, 3)),
        ("p99_us", Json::Num(r.p99_us, 3)),
        ("max_us", Json::Num(r.max_us, 3)),
        ("ok", Json::Bool(r.ok)),
    ])
}

fn concurrent_json(r: &ConcurrentBenchReport) -> Json {
    Json::Obj(vec![
        ("id", Json::Str(format!("serve_concurrent/c{}", r.clients))),
        ("n", int(r.n)),
        ("queries", int(r.queries)),
        ("qps", Json::Num(r.qps, 0)),
        ("ok", Json::Bool(r.ok)),
    ])
}

fn recover_json(r: &RecoverBenchReport) -> Json {
    Json::Obj(vec![
        ("id", Json::Str(format!("serve_recover/n{}", r.n))),
        ("ops", int(r.ops)),
        ("wal_bytes", Json::Int(r.wal_bytes)),
        ("recover_ms", Json::Num(r.recover_ms, 2)),
        ("ok", Json::Bool(r.ok)),
    ])
}

/// How a gate judges its measured value. A missing value or NaN always
/// fails; every threshold is positive, so zero fails too.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// The value must be at least this.
    AtLeast(f64),
    /// The value must lie in `(0, ceiling]`: for a resource ceiling, zero
    /// means the measurement is missing.
    Within(f64),
}

impl Bound {
    /// Whether `v` passes.
    pub fn admits(self, v: Option<f64>) -> bool {
        let Some(v) = v else { return false };
        match self {
            Bound::AtLeast(min) => v >= min,
            Bound::Within(max) => v > 0.0 && v <= max,
        }
    }
}

/// How a gate's value appears in `BENCH_partition.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fmt {
    /// A top-level number with this many decimals.
    Decimals(usize),
    /// A top-level boolean (`true` when the value is 1).
    Flag,
    /// Not a top-level key: the gate reads the `serve`/`chaos` rows.
    Unrecorded,
}

/// One acceptance gate of the perf smoke.
#[derive(Debug)]
pub struct Gate {
    /// JSON key (or, for [`Fmt::Unrecorded`] gates, the rows it reads).
    pub key: &'static str,
    /// Pass condition.
    pub bound: Bound,
    /// Reads the gated value from a record; `None` when it is missing.
    pub measure: fn(&Record) -> Option<f64>,
    /// How the value is written.
    pub json: Fmt,
}

fn flag(b: bool) -> Option<f64> {
    Some(if b { 1.0 } else { 0.0 })
}

const LINEAR: &str = "batched_closure/linear_m4/32x32";
const W1: &str = "batched_closure/packed_w1_m4/128x32";
const SIM_DENSE: &str = "sim_loop/dense/lu48_linear_m4";
const SIM_READY: &str = "sim_loop/ready/lu48_linear_m4";

/// Every perf-smoke gate.
pub const GATES: [Gate; 18] = [
    // The lsgp ratio only needs to exist and be sane (LSGP trades
    // throughput for Θ(n²/m) buffering, not speed); the 64-lane packed
    // engine must beat the scalar engine 8×.
    Gate {
        key: "lsgp_speedup_vs_linear",
        bound: Bound::AtLeast(0.1),
        measure: |r| r.speedup(LINEAR, "batched_closure/lsgp_m4/32x32"),
        json: Fmt::Decimals(2),
    },
    Gate {
        key: "packed_speedup_vs_linear",
        bound: Bound::AtLeast(8.0),
        measure: |r| r.speedup(LINEAR, "batched_closure/packed_m4/32x32"),
        json: Fmt::Decimals(2),
    },
    // The lane-width sweep ran at every W (the win saturates once one
    // group covers the batch, so these only need to exist).
    Gate {
        key: "packed_w2_speedup_vs_w1",
        bound: Bound::AtLeast(0.1),
        measure: |r| r.speedup(W1, "batched_closure/packed_w2_m4/128x32"),
        json: Fmt::Decimals(2),
    },
    Gate {
        key: "packed_w4_speedup_vs_w1",
        bound: Bound::AtLeast(0.1),
        measure: |r| r.speedup(W1, "batched_closure/packed_w4_m4/128x32"),
        json: Fmt::Decimals(2),
    },
    Gate {
        key: "minplus_packed_speedup",
        bound: Bound::AtLeast(4.0),
        measure: |r| {
            r.speedup(
                "batched_closure/minplus_m4/32x32",
                "batched_closure/minplus_packed_m4/32x32",
            )
        },
        json: Fmt::Decimals(2),
    },
    // The cache-blocked pivot sweep is no slower at n = 256 and faster
    // at n = 2048.
    Gate {
        key: "bitmatrix_blocked_speedup_256",
        bound: Bound::AtLeast(0.95),
        measure: |r| {
            r.speedup(
                "batched_closure/bitmatrix_unblocked/256",
                "batched_closure/bitmatrix_blocked/256",
            )
        },
        json: Fmt::Decimals(2),
    },
    Gate {
        key: "bitmatrix_blocked_speedup_2048",
        bound: Bound::AtLeast(1.02),
        measure: |r| {
            r.speedup(
                "batched_closure/bitmatrix_unblocked/2048",
                "batched_closure/bitmatrix_blocked/2048",
            )
        },
        json: Fmt::Decimals(2),
    },
    Gate {
        key: "sparse_speedup_vs_dense_4096",
        bound: Bound::AtLeast(20.0),
        measure: |r| r.speedup("sparse_closure/dense_4096", "sparse_closure/sparse_4096"),
        json: Fmt::Decimals(2),
    },
    Gate {
        key: "sparse_scale_rows",
        bound: Bound::AtLeast(3.0),
        measure: |r| Some(r.sparse.len() as f64),
        json: Fmt::Decimals(0),
    },
    Gate {
        key: "sparse_peak_bytes_1e5",
        bound: Bound::Within(PEAK_BYTES_CEILING_1E5),
        measure: |r| Some(r.sparse.iter().find(|s| s.n == 100_000)?.peak_rss_bytes? as f64),
        json: Fmt::Decimals(0),
    },
    // §4.3 (E30): both utilizations recorded, the linear chain at least
    // as utilized as the equal-cell grid, and both within ±0.02 of the
    // lock-step analytic model (`varying_ok`).
    Gate {
        key: "varying_utilization_linear",
        bound: Bound::AtLeast(0.5),
        measure: |r| Some(r.varying.measured_linear),
        json: Fmt::Decimals(4),
    },
    Gate {
        key: "varying_utilization_grid",
        bound: Bound::AtLeast(0.5),
        measure: |r| Some(r.varying.measured_grid),
        json: Fmt::Decimals(4),
    },
    Gate {
        key: "varying_linear_over_grid",
        bound: Bound::AtLeast(1.0),
        measure: |r| {
            let v = &r.varying;
            (v.measured_grid > 0.0).then(|| v.measured_linear / v.measured_grid)
        },
        json: Fmt::Decimals(2),
    },
    Gate {
        key: "varying_ok",
        bound: Bound::AtLeast(1.0),
        measure: |r| flag(r.varying.gates_hold()),
        json: Fmt::Flag,
    },
    // The simulator's event-driven ready loop, which jumps the quiet cycles
    // of §4.3's multi-cycle G-nodes, against the every-cycle dense loop on
    // the same loaded plan.
    Gate {
        key: "elim_ready_speedup_vs_dense",
        bound: Bound::AtLeast(2.0),
        measure: |r| r.speedup(SIM_DENSE, SIM_READY),
        json: Fmt::Decimals(2),
    },
    // Both serve streams recorded, every answer oracle-checked: the value
    // is the stream count when all are ok, else 0.
    Gate {
        key: "serve_stream",
        bound: Bound::AtLeast(2.0),
        measure: |r| {
            let all_ok = r.serve.iter().all(|s| s.ok);
            Some(if all_ok { r.serve.len() as f64 } else { 0.0 })
        },
        json: Fmt::Unrecorded,
    },
    // The chaos smoke: concurrent sessions all oracle-correct with none
    // failed, and kill-and-recover rebuilding the exact committed closure
    // with its recovery time measured.
    Gate {
        key: "serve_concurrent",
        bound: Bound::AtLeast(1.0),
        measure: |r| flag(r.concurrent.ok),
        json: Fmt::Unrecorded,
    },
    Gate {
        key: "serve_recover",
        bound: Bound::AtLeast(1.0),
        measure: |r| flag(r.recover.ok && r.recover.recover_ms > 0.0),
        json: Fmt::Unrecorded,
    },
];

/// A JSON value as the recorder writes it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer.
    Int(u64),
    /// A number with this many decimals; `null` when not finite.
    Num(f64, usize),
    /// A number in scientific notation, three decimals; `null` when not
    /// finite.
    Sci(f64),
    /// A string.
    Str(String),
    /// An object, written on one line.
    Obj(Vec<(&'static str, Json)>),
    /// An array of rows, one per line (top-level keys only).
    Arr(Vec<Json>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Num(v, d) if v.is_finite() => write!(f, "{v:.d$}"),
            Json::Sci(v) if v.is_finite() => write!(f, "{v:.3e}"),
            Json::Null | Json::Num(..) | Json::Sci(_) => f.write_str("null"),
            Json::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    write!(f, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " })?;
                }
                f.write_str("}")
            }
            Json::Arr(items) if items.is_empty() => f.write_str("[]"),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}\n    {v}", if i == 0 { "" } else { "," })?;
                }
                f.write_str("\n  ]")
            }
        }
    }
}

/// Renders a top-level object, one key per line.
pub fn render(doc: &[(&'static str, Json)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in doc.iter().enumerate() {
        let sep = if i + 1 < doc.len() { "," } else { "" };
        let _ = writeln!(out, "  \"{k}\": {v}{sep}");
    }
    out.push_str("}\n");
    out
}

/// Writes `doc` to `path` through a temporary sibling file and a rename,
/// so a failed run never leaves a half-written file behind.
///
/// # Errors
/// Any I/O error from the write or the rename.
pub fn write(path: &Path, doc: &[(&'static str, Json)]) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, render(doc))?;
    std::fs::rename(&tmp, path)
}

/// Timed rows `(id, timing)`, in run order.
#[derive(Default)]
struct Rows(Vec<(String, Timing)>);

impl Rows {
    fn time(&mut self, id: &str, mut f: impl FnMut()) {
        self.time_with_setup(id, || (), |_| f());
    }

    /// Times `f` on a fresh `setup()` per call; only `f` is timed.
    fn time_with_setup<T>(&mut self, id: &str, setup: impl FnMut() -> T, f: impl FnMut(&mut T)) {
        eprintln!("bench_record: {id}");
        let t = time_with_setup(SAMPLES, WARMUP, setup, f);
        self.0.push((id.to_string(), t));
    }

    fn batch<S: PathSemiring>(
        &mut self,
        id: &str,
        engine: &impl ClosureEngine<S>,
        batch: &[DenseMatrix<S>],
    ) {
        self.time(id, || {
            black_box(engine.closure_many(batch).expect("bench batch closes"));
        });
    }
}

fn random_bitmatrix(n: usize, seed: u64) -> BitMatrix {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = BitMatrix::identity(n);
    for _ in 0..(n * 8) {
        m.set(rng.gen_usize(n), rng.gen_usize(n), true);
    }
    m
}

/// `batched_closure/*`: 32-instance n = 32 batches on one reused m = 4
/// engine per mapping and lane plane, plus the blocked-vs-classic
/// software pivot sweep. Plans are memoized, so after the first call only
/// streaming is timed.
fn batched_closure(rows: &mut Rows) {
    let batch = parallel_batch_input(32, 32, 0x5eed);
    let linear = LinearEngine::new(4);
    rows.batch("batched_closure/linear_m4/32x32", &linear, &batch);
    let lsgp = LsgpEngine::new(4);
    rows.batch("batched_closure/lsgp_m4/32x32", &lsgp, &batch);
    let packed = PackedEngine::new(4);
    rows.batch("batched_closure/packed_m4/32x32", &packed, &batch);

    // Lane-width sweep: one 128-instance batch is 2 groups at W = 1, and
    // a single group at W = 2 and W = 4.
    let wide = parallel_batch_input(128, 32, 0x5eed);
    let w1 = PackedEngine::new(4);
    rows.batch("batched_closure/packed_w1_m4/128x32", &w1, &wide);
    let w2 = PackedEngine::<BoolLanes<2>>::over(4);
    rows.batch("batched_closure/packed_w2_m4/128x32", &w2, &wide);
    let w4 = PackedEngine::<BoolLanes<4>>::over(4);
    rows.batch("batched_closure/packed_w4_m4/128x32", &w4, &wide);

    // Weighted plane: scalar min-plus vs 8 SWAR u8 lanes, same batch,
    // inside the lanes' exact domain ((n − 1) · wmax = 248 < 255).
    let weighted = minplus_batch_input(32, 32, 0x5eed, 8);
    let minplus = LinearEngine::new(4);
    rows.batch("batched_closure/minplus_m4/32x32", &minplus, &weighted);
    let swar = PackedEngine::<MinPlusSwar8>::over(4);
    rows.batch("batched_closure/minplus_packed_m4/32x32", &swar, &weighted);
    assert_eq!(
        swar.fallback_runs(),
        0,
        "min-plus batch left the packed path"
    );

    for n in [256usize, 2048] {
        let input = random_bitmatrix(n, 0xb17 + n as u64);
        rows.time(&format!("batched_closure/bitmatrix_unblocked/{n}"), || {
            let mut w = input.clone();
            w.warshall_in_place_unblocked();
            black_box(w);
        });
        rows.time(&format!("batched_closure/bitmatrix_blocked/{n}"), || {
            let mut w = input.clone();
            w.warshall_in_place_blocked();
            black_box(w);
        });
    }
}

/// `plan_reuse/*`: the same 8-instance n = 24 batch through a fresh
/// `LinearEngine` per call (plan built from scratch every time) and
/// through one engine whose memoized plan and simulator are reused.
fn plan_reuse(rows: &mut Rows) {
    let batch = parallel_batch_input(8, 24, 0x5eed);
    rows.time("plan_reuse/fresh/8x24", || {
        let engine = LinearEngine::new(4);
        black_box(engine.closure_many(&batch).expect("bench batch closes"));
    });
    let engine = LinearEngine::new(4);
    engine.closure_many(&batch).expect("bench batch closes"); // warm the caches
    rows.batch("plan_reuse/cached/8x24", &engine, &batch);
}

/// `sim_loop/*`: one LU n = 48 plan on the 4-cell LPGS chain with the
/// §4.3 durations d_k = n − k, run by the dense every-cycle loop and by the
/// ready loop. Each sample gets a freshly instantiated and loaded
/// simulator, built outside the clock.
fn sim_loop(rows: &mut Rows) {
    let n = 48;
    let durs = level_durations(Algo::Lu, n);
    let plan = elimination_plan_timed(Algo::Lu, n, EliminationMapping::Linear { m: 4 }, 1, &durs);
    let input = [elimination_input(n, 0x5eed)];
    let loaded = || {
        let mut sim = plan.instantiate::<Real>(false);
        plan.load(&mut sim, &input);
        sim
    };
    rows.time_with_setup(SIM_DENSE, loaded, |sim| {
        black_box(sim.run_dense().expect("LU plan runs"));
    });
    rows.time_with_setup(SIM_READY, loaded, |sim| {
        black_box(sim.run().expect("LU plan runs"));
    });
}

/// `sparse_closure/*` on the pinned n = 4096 power-law graph: the full
/// sparse pipeline, the tiled systolic bridge over the condensed DAG
/// (informational) and the dense `BitMatrix` sweep.
fn sparse_closure(rows: &mut Rows) {
    let g = compare_graph();
    let mut dense_in = BitMatrix::zeros(g.n());
    for (u, v) in g.edges() {
        dense_in.set(u as usize, v as usize, true);
    }
    let cond = condense_csr(&g);
    let dag_edges: Vec<(u32, u32)> = cond.dag.edges().collect();
    rows.time("sparse_closure/sparse_4096", || {
        black_box(SparseClosure::new(&g));
    });
    rows.time("sparse_closure/tiled_dag_4096", || {
        black_box(tiled_dag_closure(cond.len(), &dag_edges, TILE));
    });
    rows.time("sparse_closure/dense_4096", || {
        black_box(dense_in.transitive_closure());
    });
}

/// `parallel_batch/*` (ungated): a 32-instance n = 64 batch on an 8-cell
/// linear array, serial vs `ParallelEngine` sharding it over two engine
/// replicas.
fn parallel_batch(rows: &mut Rows) {
    let batch = parallel_batch_input(32, 64, 0x5eed);
    let serial = LinearEngine::new(8);
    rows.batch("parallel_batch/serial/32x64", &serial, &batch);
    let pool = ParallelEngine::new(LinearEngine::new(8), 2);
    rows.batch("parallel_batch/pool2/32x64", &pool, &batch);
}

/// Runs every recorded row.
///
/// `VmHWM` never decreases during a process, so the 10⁴ and 10⁵ sparse
/// rows run before any other row allocates: the 10⁵ ceiling then bounds
/// that row alone. The 10⁶ row runs last, so its heap sits under no
/// timed row.
pub fn run() -> Record {
    let mut sparse = vec![scale_row(10_000), scale_row(100_000)];
    let mut rows = Rows::default();
    batched_closure(&mut rows);
    plan_reuse(&mut rows);
    sim_loop(&mut rows);
    sparse_closure(&mut rows);
    parallel_batch(&mut rows);
    eprintln!("bench_record: varying_utilization, serve");
    let varying = varying_measurement(VARYING_N);
    let serve = vec![
        run_serve_bench(64, SERVE_COMMANDS, SERVE_SEED, None),
        run_serve_bench(24, SERVE_COMMANDS.div_ceil(10), SERVE_SEED, Some(4)),
    ];
    let concurrent = run_concurrent_bench(48, 4, SERVE_COMMANDS.div_ceil(20), SERVE_SEED);
    let recover = run_recover_bench(64, SERVE_COMMANDS.div_ceil(4), SERVE_SEED);
    eprintln!("bench_record: sparse_scale/1000000");
    sparse.push(scale_row(1_000_000));
    Record {
        rows: rows.0,
        sparse,
        varying,
        serve,
        concurrent,
        recover,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_closure::ClosureMode;
    use systolic_partition::TileStats;

    fn gate(key: &str) -> &'static Gate {
        GATES.iter().find(|g| g.key == key).expect("gate exists")
    }

    /// The pinned gate set: a drift here drops or loosens a gate.
    const PARITY: [(&str, Bound); 18] = [
        ("lsgp_speedup_vs_linear", Bound::AtLeast(0.1)),
        ("packed_speedup_vs_linear", Bound::AtLeast(8.0)),
        ("packed_w2_speedup_vs_w1", Bound::AtLeast(0.1)),
        ("packed_w4_speedup_vs_w1", Bound::AtLeast(0.1)),
        ("minplus_packed_speedup", Bound::AtLeast(4.0)),
        ("bitmatrix_blocked_speedup_256", Bound::AtLeast(0.95)),
        ("bitmatrix_blocked_speedup_2048", Bound::AtLeast(1.02)),
        ("sparse_speedup_vs_dense_4096", Bound::AtLeast(20.0)),
        ("sparse_scale_rows", Bound::AtLeast(3.0)),
        ("sparse_peak_bytes_1e5", Bound::Within(134_217_728.0)),
        ("varying_utilization_linear", Bound::AtLeast(0.5)),
        ("varying_utilization_grid", Bound::AtLeast(0.5)),
        ("varying_linear_over_grid", Bound::AtLeast(1.0)),
        ("varying_ok", Bound::AtLeast(1.0)),
        ("elim_ready_speedup_vs_dense", Bound::AtLeast(2.0)),
        ("serve_stream", Bound::AtLeast(2.0)),
        ("serve_concurrent", Bound::AtLeast(1.0)),
        ("serve_recover", Bound::AtLeast(1.0)),
    ];

    #[test]
    fn every_gate_passes_at_its_threshold_and_fails_below_missing_nan_and_zero() {
        assert_eq!(GATES.len(), PARITY.len());
        for (g, (key, bound)) in GATES.iter().zip(PARITY) {
            assert_eq!((g.key, g.bound), (key, bound), "gate table drifted");
            let (at, beyond) = match bound {
                Bound::AtLeast(min) => (min, min * (1.0 - 1e-9)),
                Bound::Within(max) => (max, max + 1.0),
            };
            assert!(bound.admits(Some(at)), "{key} rejects its threshold");
            assert!(!bound.admits(Some(beyond)), "{key} admits {beyond}");
            for v in [None, Some(f64::NAN), Some(0.0)] {
                assert!(!bound.admits(v), "{key} admits {v:?}");
            }
        }
        // Values that would pass once rounded to two decimals.
        assert!(!gate("bitmatrix_blocked_speedup_2048")
            .bound
            .admits(Some(1.016)));
        assert!(!gate("packed_speedup_vs_linear").bound.admits(Some(7.996)));
        let peak = gate("sparse_peak_bytes_1e5").bound;
        assert!(!peak.admits(Some(134_217_729.0)));
        assert!(peak.admits(Some(1.0)));
    }

    fn timing(ms: f64) -> Timing {
        let d = Duration::from_secs_f64(ms / 1e3);
        Timing {
            median: d,
            mean: d,
            min: d,
        }
    }

    fn scale(n: usize, peak: Option<u64>) -> ScaleRow {
        ScaleRow {
            n,
            edges: 8 * n,
            gen_ms: 1.0,
            close_ms: 1.0,
            scc: n / 25,
            dag_edges: n / 24,
            mode: ClosureMode::Exact,
            fill_pairs: 1e6,
            fill_exact: true,
            mem_bytes: 1024,
            peak_rss_bytes: peak,
            tiles: TileStats::default(),
        }
    }

    fn serve(id: &str) -> ServeBenchReport {
        ServeBenchReport {
            id: id.into(),
            n: 64,
            commands: 100,
            reaches: 70,
            qps: 1e5,
            p50_us: 0.05,
            p99_us: 20.0,
            max_us: 400.0,
            ok: true,
        }
    }

    /// A record on which every gate passes.
    fn passing() -> Record {
        let rows = [
            (LINEAR, 70.0),
            ("batched_closure/lsgp_m4/32x32", 75.0),
            ("batched_closure/packed_m4/32x32", 2.0),
            (W1, 5.0),
            ("batched_closure/packed_w2_m4/128x32", 2.7),
            ("batched_closure/packed_w4_m4/128x32", 3.0),
            ("batched_closure/minplus_m4/32x32", 74.0),
            ("batched_closure/minplus_packed_m4/32x32", 9.0),
            ("batched_closure/bitmatrix_unblocked/256", 0.1),
            ("batched_closure/bitmatrix_blocked/256", 0.08),
            ("batched_closure/bitmatrix_unblocked/2048", 26.0),
            ("batched_closure/bitmatrix_blocked/2048", 20.5),
            ("sparse_closure/sparse_4096", 0.3),
            ("sparse_closure/dense_4096", 174.0),
            (SIM_DENSE, 14.0),
            (SIM_READY, 4.5),
        ];
        Record {
            rows: rows
                .iter()
                .map(|&(id, ms)| (id.into(), timing(ms)))
                .collect(),
            sparse: vec![
                scale(10_000, Some(3 << 20)),
                scale(100_000, Some(18 << 20)),
                scale(1_000_000, Some(440 << 20)),
            ],
            varying: VaryingMeasurement {
                n: 24,
                cells: 4,
                measured_linear: 0.9316,
                measured_grid: 0.9264,
                analytic_linear: 0.9317,
                analytic_grid: 0.9245,
                interior_linear: 1.0,
                interior_grid: 0.97,
            },
            serve: vec![serve("software"), serve("batched_m4")],
            concurrent: ConcurrentBenchReport {
                clients: 4,
                n: 48,
                queries: 4000,
                qps: 3e4,
                ok: true,
            },
            recover: RecoverBenchReport {
                n: 64,
                ops: 5000,
                wal_bytes: 74_300,
                recover_ms: 0.4,
                ok: true,
            },
        }
    }

    fn failing_keys(r: &Record) -> Vec<&'static str> {
        GATES
            .iter()
            .filter(|g| !g.bound.admits((g.measure)(r)))
            .map(|g| g.key)
            .collect()
    }

    #[test]
    fn gates_read_the_record_they_judge() {
        assert!(failing_keys(&passing()).is_empty());

        // 26.416 / 26 = 1.016: rounds to 1.02 in the JSON, still fails.
        let mut r = passing();
        r.rows[11].1 = timing(26.0);
        r.rows[10].1 = timing(26.416);
        assert_eq!(failing_keys(&r), ["bitmatrix_blocked_speedup_2048"]);
        let json = render(&r.to_json());
        assert!(json.contains("\"bitmatrix_blocked_speedup_2048\": 1.02,"));

        let mut r = passing();
        r.rows.retain(|(id, _)| id != "sparse_closure/dense_4096");
        assert_eq!(failing_keys(&r), ["sparse_speedup_vs_dense_4096"]);
        assert!(render(&r.to_json()).contains("\"sparse_speedup_vs_dense_4096\": null,"));

        let mut r = passing();
        r.serve[1].ok = false;
        assert_eq!(failing_keys(&r), ["serve_stream"]);
        let mut r = passing();
        r.serve.truncate(1);
        assert_eq!(failing_keys(&r), ["serve_stream"]);

        let mut r = passing();
        r.concurrent.ok = false;
        assert_eq!(failing_keys(&r), ["serve_concurrent"]);
        let mut r = passing();
        r.recover.ok = false;
        assert_eq!(failing_keys(&r), ["serve_recover"]);

        let mut r = passing();
        r.sparse[1].peak_rss_bytes = None;
        assert_eq!(failing_keys(&r), ["sparse_peak_bytes_1e5"]);
        r.sparse[1].peak_rss_bytes = Some(129 << 20);
        assert_eq!(failing_keys(&r), ["sparse_peak_bytes_1e5"]);
        r.sparse.remove(1);
        assert_eq!(
            failing_keys(&r),
            ["sparse_scale_rows", "sparse_peak_bytes_1e5"]
        );

        let mut r = passing();
        r.rows.retain(|(id, _)| id != SIM_READY);
        assert_eq!(failing_keys(&r), ["elim_ready_speedup_vs_dense"]);
        let mut r = passing();
        let ready = r.rows.iter_mut().find(|(id, _)| id == SIM_READY);
        ready.expect("ready row").1 = timing(7.5);
        assert_eq!(failing_keys(&r), ["elim_ready_speedup_vs_dense"]);

        let mut r = passing();
        r.varying.measured_grid = 0.94;
        assert_eq!(failing_keys(&r), ["varying_linear_over_grid", "varying_ok"]);
    }

    #[test]
    fn json_keeps_the_recorded_keys_and_row_ids() {
        let json = render(&passing().to_json());
        for key in PARITY.iter().take(15).map(|(k, _)| k).chain(&[
            "bench",
            "samples",
            "results",
            "varying_analytic_linear",
            "varying_analytic_grid",
            "sparse",
            "serve",
            "chaos",
        ]) {
            assert!(json.contains(&format!("\n  \"{key}\": ")), "{key} missing");
        }
        for id in [
            "sparse_scale/100000",
            "sparse_tiles/10000",
            "serve_stream/batched_m4",
            "serve_concurrent/c4",
            "serve_recover/n64",
        ] {
            assert!(
                json.contains(&format!("{{\"id\": \"{id}\", ")),
                "{id} missing"
            );
        }
        assert!(json.contains("\"varying_ok\": true,"));
        assert!(json.contains("\"sparse_peak_bytes_1e5\": 18874368,"));
    }

    #[test]
    fn writer_renders_every_value_kind() {
        let doc = [
            ("a", Json::Null),
            ("b", Json::Bool(false)),
            ("c", Json::Int(7)),
            ("d", Json::Num(1.23456, 2)),
            ("e", Json::Num(f64::INFINITY, 2)),
            ("f", Json::Sci(9.585e7)),
            ("g", Json::Str("x\"y".into())),
            ("h", Json::Arr(vec![])),
            (
                "i",
                Json::Arr(vec![
                    Json::Obj(vec![("id", Json::Str("r/1".into())), ("v", Json::Int(1))]),
                    Json::Obj(vec![]),
                ]),
            ),
        ];
        assert_eq!(
            render(&doc),
            "{\n  \"a\": null,\n  \"b\": false,\n  \"c\": 7,\n  \"d\": 1.23,\n  \"e\": null,\n  \
             \"f\": 9.585e7,\n  \"g\": \"x\\\"y\",\n  \"h\": [],\n  \"i\": [\n    \
             {\"id\": \"r/1\", \"v\": 1},\n    {}\n  ]\n}\n"
        );
    }

    #[test]
    fn write_replaces_the_file_through_a_rename() {
        let path = std::env::temp_dir().join(format!("bench-record-{}.json", std::process::id()));
        write(&path, &[("k", Json::Int(1))]).expect("first write");
        write(&path, &[("k", Json::Int(2))]).expect("second write");
        assert_eq!(
            std::fs::read_to_string(&path).expect("written"),
            "{\n  \"k\": 2\n}\n"
        );
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_file(&path).ok();
    }
}
