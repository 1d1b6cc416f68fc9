//! End-to-end and per-layer benchmark of the systolic workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_elim --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process, one thread, one closed-loop caller. Each workload builds its
//! inputs from `--seed` and cycles through a fixed set of distinct ops for
//! `--seconds`, checking every output against an oracle outside the timed
//! region. Each timing takes every distinct op's fastest repetition, then
//! aggregates over the distinct ops; set-up is repeated over the run and
//! `setup_s` is the fastest set-up. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the same ops traced and then untraced and reports the
//! per-layer metrics. The last line of stdout is one JSON object; the lines
//! before it name every metric with its unit. See README.md.

mod serve_mix;
mod sim_closure;
mod sim_elim;
mod sparse_1m;
mod trace;

use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per run, spread over it; `setup_s` is the fastest.
const SETUP_REPS: usize = 5;
/// Fewest repetitions of every distinct op in an untraced run, so each
/// minimum has a choice and the exact-counter guard compares repetitions.
const MIN_REPS: usize = 3;
/// Fewest ops a traced pass makes.
const MIN_OPS: usize = 3;
/// Most ops a traced pass makes, which bounds the spans kept in memory
/// (only `serve_mix`, at one command per op, reaches it).
const MAX_TRACED_OPS: usize = 20_000;
/// Where traced runs write their spans and `serve_mix` keeps its WAL,
/// relative to the directory the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// the workload does not call reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("arraysim.run_ms", "ms"),
    ("arraysim.ns_per_cell_cycle", "ns"),
    ("arraysim.cycles", "cycles"),
    ("arraysim.busy_cell_cycles", "cycles"),
    ("arraysim.stall_cell_cycles", "cycles"),
    ("arraysim.useful_ops", "count"),
    ("arraysim.bank_reads", "count"),
    ("arraysim.bank_writes", "count"),
    ("arraysim.host_words", "count"),
    ("arraysim.useful_ratio", "ratio"),
    ("arraysim.utilization", "ratio"),
    ("partition.plan_compile_ms", "ms"),
    ("partition.load_ms", "ms"),
    ("partition.decode_ms", "ms"),
    ("partition.run_elimination_ms", "ms"),
    ("transform.ggraph_ms", "ms"),
    ("closure.generate_ms", "ms"),
    ("closure.condense_ms", "ms"),
    ("closure.dag_close_ms", "ms"),
    ("closure.query_ns", "ns"),
    ("closure.rss_after_generate_mib", "MiB"),
    ("closure.rss_after_condense_mib", "MiB"),
    ("closure.rss_after_close_mib", "MiB"),
    ("closure.rss_after_query_mib", "MiB"),
    ("closure.hwm_after_generate_mib", "MiB"),
    ("closure.hwm_after_condense_mib", "MiB"),
    ("closure.hwm_after_close_mib", "MiB"),
    ("closure.hwm_after_query_mib", "MiB"),
    ("closure.resident_bytes", "bytes"),
    ("closure.scc", "count"),
    ("closure.dag_edges", "count"),
    ("service.parse_ns", "ns"),
    ("service.format_ns", "ns"),
    ("service.reach_clean_us", "us"),
    ("service.reach_dirty_us", "us"),
    ("service.dirty_reads", "count"),
    ("service.insert_us", "us"),
    ("service.delete_us", "us"),
    ("service.wal_bytes", "bytes"),
    ("service.snapshots", "count"),
    ("service.stale_reads", "count"),
    ("service.errors", "count"),
];

/// Tracing's own cost and coverage, appended to the per-layer metrics.
const TRACING: [(&str, &str); 2] = [
    ("tracing.overhead_pct", "%"),
    ("tracing.unaccounted_pct", "%"),
];

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// One workload: a closed loop of ops over seeded inputs.
pub trait Workload: Sized {
    /// Distinct ops. The workload cycles through them in a fixed order, and
    /// an op does the same work on the same inputs and state each time it
    /// comes round, so its repetitions differ only in how the host ran them
    /// (see README.md).
    const KEYS: usize;

    /// Builds the inputs and the system under test, including the first
    /// (cold) call where the workload has one. Timed as `setup_s`.
    fn setup(seed: u64, t: &mut Tracer) -> Self;

    /// Runs one op and checks its outputs outside the timed region.
    fn op(&mut self, t: &mut Tracer) -> Sample;

    /// Summarises the ops run so far; `quiet` holds each distinct op's
    /// fastest timings (empty in a traced run).
    fn finish(self, t: &Tracer, quiet: &Quiet) -> Summary;
}

/// One op as the harness sees it.
pub struct Sample {
    /// Which distinct op this was, in `0..KEYS`.
    pub key: usize,
    /// Timed wall time of the op (s); the oracle is outside it.
    pub wall_s: f64,
    /// Units of work done: instances, eliminations, queries or commands.
    pub work: f64,
    /// The time `work` took (s): the op's wall time or a part of it.
    pub work_s: f64,
    /// Latency (µs) of the workload's latency-defining call, if the op made
    /// one.
    pub latency_us: Option<f64>,
}

/// Each distinct op's fastest repetition over a run, and the end-to-end
/// timings aggregated from them.
#[derive(Default)]
pub struct Quiet {
    /// Repetitions of every distinct op.
    pub reps: usize,
    work: Vec<f64>,
    work_s: Vec<f64>,
    /// Infinite for an op that defines no latency.
    latency_us: Vec<f64>,
    /// Fastest timed wall time of each distinct op (s).
    pub wall_s: Vec<f64>,
}

impl Quiet {
    fn new(keys: usize) -> Self {
        Self {
            reps: 0,
            work: vec![0.0; keys],
            work_s: vec![f64::INFINITY; keys],
            latency_us: vec![f64::INFINITY; keys],
            wall_s: vec![f64::INFINITY; keys],
        }
    }

    fn record(&mut self, s: &Sample) {
        let k = s.key;
        self.work[k] = s.work;
        self.work_s[k] = self.work_s[k].min(s.work_s);
        self.wall_s[k] = self.wall_s[k].min(s.wall_s);
        if let Some(l) = s.latency_us {
            self.latency_us[k] = self.latency_us[k].min(l);
        }
    }

    /// Work of one pass over the distinct ops over the time it takes.
    pub fn throughput_per_s(&self) -> f64 {
        self.work.iter().sum::<f64>() / self.work_s.iter().sum::<f64>()
    }

    fn latencies(&self) -> Vec<f64> {
        self.latency_us
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect()
    }

    /// Median latency over the distinct ops that define one (µs).
    pub fn p50_us(&self) -> f64 {
        central_mean(&mut self.latencies())
    }

    /// 99th-percentile latency over the distinct ops that define one (µs).
    pub fn p99_us(&self) -> f64 {
        percentile(&mut self.latencies(), 0.99)
    }
}

/// What a workload reports after its ops.
#[derive(Default)]
pub struct Summary {
    /// Checked operations (instances, eliminations, queries, commands).
    pub attempted: u64,
    /// Checked operations that failed: oracle mismatch, error response or
    /// engine error.
    pub failed: u64,
    /// Exact-counter guard violations and other reasons the run is wrong.
    pub problems: Vec<String>,
    /// The workload's end-to-end figures under their own names.
    pub named: Vec<Metric>,
    /// Per-layer figures: span times when traced, exact counters always.
    pub layers: Vec<Metric>,
}

struct Args {
    workload: String,
    /// `--seed` as given, passed on by `--workload all`.
    seed_arg: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    let seed_arg = seed;
    let seed = if workload == "all" {
        0
    } else {
        let seeds = seeds(&workload).ok_or(format!("unknown workload {workload}"))?;
        match seed_arg.as_deref() {
            None | Some("default") => seeds.0,
            Some("heldout") => seeds.1,
            Some(n) => n.parse().map_err(|e| format!("--seed {n}: {e}"))?,
        }
    };
    Ok(Args {
        workload,
        seed_arg,
        seed,
        seconds,
        trace,
    })
}

/// Each workload's (default, held-out) seeds, which `--seed default` and
/// `--seed heldout` name. The held-out seed re-checks a claim on inputs
/// its author did not tune on.
fn seeds(workload: &str) -> Option<(u64, u64)> {
    Some(match workload {
        "sim_closure" => sim_closure::SEEDS,
        "sim_elim" => sim_elim::SEEDS,
        "sparse_1m" => sparse_1m::SEEDS,
        "serve_mix" => serve_mix::SEEDS,
        _ => return None,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload sim_closure|sim_elim|sparse_1m|serve_mix|all \
             [--seed N|default|heldout] [--seconds S] [--trace 0|1]"
        );
        std::process::exit(2);
    });
    match args.workload.as_str() {
        "sim_closure" => run::<sim_closure::SimClosure>(&args),
        "sim_elim" => run::<sim_elim::SimElim>(&args),
        "sparse_1m" => run::<sparse_1m::Sparse1m>(&args),
        "serve_mix" => run::<serve_mix::ServeMix>(&args),
        _ => run_all(&args),
    }
}

/// `--workload all`: every workload in turn, each in a child process of its
/// own so that its peak memory is its own.
fn run_all(args: &Args) {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in ["sim_closure", "sim_elim", "sparse_1m", "serve_mix"] {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", w, "--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = &args.seed_arg {
            child.args(["--seed", seed]);
        }
        ok &= child.status().is_ok_and(|s| s.success());
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Sets up once, adding the wall time taken to `times`.
fn timed_setup<W: Workload>(seed: u64, times: &mut Vec<f64>) -> W {
    let t0 = Instant::now();
    let w = W::setup(seed, &mut Tracer::new(false));
    times.push(secs(t0));
    w
}

/// Runs rounds — every distinct op once, in order — until `seconds` have
/// passed and every op has run `MIN_REPS` times, keeping each op's fastest
/// repetition. Sets up `SETUP_REPS` times, spread evenly over the run
/// because the host's speed changes from one second to the next: each
/// set-up replaces the state, which is summarised and dropped first (so
/// peak memory holds one state). Returns the merged summary, the minima and
/// the set-up times.
fn measure<W: Workload>(seed: u64, seconds: f64) -> (Summary, Quiet, Vec<f64>) {
    let start = Instant::now();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = timed_setup::<W>(seed, &mut setups);
    let mut earlier = Vec::new();
    let mut quiet = Quiet::new(W::KEYS);
    let mut t = Tracer::new(false);
    while quiet.reps < MIN_REPS || secs(start) < seconds || setups.len() < SETUP_REPS {
        for _ in 0..W::KEYS {
            quiet.record(&state.op(&mut t));
        }
        quiet.reps += 1;
        let due = 1 + (secs(start) / seconds * SETUP_REPS as f64) as usize;
        if setups.len() < due.min(SETUP_REPS) {
            earlier.push(state.finish(&t, &quiet));
            state = timed_setup::<W>(seed, &mut setups);
        }
    }
    let mut s = state.finish(&t, &quiet);
    for e in earlier {
        s.attempted += e.attempted;
        s.failed += e.failed;
        // Untraced, the per-layer figures are exact counters.
        if e.layers != s.layers {
            s.problems
                .push("exact counters differ between set-ups".to_string());
        }
        s.problems.extend(e.problems);
    }
    (s, quiet, setups)
}

/// Runs `ops` ops, or — when `ops` is `None` — whole passes over the
/// distinct ops for `seconds` (at least `MIN_OPS` ops, at most
/// `MAX_TRACED_OPS`); returns each op's timed wall.
fn run_ops<W: Workload>(w: &mut W, t: &mut Tracer, ops: Option<usize>, seconds: f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let done = match ops {
            Some(k) => walls.len() >= k,
            None => {
                walls.len() >= MAX_TRACED_OPS
                    || (walls.len() >= MIN_OPS
                        && walls.len() % W::KEYS == 0
                        && secs(start) >= seconds)
            }
        };
        if done {
            return walls;
        }
        walls.push(w.op(t).wall_s);
    }
}

fn run<W: Workload>(args: &Args) {
    let (summary, metrics, specs): (Summary, Vec<Metric>, Vec<(&str, &str)>) = if !args.trace {
        let (mut s, quiet, setup_times) = measure::<W>(args.seed, args.seconds);
        s.named.push(("reps", quiet.reps as f64, "count"));
        let metrics = vec![
            (
                "setup_s",
                setup_times.iter().copied().fold(f64::INFINITY, f64::min),
                "s",
            ),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
            ("throughput_per_s", quiet.throughput_per_s(), "1/s"),
            ("latency_p50_us", quiet.p50_us(), "us"),
            ("latency_p99_us", quiet.p99_us(), "us"),
        ];
        (s, metrics, END_TO_END.to_vec())
    } else {
        // Traced, then untraced over the same op sequence, each from a
        // fresh set-up: the difference in their summed op times is the
        // tracing overhead. Traced first, so stage memory readings see no
        // earlier pass's high-water mark.
        let mut t = Tracer::new(true);
        let mut traced = W::setup(args.seed, &mut t);
        let traced_walls = run_ops(&mut traced, &mut t, None, args.seconds / 2.0);
        let mut s = traced.finish(&t, &Quiet::default());
        s.named.clear();
        let mut untraced = W::setup(args.seed, &mut Tracer::new(false));
        let mut plain = Tracer::new(false);
        let untraced_walls = run_ops(&mut untraced, &mut plain, Some(traced_walls.len()), 0.0);
        let u = untraced.finish(&plain, &Quiet::default());
        s.attempted += u.attempted;
        s.failed += u.failed;
        s.problems.extend(u.problems);
        let totals = t.totals();
        let root = totals.get(trace::OP).copied().unwrap_or_default();
        let mut metrics = s.layers.clone();
        metrics.push((
            "tracing.overhead_pct",
            (traced_walls.iter().sum::<f64>() / untraced_walls.iter().sum::<f64>() - 1.0) * 100.0,
            "%",
        ));
        metrics.push((
            "tracing.unaccounted_pct",
            root.self_ns as f64 / root.wall_ns.max(1) as f64 * 100.0,
            "%",
        ));
        let path = std::path::Path::new(OUT_DIR)
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match t.write_tsv(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => s.problems.push(format!("writing {}: {e}", path.display())),
        }
        let specs = PER_LAYER.iter().chain(TRACING.iter()).copied().collect();
        (s, metrics, specs)
    };
    report(args, &summary, &metrics, &specs)
}

/// Prints the human-readable lines and the final JSON line, whose
/// `correct` carries the verdict.
fn report(args: &Args, s: &Summary, metrics: &[Metric], specs: &[(&str, &str)]) {
    let w = &args.workload;
    println!(
        "# {w} seed={} seconds={} trace={} attempted={} failed={}",
        args.seed, args.seconds, args.trace as u8, s.attempted, s.failed
    );
    let error_rate = s.failed as f64 / s.attempted.max(1) as f64;
    println!("# {w} error_rate = {error_rate} ratio");
    for (name, value, unit) in &s.named {
        println!("# {w} {name} = {value} {unit}");
    }
    for p in &s.problems {
        println!("# {w} PROBLEM: {p}");
    }
    let mut fields = Vec::with_capacity(specs.len());
    for &(name, unit) in specs {
        let value = metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("# {w} {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = s.failed == 0 && s.problems.is_empty() && s.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.attempted.max(1),
        s.failed,
        fields.join(", ")
    );
}

/// The median as the mean of the samples from the 49th to the 51st
/// percentile (nearest rank, so at least the middle one or two): a plain
/// median of integer-nanosecond latencies repeats exactly from run to run.
pub fn central_mean(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let last = (xs.len() - 1) as f64;
    let (lo, hi) = (
        (last * 0.49).floor() as usize,
        (last * 0.51).ceil() as usize,
    );
    xs[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
}

/// Nearest-rank percentile `p` in `[0, 1]` of `xs` (0 when empty).
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    xs[((xs.len() - 1) as f64 * p).round() as usize]
}

/// Resident memory of this process now (VmRSS), in MiB (0 off Linux).
pub fn rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of this process so far (VmHWM), in MiB (0 off
/// Linux).
pub fn peak_rss_mib() -> f64 {
    systolic_util::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Records the first value seen under `key` and counts later values that
/// differ: the exact-counter guard.
pub struct Guard<T: PartialEq> {
    first: Vec<Option<T>>,
    /// Descriptions of the mismatches seen.
    pub mismatches: Vec<String>,
}

impl<T: PartialEq> Guard<T> {
    pub fn new(keys: usize) -> Self {
        Self {
            first: (0..keys).map(|_| None).collect(),
            mismatches: Vec::new(),
        }
    }

    /// Compares `value` with the first value recorded under `key`.
    pub fn check(&mut self, key: usize, what: &str, value: T) {
        match &self.first[key] {
            None => self.first[key] = Some(value),
            Some(first) if *first == value => {}
            Some(_) => self
                .mismatches
                .push(format!("{what}: a repetition differs from the first run")),
        }
    }

    /// The first value recorded under `key`.
    pub fn first(&self, key: usize) -> Option<&T> {
        self.first[key].as_ref()
    }
}
