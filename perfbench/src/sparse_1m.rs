//! `sparse_1m`: the sparse data plane at 10⁶ vertices, as a reachability
//! index is used: built once, then queried. Set-up generates
//! `powerlaw(10⁶, d = 6)` and closes it with `SparseClosure::new` (Tarjan
//! condensation plus the DAG row-OR sweep); the close time is part of
//! `setup_s` and is printed as `close_s`. The distinct ops are the chunks of
//! a seeded batch of `reachable(u, v)` queries. No `arraysim`.
//!
//! No dense oracle fits at this size: full rows of sampled sources and a
//! sample of the query pairs are checked against a BFS over the CSR. The
//! closure's SCC and DAG-edge counts and the answers of every pass over the
//! queries must repeat exactly.
//!
//! A traced set-up first runs `condense_csr` on its own, so the
//! condensation's time and memory show separately; `closure.dag_close_ms`
//! is the close time minus that condense time.

use crate::trace::{mean_self_ns, Tracer};
use crate::{peak_rss_mib, rss_mib, secs, Guard, Metric, Quiet, Sample, Summary, Workload};
use std::time::Instant;
use systolic_closure::{condense_csr, powerlaw, CsrGraph, SparseClosure};
use systolic_util::Rng;

/// (default, held-out) seeds.
pub const SEEDS: (u64, u64) = (0x5eed, 9003);
const N: usize = 1_000_000;
const DEGREE: usize = 6;
/// `reachable` queries per pass.
const QUERIES: usize = 1 << 20;
/// Queries per op.
const CHUNK: usize = 4096;
/// Sources whose full rows are checked by BFS.
const ROW_SAMPLES: usize = 2;
/// Query pairs checked by BFS.
const PAIR_SAMPLES: usize = 8;

pub struct Sparse1m {
    graph: CsrGraph,
    sc: SparseClosure,
    /// Wall time of the set-up's `SparseClosure::new` (s).
    close_s: f64,
    queries: Vec<(u32, u32)>,
    /// One answer bit per query, filled chunk by chunk.
    answers: Vec<u64>,
    /// The chunk the next op answers.
    next: usize,
    rows: Vec<u32>,
    guard: Guard<(usize, usize, Vec<u64>)>,
    attempted: u64,
    failed: u64,
    /// (VmRSS, VmHWM) in MiB after generate, condense, close and the first
    /// pass of queries; read in a traced run.
    stages: [(f64, f64); 4],
}

fn memory() -> (f64, f64) {
    (rss_mib(), peak_rss_mib())
}

/// Vertices reachable from `src` (itself included), by BFS over the CSR.
fn bfs(g: &CsrGraph, src: usize) -> Vec<bool> {
    let mut seen = vec![false; g.n()];
    seen[src] = true;
    let mut queue = vec![src as u32];
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        for &v in g.successors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push(v);
            }
        }
    }
    seen
}

impl Sparse1m {
    /// Full rows of the sampled sources and the sampled query pairs
    /// against BFS. Runs once per set-up, at its end: the closure does not
    /// change.
    fn check_oracle(&mut self) {
        for &u in &self.rows {
            self.attempted += 1;
            let seen = bfs(&self.graph, u as usize);
            let want: Vec<u32> = (0..N as u32).filter(|&v| seen[v as usize]).collect();
            if self.sc.row(u as usize) != want {
                self.failed += 1;
            }
        }
        for &(u, v) in self.queries.iter().take(PAIR_SAMPLES) {
            self.attempted += 1;
            if self.sc.reachable(u as usize, v as usize) != bfs(&self.graph, u as usize)[v as usize]
            {
                self.failed += 1;
            }
        }
    }
}

impl Workload for Sparse1m {
    const KEYS: usize = QUERIES / CHUNK;

    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let mut stages = [(0.0, 0.0); 4];
        let graph = t.span("closure.generate", |_| powerlaw(N, DEGREE, seed));
        if t.enabled() {
            stages[0] = memory();
            let cond = t.span("probe", |t| {
                t.span("closure.condense", |_| condense_csr(&graph))
            });
            stages[1] = memory();
            drop(cond);
        }
        let c0 = Instant::now();
        let sc = t.span("closure.close", |_| SparseClosure::new(&graph));
        let close_s = secs(c0);
        if t.enabled() {
            stages[2] = memory();
        }
        let mut rng = Rng::seed_from_u64(seed ^ 0x9E37_79B9);
        let queries = (0..QUERIES)
            .map(|_| (rng.gen_usize(N) as u32, rng.gen_usize(N) as u32))
            .collect();
        let rows = (0..ROW_SAMPLES).map(|_| rng.gen_usize(N) as u32).collect();
        Self {
            graph,
            sc,
            close_s,
            queries,
            answers: vec![0; QUERIES.div_ceil(64)],
            next: 0,
            rows,
            guard: Guard::new(1),
            attempted: 0,
            failed: 0,
            stages,
        }
    }

    fn op(&mut self, t: &mut Tracer) -> Sample {
        let k = self.next % Self::KEYS;
        self.next += 1;
        let range = k * CHUNK..(k + 1) * CHUNK;
        // CHUNK is a multiple of 64: the chunk owns whole answer words.
        let words = &mut self.answers[range.start / 64..range.end / 64];
        words.fill(0);
        let (sc, queries) = (&self.sc, &self.queries[range]);
        let t0 = Instant::now();
        t.op(|t| {
            t.span("closure.query", |_| {
                for (i, &(u, v)) in queries.iter().enumerate() {
                    words[i / 64] |= (sc.reachable(u as usize, v as usize) as u64) << (i % 64);
                }
            })
        });
        let dt = secs(t0);
        self.attempted += CHUNK as u64;
        if k + 1 == Self::KEYS {
            if t.enabled() && self.stages[3] == (0.0, 0.0) {
                self.stages[3] = memory();
            }
            let cond = self.sc.condensation();
            self.guard.check(
                0,
                "sparse_1m scc / dag_edges / answers",
                (cond.len(), cond.dag.edge_count(), self.answers.clone()),
            );
        }
        Sample {
            key: k,
            wall_s: dt,
            work: CHUNK as f64,
            work_s: dt,
            latency_us: Some(dt * 1e6 / CHUNK as f64),
        }
    }

    fn finish(mut self, t: &Tracer, quiet: &Quiet) -> Summary {
        self.check_oracle();
        let mut s = Summary {
            attempted: self.attempted,
            failed: self.failed,
            ..Summary::default()
        };
        s.problems.extend(self.guard.mismatches.iter().cloned());
        s.named = vec![
            ("close_s", self.close_s, "s"),
            ("queries_per_s", quiet.throughput_per_s(), "1/s"),
        ];
        let totals = t.totals();
        let ms = |name| mean_self_ns(&totals, name) / 1e6;
        let cond = self.sc.condensation();
        let stage = |i: usize| self.stages[i];
        let layers: Vec<Metric> = vec![
            ("closure.generate_ms", ms("closure.generate"), "ms"),
            ("closure.condense_ms", ms("closure.condense"), "ms"),
            (
                "closure.dag_close_ms",
                ms("closure.close") - ms("closure.condense"),
                "ms",
            ),
            (
                "closure.query_ns",
                ms("closure.query") * 1e6 / CHUNK as f64,
                "ns",
            ),
            ("closure.rss_after_generate_mib", stage(0).0, "MiB"),
            ("closure.rss_after_condense_mib", stage(1).0, "MiB"),
            ("closure.rss_after_close_mib", stage(2).0, "MiB"),
            ("closure.rss_after_query_mib", stage(3).0, "MiB"),
            ("closure.hwm_after_generate_mib", stage(0).1, "MiB"),
            ("closure.hwm_after_condense_mib", stage(1).1, "MiB"),
            ("closure.hwm_after_close_mib", stage(2).1, "MiB"),
            ("closure.hwm_after_query_mib", stage(3).1, "MiB"),
            (
                "closure.resident_bytes",
                self.sc.memory_bytes() as f64,
                "bytes",
            ),
            ("closure.scc", cond.len() as f64, "count"),
            ("closure.dag_edges", cond.dag.edge_count() as f64, "count"),
        ];
        s.layers = layers;
        s
    }
}
