//! `serve_mix`: the reachability service with reads beside writes. A
//! durable `SharedService` over `ReachService` at n = 256, its WAL in a
//! fresh directory and the CLI's default snapshot policy (none), replays
//! `seeded_stream` (70 % REACH, 20 % INSERT, 10 % DELETE). One op is one
//! command: `parse_command`, `SharedService::execute`, response
//! formatting. No `arraysim`.
//!
//! The stream is replayed in episodes of `EPISODE` commands, each on a
//! fresh service and WAL, so every episode does the same work: command `i`
//! of an episode is distinct op `i`. REACH answers are checked against a
//! full-recompute Warshall oracle.

use crate::trace::{mean_self_ns, Tracer};
use crate::{percentile, secs, Guard, Quiet, Sample, Summary, Workload, OUT_DIR};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use systolic_closure::DiGraph;
use systolic_semiring::BitMatrix;
use systolic_service::{
    parse_command, seeded_stream, Command, Durability, ReachService, Response, SessionLimits,
    SharedService,
};

/// (default, held-out) seeds.
pub const SEEDS: (u64, u64) = (20_260_808, 9004);
const N: usize = 256;
/// Commands per episode.
const EPISODE: usize = 20_000;

/// Per-episode counters that must repeat exactly: dirty reads, WAL bytes,
/// snapshots, stale reads, service errors.
type EpisodeCounters = [u64; 5];

/// Tells apart the WAL directories of set-ups within one process.
static DIRS: AtomicU64 = AtomicU64::new(0);

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Reach,
    Insert,
    Delete,
}

pub struct ServeMix {
    lines: Vec<String>,
    kinds: Vec<Kind>,
    /// Expected response line per command, built on the first episode.
    expected: Option<Vec<String>>,
    dir: PathBuf,
    svc: SharedService,
    pos: usize,
    dirty_reads: u64,
    out: String,
    guard: Guard<EpisodeCounters>,
    episodes: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    last: EpisodeCounters,
}

/// A durable service on a fresh WAL under `dir`.
fn open_service(dir: &Path) -> std::io::Result<SharedService> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let (d, g, _) = Durability::open(&dir.join("serve.wal"), None, DiGraph::new(N))?;
    let svc = ReachService::new(g).with_durability(d);
    Ok(SharedService::new(svc, SessionLimits::default()))
}

/// The response each command must get, from replaying the stream on a
/// plain graph and closing it with Warshall whenever it changed.
fn oracle(lines: &[String]) -> Vec<String> {
    let mut g = DiGraph::new(N);
    let mut closed: Option<BitMatrix> = None;
    lines
        .iter()
        .map(|line| match parse_command(line) {
            Ok(Some(Command::Reach(u, v))) => {
                let c = closed.get_or_insert_with(|| {
                    BitMatrix::from_dense(&g.adjacency_matrix()).transitive_closure()
                });
                format!("REACH {u} {v} {}", c.get(u, v))
            }
            Ok(Some(Command::Insert(u, v))) => {
                if !g.has_edge(u, v) {
                    g.add_edge(u, v);
                    closed = None;
                }
                format!("OK INSERT {u} {v}")
            }
            Ok(Some(Command::Delete(u, v))) => {
                let removed = g.remove_edge(u, v);
                if removed {
                    closed = None;
                }
                format!("OK DELETE {u} {v} removed={removed}")
            }
            other => panic!("seeded_stream produced {other:?} for {line}"),
        })
        .collect()
}

impl ServeMix {
    fn counters(&self) -> EpisodeCounters {
        let svc = self.svc.read();
        [
            self.dirty_reads,
            svc.wal_bytes(),
            svc.snapshots(),
            self.svc.stale_reads(),
            svc.stats().errors,
        ]
    }

    /// Closes the episode: the counter guard.
    fn close_episode(&mut self) {
        let c = self.counters();
        self.guard.check(0, "serve_mix episode counters", c);
        self.last = c;
        self.episodes += 1;
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only once nothing else is left in it.
        let _ = std::fs::remove_dir(OUT_DIR);
    }
}

impl Workload for ServeMix {
    /// One episode.
    const KEYS: usize = EPISODE;

    fn setup(seed: u64, _t: &mut Tracer) -> Self {
        let stream = seeded_stream(N, EPISODE, seed);
        let mut kinds = Vec::with_capacity(EPISODE);
        let lines = stream
            .iter()
            .map(|c| match c {
                Command::Reach(u, v) => {
                    kinds.push(Kind::Reach);
                    format!("REACH {u} {v}")
                }
                Command::Insert(u, v) => {
                    kinds.push(Kind::Insert);
                    format!("INSERT {u} {v}")
                }
                Command::Delete(u, v) => {
                    kinds.push(Kind::Delete);
                    format!("DELETE {u} {v}")
                }
                other => panic!("seeded_stream produced {other:?}"),
            })
            .collect();
        let dir = PathBuf::from(OUT_DIR).join(format!(
            "serve-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let svc = open_service(&dir)
            .unwrap_or_else(|e| panic!("serve_mix: opening {}: {e}", dir.display()));
        Self {
            lines,
            kinds,
            expected: None,
            dir,
            svc,
            pos: 0,
            dirty_reads: 0,
            out: String::new(),
            guard: Guard::new(1),
            episodes: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            last: [0; 5],
        }
    }

    fn op(&mut self, t: &mut Tracer) -> Sample {
        if self.pos == EPISODE {
            self.close_episode();
            self.svc = open_service(&self.dir)
                .unwrap_or_else(|e| panic!("serve_mix: reopening {}: {e}", self.dir.display()));
            self.pos = 0;
            self.dirty_reads = 0;
        }
        let i = self.pos;
        self.pos += 1;
        let kind = self.kinds[i];
        let dirty = kind == Kind::Reach && self.svc.read().is_dirty();
        let name = match kind {
            Kind::Reach if dirty => "service.reach_dirty",
            Kind::Reach => "service.reach_clean",
            Kind::Insert => "service.insert",
            Kind::Delete => "service.delete",
        };
        let (line, svc, out) = (&self.lines[i], &self.svc, &mut self.out);
        out.clear();
        let t0 = Instant::now();
        let ok = t.op(|t| {
            let cmd = t.span("service.parse", |_| parse_command(line));
            let Ok(Some(cmd)) = cmd else {
                return false;
            };
            let resp = t.span(name, |_| svc.execute(cmd));
            t.span("service.format", |_| write!(out, "{resp}").is_ok())
                && !matches!(resp, Response::Err(_))
        });
        let dt = secs(t0);
        self.dirty_reads += dirty as u64;
        let lines = &self.lines;
        let want = &self.expected.get_or_insert_with(|| oracle(lines))[i];
        self.attempted += 1;
        // An INSERT's `added=` count is the service's own bookkeeping; the
        // oracle pins everything before it.
        let matches = match kind {
            Kind::Insert => self.out.starts_with(want.as_str()),
            _ => self.out == *want,
        };
        if !ok || !matches {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!(
                    "command {i} `{}`: got `{}`, want `{want}`",
                    self.lines[i], self.out
                ));
            }
        }
        Sample {
            key: i,
            wall_s: dt,
            work: 1.0,
            work_s: dt,
            latency_us: (kind == Kind::Reach).then_some(dt * 1e6),
        }
    }

    fn finish(mut self, t: &Tracer, quiet: &Quiet) -> Summary {
        if self.pos == EPISODE {
            self.close_episode();
        }
        // A partial last episode's counters are reported but not guarded.
        let counters = if self.episodes > 0 {
            self.last
        } else {
            self.counters()
        };
        let mut s = Summary {
            attempted: self.attempted,
            failed: self.failed,
            problems: std::mem::take(&mut self.errors),
            ..Summary::default()
        };
        s.problems.extend(self.guard.mismatches.iter().cloned());
        let mut write_us: Vec<f64> = quiet
            .wall_s
            .iter()
            .zip(&self.kinds)
            .filter(|(_, &k)| k != Kind::Reach)
            .map(|(s, _)| s * 1e6)
            .collect();
        s.named = vec![
            ("cmds_per_s", quiet.throughput_per_s(), "1/s"),
            ("reach_p50_us", quiet.p50_us(), "us"),
            ("reach_p99_us", quiet.p99_us(), "us"),
            ("write_p99_us", percentile(&mut write_us, 0.99), "us"),
        ];
        let totals = t.totals();
        let ns = |name| mean_self_ns(&totals, name);
        s.layers = vec![
            ("service.parse_ns", ns("service.parse"), "ns"),
            ("service.format_ns", ns("service.format"), "ns"),
            (
                "service.reach_clean_us",
                ns("service.reach_clean") / 1e3,
                "us",
            ),
            (
                "service.reach_dirty_us",
                ns("service.reach_dirty") / 1e3,
                "us",
            ),
            ("service.insert_us", ns("service.insert") / 1e3, "us"),
            ("service.delete_us", ns("service.delete") / 1e3, "us"),
            ("service.dirty_reads", counters[0] as f64, "count"),
            ("service.wal_bytes", counters[1] as f64, "bytes"),
            ("service.snapshots", counters[2] as f64, "count"),
            ("service.stale_reads", counters[3] as f64, "count"),
            ("service.errors", counters[4] as f64, "count"),
        ];
        s
    }
}
