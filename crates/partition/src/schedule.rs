//! The G-set schedule (Fig. 20) as a first-class object.
//!
//! Engines compile their task programs from a [`GenericGGraph`] through
//! [`Mapping::graph_plan`](crate::Mapping::graph_plan), but experiment E10
//! needs the schedule itself: the ordered list of G-sets, each G-set's
//! members, and a proof that every dependence points to an earlier entry.
//! [`GsetSchedule`] is a view of the G-sets the linear and grid plan
//! builders compile, enumerated with the same block loops (a test pins each
//! cell's compiled task order to it), plus the legality check and the
//! lock-step start times. It works for any G-graph: closure, LU, Faddeev.

use std::collections::HashMap;
use std::ops::Range;
use systolic_transform::{GenRole, GenericGGraph};

/// One scheduled G-set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Execution order index.
    pub order: usize,
    /// G-graph row of the set (linear mapping) or block row (grid mapping).
    pub row: usize,
    /// `h`-block index.
    pub block: usize,
    /// Member G-nodes as skewed `(k, h)` coordinates.
    pub members: Vec<(usize, usize)>,
}

impl ScheduleEntry {
    /// True when the set uses fewer cells than the array provides — the
    /// paper's boundary sets ("might not use all cells in the array").
    pub fn is_boundary(&self, cells: usize) -> bool {
        self.members.len() < cells
    }
}

/// An ordered G-set schedule over a G-graph.
#[derive(Clone, Debug)]
pub struct GsetSchedule {
    gg: GenericGGraph,
    /// Cells per G-set (m for linear, s² for grid).
    pub cells: usize,
    entries: Vec<ScheduleEntry>,
}

impl GsetSchedule {
    /// The linear mapping (Fig. 18) scheduled by vertical paths (Fig. 20a):
    /// G-sets are `m` consecutive `h` positions of one row; blocks advance
    /// left to right, rows top to bottom within a block.
    pub fn linear(gg: &GenericGGraph, m: usize) -> Self {
        assert!(m >= 1);
        let blocks = (gg.h_max() + 1).div_ceil(m);
        let sets = (0..blocks).flat_map(|b| {
            (0..gg.rows()).map(move |k| (k, b, members(gg, k..k + 1, b * m..(b + 1) * m)))
        });
        Self::from_sets(gg, m, sets)
    }

    /// The grid mapping (Fig. 19) scheduled by vertical block paths:
    /// G-sets are `s × s` blocks of `(k, h)` space; `h`-blocks advance left
    /// to right, `k`-blocks top to bottom within an `h`-block.
    pub fn grid(gg: &GenericGGraph, s: usize) -> Self {
        assert!(s >= 1);
        let bcols = (gg.h_max() + 1).div_ceil(s);
        let brows = gg.rows().div_ceil(s);
        let sets = (0..bcols).flat_map(|bc| {
            (0..brows).map(move |br| {
                (
                    br,
                    bc,
                    members(gg, br * s..(br + 1) * s, bc * s..(bc + 1) * s),
                )
            })
        });
        Self::from_sets(gg, s * s, sets)
    }

    /// Numbers the non-empty `(row, block, members)` sets in order.
    fn from_sets(
        gg: &GenericGGraph,
        cells: usize,
        sets: impl Iterator<Item = (usize, usize, Vec<(usize, usize)>)>,
    ) -> Self {
        let mut entries = Vec::new();
        for (row, block, members) in sets.filter(|set| !set.2.is_empty()) {
            entries.push(ScheduleEntry {
                order: entries.len(),
                row,
                block,
                members,
            });
        }
        Self {
            gg: gg.clone(),
            cells,
            entries,
        }
    }

    /// Scheduled entries in execution order.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Number of G-sets (the paper's `n(n+1)/m` when boundaries divide
    /// evenly; slightly more otherwise because boundary sets are partial).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// G-sets that do not fill the array (the boundary sets).
    pub fn boundary_sets(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.is_boundary(self.cells))
            .count()
    }

    /// Total member G-nodes across all sets — must equal the graph's
    /// G-node count (`n(n+1)` for closure).
    pub fn total_gnodes(&self) -> usize {
        self.entries.iter().map(|e| e.members.len()).sum()
    }

    /// Verifies that the schedule covers the graph once and that every
    /// dependence of every member points to a G-node scheduled in an
    /// earlier entry, or the same one when the stream stays inside the
    /// G-set on a neighbor link. The dependences come from the roles:
    /// `(k, h)` consumes the column stream of `(k-1, h)` unless `k = 0`
    /// or it is a tail, and the pivot stream of `(k, h-1)` unless it is a
    /// head.
    ///
    /// This also proves the schedule legal under the lock-step
    /// [`GsetSchedule::starts`] with any computation times: a dependence
    /// in an earlier entry `d < e` finishes by `starts[d]` plus the
    /// slowest time in entry `d`, which is `starts[d+1] ≤ starts[e]`.
    ///
    /// # Errors
    /// Describes the missing coverage or the first violated dependence.
    pub fn verify_legal(&self) -> Result<(), String> {
        let gg = &self.gg;
        let mut order_of = HashMap::new();
        for e in &self.entries {
            for &node in &e.members {
                order_of.insert(node, e.order);
            }
        }
        if order_of.len() != gg.gnode_count() {
            return Err(format!(
                "schedule covers {} of {} G-nodes",
                order_of.len(),
                gg.gnode_count()
            ));
        }
        for e in &self.entries {
            for &(k, h) in &e.members {
                let role = gg.at_h(k, h);
                let column = (k > 0 && role != Some(GenRole::Tail)).then(|| (k - 1, h));
                let pivot = (role != Some(GenRole::Head)).then(|| (k, h - 1));
                for (dk, dh) in [column, pivot].into_iter().flatten() {
                    // Streams inside one G-set ride neighbor links (the
                    // pivot chain, and on the grid the column links), so a
                    // same-entry dependence is legal.
                    match order_of.get(&(dk, dh)) {
                        Some(&d) if d <= e.order => {}
                        Some(&d) => {
                            return Err(format!(
                                "G-node ({k},{h}) in entry {} depends on ({dk},{dh}) in later entry {d}",
                                e.order
                            ))
                        }
                        None => {
                            return Err(format!(
                                "G-node ({k},{h}) in entry {} depends on ({dk},{dh}), which no entry schedules",
                                e.order
                            ))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Lock-step start times (the Fig. 20 tags): entry `i + 1` starts once
    /// entry `i`'s slowest member has finished, each member taking its
    /// row's G-node time. On the closure graph's uniform time `n`, G-sets
    /// initiate every `n` cycles. Under **varying** times (§4.3) a G-set
    /// that mixes rows idles its fast members for the difference — the
    /// *time mixing* the Fig. 22 analysis charges against two-dimensional
    /// G-sets.
    pub fn starts(&self) -> Vec<u64> {
        let mut t = 0u64;
        self.entries
            .iter()
            .map(|e| {
                let start = t;
                t += e
                    .members
                    .iter()
                    .map(|&(k, _)| self.gg.row(k).gnode_time())
                    .max()
                    .unwrap_or(0);
                start
            })
            .collect()
    }
}

/// The G-nodes of `gg` at rows `ks` × positions `hs`, row-major — the
/// order the plan builders visit a G-set's cells in.
fn members(gg: &GenericGGraph, ks: Range<usize>, hs: Range<usize>) -> Vec<(usize, usize)> {
    ks.flat_map(|k| hs.clone().map(move |h| (k, h)))
        .filter(|&(k, h)| gg.at_h(k, h).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridMapping, LpgsMapping, Mapping};

    fn closure(n: usize) -> GenericGGraph {
        GenericGGraph::closure(n)
    }

    #[test]
    fn linear_schedule_covers_graph_and_is_legal() {
        for (n, m) in [(6usize, 2usize), (6, 3), (7, 3), (8, 5), (5, 1), (4, 9)] {
            let s = GsetSchedule::linear(&closure(n), m);
            assert_eq!(s.total_gnodes(), n * (n + 1), "n={n} m={m}");
            s.verify_legal()
                .unwrap_or_else(|e| panic!("n={n} m={m}: {e}"));
        }
    }

    #[test]
    fn grid_schedule_covers_graph_and_is_legal() {
        for (n, s) in [(6usize, 2usize), (7, 3), (9, 2), (5, 5)] {
            let sch = GsetSchedule::grid(&closure(n), s);
            assert_eq!(sch.total_gnodes(), n * (n + 1), "n={n} s={s}");
            sch.verify_legal()
                .unwrap_or_else(|e| panic!("n={n} s={s}: {e}"));
        }
    }

    #[test]
    fn gset_count_matches_paper_in_the_divisible_interior() {
        // n(n+1)/m full sets plus partial boundary sets.
        let (n, m) = (8usize, 3usize);
        let s = GsetSchedule::linear(&closure(n), m);
        let full = s.entries().iter().filter(|e| e.members.len() == m).count();
        let boundary = s.boundary_sets();
        assert_eq!(
            full * m
                + s.entries()
                    .iter()
                    .filter(|e| e.is_boundary(m))
                    .map(|e| e.members.len())
                    .sum::<usize>(),
            n * (n + 1)
        );
        assert!(boundary > 0, "parallelogram edges produce boundary sets");
    }

    #[test]
    fn grid_boundary_sets_are_triangular() {
        // The first h-block's first k-block is cut by the parallelogram's
        // left slant: member count is the triangular number s(s+1)/2.
        let (n, s) = (8usize, 3usize);
        let sch = GsetSchedule::grid(&closure(n), s);
        let first = &sch.entries()[0];
        assert_eq!(first.members.len(), s * (s + 1) / 2);
    }

    #[test]
    fn verify_legal_rejects_a_reordered_schedule() {
        // Row 1 of block 0 ahead of row 0: its column streams come later.
        let mut s = GsetSchedule::linear(&closure(5), 2);
        s.entries.swap(0, 1);
        for (i, e) in s.entries.iter_mut().enumerate() {
            e.order = i;
        }
        let err = s.verify_legal().unwrap_err();
        assert!(err.contains("later entry"), "{err}");
    }

    #[test]
    fn verify_legal_rejects_a_missing_gnode() {
        let mut s = GsetSchedule::grid(&closure(5), 2);
        s.entries[3].members.pop();
        assert_eq!(
            s.verify_legal().unwrap_err(),
            "schedule covers 29 of 30 G-nodes"
        );
    }

    #[test]
    fn closure_sets_initiate_every_n_cycles() {
        for n in [5usize, 6, 7] {
            for s in [
                GsetSchedule::linear(&closure(n), 2),
                GsetSchedule::grid(&closure(n), 2),
            ] {
                let starts = s.starts();
                assert_eq!(starts[0], 0);
                assert!(starts.windows(2).all(|w| w[1] - w[0] == n as u64));
            }
        }
    }

    #[test]
    fn elimination_starts_step_by_the_slowest_member() {
        // LU row times shrink with k (uniform within a row), so linear
        // G-sets never mix times while grid G-sets do.
        let lu = GenericGGraph::lu(6);
        for sched in [GsetSchedule::linear(&lu, 3), GsetSchedule::grid(&lu, 2)] {
            sched.verify_legal().unwrap_or_else(|e| panic!("{e}"));
            let starts = sched.starts();
            for (i, prev) in sched.entries().iter().enumerate().take(starts.len() - 1) {
                let slowest = prev.members.iter().map(|&(k, _)| lu.row(k).gnode_time());
                assert_eq!(
                    starts[i + 1] - starts[i],
                    slowest.max().unwrap(),
                    "entry {i}"
                );
            }
        }
    }

    /// The schedule's members dealt to their cells, in entry order.
    fn per_cell(
        s: &GsetSchedule,
        cell_of: impl Fn(usize, usize) -> usize,
    ) -> Vec<Vec<(usize, usize)>> {
        let mut cells = vec![Vec::new(); s.cells];
        for e in s.entries() {
            for &(k, h) in &e.members {
                cells[cell_of(k, h)].push((k, h));
            }
        }
        cells
    }

    #[test]
    fn schedule_is_the_compiled_plans_task_order() {
        for n in 2..=8 {
            for gg in [
                GenericGGraph::closure(n),
                GenericGGraph::lu(n),
                GenericGGraph::faddeev(n),
            ] {
                for c in 1..=5 {
                    let lin = GsetSchedule::linear(&gg, c);
                    lin.verify_legal().unwrap();
                    assert_eq!(
                        per_cell(&lin, |_, h| h % c),
                        LpgsMapping::new(c).graph_plan(&gg, 1).task_labels(),
                        "linear n={n} m={c} {gg:?}"
                    );
                    let grid = GsetSchedule::grid(&gg, c);
                    grid.verify_legal().unwrap();
                    assert_eq!(
                        per_cell(&grid, |k, h| (k % c) * c + h % c),
                        GridMapping::new(c).graph_plan(&gg, 1).task_labels(),
                        "grid n={n} s={c} {gg:?}"
                    );
                }
            }
        }
    }
}
