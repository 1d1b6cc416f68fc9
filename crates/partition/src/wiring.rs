//! The one place a G-node becomes a cell task.
//!
//! Every mapping decides only *where* a G-node runs and how its streams
//! travel on that array geometry. What a G-node *is* — its task kind, which
//! of its four streams exist, where results leave the array, its stream
//! length, duration and useful-operation count — comes from the
//! [`GenericGGraph`] alone and is decided here, once, for every mapping and
//! every algorithm family.

use crate::engine::EngineError;
use crate::plan::PlanBuilder;
use systolic_arraysim::{StreamDst, StreamSrc, Task, TaskKind, TaskLabel};
use systolic_semiring::{DenseMatrix, Semiring};
use systolic_transform::{GFamily, GenRole, GenericGGraph};

/// The crate's one role→[`TaskKind`] table.
fn task_kind(family: GFamily, role: GenRole) -> TaskKind {
    match (family, role) {
        (GFamily::Closure, GenRole::Head) => TaskKind::PivotHead,
        (GFamily::Closure, GenRole::Fuse) => TaskKind::Fuse,
        (GFamily::Elimination, GenRole::Head) => TaskKind::DivHead,
        (GFamily::Elimination, GenRole::Fuse) => TaskKind::ElimFuse,
        (_, GenRole::Tail) => TaskKind::DelayTail,
    }
}

/// Where a graph's result streams land in the output collectors, shared by
/// the plan builders (writing) and [`OutputLayout::assemble`] (reading). Per
/// instance, the streams are laid out as:
///
/// 1. one single-word *head* stream per fuse `(k, h)` — the finished
///    pivot-row element (elimination graphs only);
/// 2. one *L-column* stream per tail-less row `k` — the pivot stream
///    draining at the row's right edge;
/// 3. one *trailing* stream per non-head node of the last row — its
///    fused column.
///
/// The graph's streams are the plan's only outputs, so instance `inst`'s
/// streams start at `inst · per_instance`. A closure graph has no heads and
/// no L-columns, so its result column `j` is stream `inst·n + j`.
#[derive(Clone, Debug)]
pub(crate) struct OutputLayout {
    per_instance: usize,
    /// Per row: head streams of all earlier rows.
    heads_before: Vec<usize>,
    /// Per row: L-column streams of all earlier rows.
    lcols_before: Vec<usize>,
    /// Head streams per instance (where the L-columns start).
    lcol0: usize,
    /// Head and L-column streams per instance (where trailing ones start).
    trailing0: usize,
    /// `h` of the last row's first trailing node.
    trailing_h0: usize,
}

impl OutputLayout {
    pub(crate) fn new(gg: &GenericGGraph) -> Self {
        let emits_heads = gg.family() == GFamily::Elimination;
        let (mut heads, mut lcols) = (0, 0);
        let mut heads_before = Vec::with_capacity(gg.rows());
        let mut lcols_before = Vec::with_capacity(gg.rows());
        for k in 0..gg.rows() {
            let row = gg.row(k);
            heads_before.push(heads);
            lcols_before.push(lcols);
            if emits_heads {
                heads += row.width - 1 - usize::from(row.has_tail);
            }
            lcols += usize::from(!row.has_tail);
        }
        let last = gg.row(gg.rows() - 1);
        Self {
            per_instance: heads + lcols + last.width - 1,
            heads_before,
            lcols_before,
            lcol0: heads,
            trailing0: heads + lcols,
            trailing_h0: last.h_lo + 1,
        }
    }

    /// Output streams per instance.
    fn per_instance(&self) -> usize {
        self.per_instance
    }

    fn base(&self, inst: usize) -> usize {
        inst * self.per_instance
    }

    /// Head stream of fuse `(k, h)` in a row starting at `h_lo`.
    pub(crate) fn head(&self, inst: usize, k: usize, h_lo: usize, h: usize) -> usize {
        self.base(inst) + self.heads_before[k] + (h - h_lo - 1)
    }

    /// L-column stream of tail-less row `k`.
    pub(crate) fn lcol(&self, inst: usize, k: usize) -> usize {
        self.base(inst) + self.lcol0 + self.lcols_before[k]
    }

    /// Trailing stream of the last row's node at `h`.
    pub(crate) fn trailing(&self, inst: usize, h: usize) -> usize {
        self.base(inst) + self.trailing0 + (h - self.trailing_h0)
    }

    /// Reads instance `inst`'s result streams back into the matrix they
    /// encode. L-column `c` fills column `c` from the diagonal down, the
    /// heads of its row fill row `c` to the right of it, and the trailing
    /// streams fill the remaining columns below the L-columns. A closure
    /// graph has only trailing streams, so this is its result matrix; an
    /// elimination graph yields the full in-place elimination state.
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] when a stream drained with the wrong word
    /// count (a dropped or duplicated word under fault injection).
    pub(crate) fn assemble<S: Semiring>(
        &self,
        gg: &GenericGGraph,
        outs: &[Vec<S::Elem>],
        inst: usize,
    ) -> Result<DenseMatrix<S>, EngineError> {
        let stream = |s: usize, want: usize| -> Result<&[S::Elem], EngineError> {
            match &outs[s] {
                words if words.len() == want => Ok(words),
                words => Err(EngineError::Corrupt {
                    instance: inst,
                    detail: format!("output stream {s} has {} of {want} words", words.len()),
                }),
            }
        };
        let emits_heads = gg.family() == GFamily::Elimination;
        let last = gg.row(gg.rows() - 1);
        let lcols = self.trailing0 - self.lcol0;
        let below = last.len - usize::from(emits_heads);
        let mut f = DenseMatrix::<S>::zeros(lcols + below, lcols + below);
        for k in (0..gg.rows()).filter(|&k| !gg.row(k).has_tail) {
            let (row, c) = (gg.row(k), self.lcols_before[k]);
            for (r, v) in stream(self.lcol(inst, k), row.len)?.iter().enumerate() {
                f.set(c + r, c, v.clone());
            }
            if emits_heads {
                for h in row.h_lo + 1..=row.h_hi() {
                    let head = stream(self.head(inst, k, row.h_lo, h), 1)?;
                    f.set(c, c + h - row.h_lo, head[0].clone());
                }
            }
        }
        for (t, h) in (self.trailing_h0..=last.h_hi()).enumerate() {
            for (r, v) in stream(self.trailing(inst, h), below)?.iter().enumerate() {
                f.set(lcols + r, lcols + t, v.clone());
            }
        }
        Ok(f)
    }
}

/// One G-node's four interior stream endpoints on an array geometry,
/// resolved lazily: [`Wiring::node`] calls a resolver only for a stream the
/// node's role uses and that does not leave the array, in the order
/// `col_in`, `pivot_in`, `col_out`, `pivot_out`. Bank and host keys intern
/// on first use, so this order fixes the slot numbering.
pub(crate) struct Ends<CI, PI, CO, PO> {
    /// Column stream in (never called for a tail).
    pub col_in: CI,
    /// Pivot stream in (never called for a head).
    pub pivot_in: PI,
    /// Column stream out (never called for a head or the last row).
    pub col_out: CO,
    /// Pivot stream out (never called for a tail or a row's last node).
    pub pivot_out: PO,
}

/// Turns a graph's G-nodes into cell tasks for one plan.
pub(crate) struct Wiring<'g> {
    gg: &'g GenericGGraph,
    layout: OutputLayout,
}

impl<'g> Wiring<'g> {
    /// Reserves the graph's output streams for every instance of `plan`.
    pub(crate) fn new(gg: &'g GenericGGraph, plan: &mut PlanBuilder) -> Self {
        let layout = OutputLayout::new(gg);
        let first = plan.add_outputs(plan.batch_len() * layout.per_instance());
        debug_assert_eq!(first, 0, "the graph's streams are the only outputs");
        Self { gg, layout }
    }

    /// Input columns entering row 0 (its non-tail nodes, `h ∈ 0..inputs`).
    pub(crate) fn inputs(&self) -> usize {
        let row = self.gg.row(0);
        row.width - usize::from(row.has_tail)
    }

    /// Ideal cycle count per instance on `cells` cells: the graph's total
    /// G-node time spread evenly, with data transfer overlapped with
    /// computation. For the closure graph that is `n²(n+1)/m`, the
    /// reciprocal of the paper's §4 throughput `T = m/(n²(n+1))`. Every
    /// mapping derives its cycle budget from this one quantity.
    pub(crate) fn ideal_cycles(&self, cells: usize) -> u64 {
        let work: u64 = (0..self.gg.rows())
            .map(|k| self.gg.row(k).width as u64 * self.gg.row(k).gnode_time())
            .sum();
        work / cells as u64
    }

    /// Appends G-node `(k, h)` of instance `inst` to `cell`'s program; a
    /// position outside the graph is skipped.
    pub(crate) fn node<CI, PI, CO, PO>(
        &self,
        plan: &mut PlanBuilder,
        cell: usize,
        inst: usize,
        k: usize,
        h: usize,
        ends: Ends<CI, PI, CO, PO>,
    ) where
        CI: FnOnce(&mut PlanBuilder) -> StreamSrc,
        PI: FnOnce(&mut PlanBuilder) -> StreamSrc,
        CO: FnOnce(&mut PlanBuilder) -> StreamDst,
        PO: FnOnce(&mut PlanBuilder) -> StreamDst,
    {
        let Some(role) = self.gg.at_h(k, h) else {
            return;
        };
        let row = self.gg.row(k);
        let output = |stream| Some(StreamDst::Output { stream });
        let col_in = (role != GenRole::Tail).then(|| (ends.col_in)(plan));
        let pivot_in = (role != GenRole::Head).then(|| (ends.pivot_in)(plan));
        let col_out = match role {
            GenRole::Head => None,
            _ if k == self.gg.rows() - 1 => output(self.layout.trailing(inst, h)),
            _ => Some((ends.col_out)(plan)),
        };
        let pivot_out = match role {
            GenRole::Tail => None,
            _ if h == row.h_hi() => output(self.layout.lcol(inst, k)),
            _ => Some((ends.pivot_out)(plan)),
        };
        let head_out = match (self.gg.family(), role) {
            (GFamily::Elimination, GenRole::Fuse) => output(self.layout.head(inst, k, row.h_lo, h)),
            _ => None,
        };
        plan.push_task(
            cell,
            Task {
                kind: task_kind(self.gg.family(), role),
                len: row.len,
                col_in,
                pivot_in,
                col_out,
                pivot_out,
                head_out,
                duration: row.duration,
                useful_ops: self.gg.useful_ops(k, h),
                label: TaskLabel {
                    k: k as u32,
                    h: h as u32,
                },
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_semiring::Real;

    /// Distinct entries, so a misplaced word cannot go unnoticed.
    fn matrix(size: usize, inst: usize) -> DenseMatrix<Real> {
        DenseMatrix::from_fn(size, size, |i, j| (inst * 1000 + i * 10 + j) as f64)
    }

    /// Writes each instance's matrix into its output streams the way the
    /// array emits them: a closure graph's column `j` is stream
    /// `inst·n + j`; an elimination graph's level `k` sends column `k`
    /// from the diagonal down as its L-column and row `k` right of the
    /// diagonal as single-word heads, and the trailing streams carry the
    /// last `msize - levels` rows of the remaining columns.
    fn encode(gg: &GenericGGraph, mats: &[DenseMatrix<Real>]) -> (OutputLayout, Vec<Vec<f64>>) {
        let layout = OutputLayout::new(gg);
        let mut outs = vec![Vec::new(); mats.len() * layout.per_instance()];
        for (inst, f) in mats.iter().enumerate() {
            let size = f.rows();
            if gg.family() == GFamily::Closure {
                for j in 0..size {
                    outs[inst * size + j] = f.col(j);
                }
                continue;
            }
            let levels = gg.rows();
            for k in 0..levels {
                outs[layout.lcol(inst, k)] = (k..size).map(|r| *f.get(r, k)).collect();
                for h in k + 1..size {
                    outs[layout.head(inst, k, k, h)] = vec![*f.get(k, h)];
                }
            }
            for h in levels..size {
                outs[layout.trailing(inst, h)] = (levels..size).map(|r| *f.get(r, h)).collect();
            }
        }
        assert!(
            outs.iter().all(|s| !s.is_empty()),
            "every stream is written"
        );
        (layout, outs)
    }

    #[test]
    fn assemble_round_trips_and_blames_a_truncated_stream_on_its_instance() {
        for gg in [
            GenericGGraph::closure(3),
            GenericGGraph::lu(4),
            GenericGGraph::faddeev(2),
        ] {
            let mats: Vec<_> = (0..2).map(|inst| matrix(gg.row(0).len, inst)).collect();
            let (layout, outs) = encode(&gg, &mats);
            for (inst, want) in mats.iter().enumerate() {
                let got = layout.assemble::<Real>(&gg, &outs, inst).unwrap();
                assert_eq!(&got, want, "{:?} instance {inst}", gg.family());
            }
            for s in 0..outs.len() {
                let mut cut = outs.clone();
                cut[s].pop();
                let owner = s / layout.per_instance();
                for (inst, want) in mats.iter().enumerate() {
                    match layout.assemble::<Real>(&gg, &cut, inst) {
                        Err(EngineError::Corrupt { instance, .. }) if inst == owner => {
                            assert_eq!(instance, owner, "stream {s}");
                        }
                        Ok(got) if inst != owner => assert_eq!(&got, want),
                        other => panic!("stream {s}, instance {inst}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn closure_ideal_cycles_are_n_squared_n_plus_one_over_m() {
        // Pin the budget quantity: n²(n+1)/m, integer division.
        let ideal = |n: usize, m: usize| {
            let gg = GenericGGraph::closure(n);
            let mut plan = PlanBuilder::new(n, 1, m);
            Wiring::new(&gg, &mut plan).ideal_cycles(m)
        };
        assert_eq!(ideal(6, 3), 36 * 7 / 3);
        assert_eq!(ideal(6, 3), 84);
        assert_eq!(ideal(4, 1), 16 * 5);
        assert_eq!(ideal(5, 4), 25 * 6 / 4);
        assert_eq!(ideal(5, 4), 37, "rounds down");
    }
}
