//! The stream semantics of the Fig. 17 G-graph: the regular graph with
//! each strip column collapsed into a single **G-node** of computation
//! time `n`.
//!
//! The geometry (rows, roles, skewed `(k, h)` coordinates, times) lives in
//! [`GenericGGraph::closure`](crate::GenericGGraph::closure); this module
//! holds what a G-node *computes*:
//!
//! * row `k` executes level `k` of Warshall;
//! * the **pivot head** `(k, h = k)` turns the incoming pivot column into
//!   the rightward pivot stream;
//! * each **fuse** `(k, k+1..k+n-1)` processes one matrix column as an
//!   `n`-element stream against the pivot stream;
//! * the **delay tail** `(k, k+n)` (the inserted delay column) returns the
//!   pivot stream to the next level as a column.
//!
//! [`eval`] is the functional stream semantics: the specification every
//! simulated array engine must match.

use systolic_semiring::{DenseMatrix, PathSemiring};

/// Functional stream evaluation of the whole `n × n` closure G-graph — the
/// semantic specification for every array engine.
///
/// `a` must already be reflexive (diagonal ≥ `1`); use
/// [`systolic_semiring::reflexive`].
///
/// # Panics
/// When `a` is not square or smaller than `2 × 2`.
pub fn eval<S: PathSemiring>(a: &DenseMatrix<S>) -> DenseMatrix<S> {
    let n = a.rows();
    assert!(n >= 2, "G-graph needs n ≥ 2");
    assert_eq!(a.cols(), n);
    // cols[g] = column (k+g) mod n as a stream in row order starting at
    // the pivot row k (invariant maintained level by level).
    let mut cols: Vec<Vec<S::Elem>> = (0..n).map(|g| a.col(g)).collect();
    for _k in 0..n {
        let pivot = cols[0].clone();
        let mut next: Vec<Vec<S::Elem>> = Vec::with_capacity(n);
        for col in cols.iter().take(n).skip(1) {
            next.push(gnode_stream::<S>(col, &pivot));
        }
        next.push(rotate_stream::<S>(&pivot)); // delay tail
        cols = next;
    }
    // After n levels the columns are back in natural order.
    let mut out = DenseMatrix::<S>::zeros(n, n);
    for (g, col) in cols.iter().enumerate() {
        out.set_col(g, col);
    }
    out
}

/// One fuse G-node's stream function: latch the head (the pivot-row element
/// `x[k][j]`), fuse the remaining elements against the pivot stream, and
/// re-emit the head last (rotating the stream to start at row `k+1`).
fn gnode_stream<S: PathSemiring>(col: &[S::Elem], pivot: &[S::Elem]) -> Vec<S::Elem> {
    let n = col.len();
    debug_assert_eq!(pivot.len(), n);
    let q = col[0].clone();
    let mut out = Vec::with_capacity(n);
    for r in 1..n {
        out.push(S::fuse(&col[r], &pivot[r], &q));
    }
    out.push(q);
    out
}

/// The delay tail's stream function: pure rotation (head emitted last).
fn rotate_stream<S: PathSemiring>(stream: &[S::Elem]) -> Vec<S::Elem> {
    let n = stream.len();
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&stream[1..]);
    out.push(stream[0].clone());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_semiring::{reflexive, warshall, Bool, DenseMatrix, MaxMin, MinPlus};

    fn bool_adj(n: usize, edges: &[(usize, usize)]) -> DenseMatrix<Bool> {
        let mut m = DenseMatrix::<Bool>::zeros(n, n);
        for &(i, j) in edges {
            m.set(i, j, true);
        }
        m
    }

    #[test]
    fn eval_equals_warshall_bool() {
        for (n, edges) in [
            (4usize, vec![(0, 1), (1, 2), (2, 3)]),
            (5, vec![(0, 2), (2, 4), (4, 1), (1, 0)]),
            (6, vec![(5, 0), (0, 5), (1, 3), (3, 1), (2, 4)]),
        ] {
            let a = bool_adj(n, &edges);
            let got = eval::<Bool>(&reflexive(&a));
            assert_eq!(got, warshall(&a), "n={n}");
        }
    }

    #[test]
    fn eval_equals_warshall_minplus_and_maxmin() {
        let n = 6;
        let mut d = DenseMatrix::<MinPlus>::zeros(n, n);
        let mut c = DenseMatrix::<MaxMin>::zeros(n, n);
        let edges = [
            (0, 1, 4),
            (1, 2, 1),
            (2, 5, 3),
            (0, 5, 20),
            (5, 3, 2),
            (3, 0, 7),
        ];
        for &(i, j, w) in &edges {
            d.set(i, j, w);
            c.set(i, j, w);
        }
        assert_eq!(eval::<MinPlus>(&reflexive(&d)), warshall(&d));
        assert_eq!(eval::<MaxMin>(&reflexive(&c)), warshall(&c));
    }

    #[test]
    fn stream_rotation_helpers() {
        let s = vec![10u64, 20, 30];
        assert_eq!(rotate_stream::<MinPlus>(&s), vec![20, 30, 10]);
    }
}
