//! Determinism of the simulator and golden-value checks pinning the exact
//! measured numbers of key design points (so regressions in cycle counts
//! are caught, not just correctness).

use systolic::closure::{gnp, DiGraph};
use systolic::partition::{ClosureEngine, FixedArrayEngine, GridEngine, LinearEngine};
use systolic_semiring::{Bool, DenseMatrix};

#[test]
fn simulation_is_deterministic() {
    let a = gnp(13, 0.22, 3).adjacency_matrix();
    for _ in 0..2 {
        let (r1, s1) = ClosureEngine::<Bool>::closure(&LinearEngine::new(4), &a).unwrap();
        let (r2, s2) = ClosureEngine::<Bool>::closure(&LinearEngine::new(4), &a).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2, "stats must be bit-identical across runs");
        let (g1, t1) = ClosureEngine::<Bool>::closure(&GridEngine::new(2), &a).unwrap();
        let (g2, t2) = ClosureEngine::<Bool>::closure(&GridEngine::new(2), &a).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(t1, t2);
    }
}

#[test]
fn golden_fixed_array_makespan() {
    // Single-instance makespan of the Fig. 17 array: pinned so the timing
    // model cannot drift silently. Structure-dependent, data-independent.
    let empty = DenseMatrix::<Bool>::zeros(8, 8);
    let dense = {
        let mut m = DenseMatrix::<Bool>::zeros(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                m.set(i, j, i != j);
            }
        }
        m
    };
    let (_, s_empty) = ClosureEngine::<Bool>::closure(&FixedArrayEngine::new(), &empty).unwrap();
    let (_, s_dense) = ClosureEngine::<Bool>::closure(&FixedArrayEngine::new(), &dense).unwrap();
    assert_eq!(
        s_empty.cycles, s_dense.cycles,
        "systolic timing is data-independent"
    );
    // Pinned value for n = 8: the makespan is O(n) — wavefront 2k+g over
    // n(n+1) cells plus per-hop register and rotation slack (DESIGN.md §4).
    assert_eq!(s_empty.cycles, 38);
}

#[test]
fn golden_linear_partitioned_counters() {
    // n = 12, m = 3, one instance: pin all headline counters.
    let a = gnp(12, 0.2, 7).adjacency_matrix();
    let (_, s) = ClosureEngine::<Bool>::closure(&LinearEngine::new(3), &a).unwrap();
    assert_eq!(s.cells, 3);
    assert_eq!(s.useful_ops, 12 * 11 * 10);
    assert_eq!(s.host_words, 144);
    assert_eq!(s.memory_connections, 4);
    assert_eq!(s.output_words, 144);
    assert_eq!(s.max_bank_writes_per_cycle, 1);
    // Ideal is n²(n+1)/m = 624; measured includes fill and boundary sets.
    assert!(s.cycles >= 624, "cycles {}", s.cycles);
    assert!(s.cycles <= 900, "cycles {} drifted", s.cycles);
}

#[test]
fn golden_small_closure_matrix() {
    // Fully pinned end-to-end answer for a hand-checkable graph.
    let mut g = DiGraph::new(5);
    for (u, v) in [(0, 1), (1, 2), (2, 1), (2, 3)] {
        g.add_edge(u, v);
    }
    let (res, _) =
        ClosureEngine::<Bool>::closure(&LinearEngine::new(2), &g.adjacency_matrix()).unwrap();
    let want = [
        [true, true, true, true, false],
        [false, true, true, true, false],
        [false, true, true, true, false],
        [false, false, false, true, false],
        [false, false, false, false, true],
    ];
    for (i, row) in want.iter().enumerate() {
        for (j, &w) in row.iter().enumerate() {
            assert_eq!(*res.get(i, j), w, "({i},{j})");
        }
    }
}

#[test]
fn variable_size_problems_reuse_one_engine() {
    // §1 motivation: "problems of variable size using the same array".
    let eng = LinearEngine::new(3);
    for n in [4usize, 9, 14, 6] {
        let a = gnp(n, 0.3, n as u64).adjacency_matrix();
        let (res, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        assert_eq!(res, systolic_semiring::warshall(&a), "n={n}");
        assert_eq!(stats.cells, 3);
    }
}

/// 64-bit FNV-1a over a byte string: a dependency-free digest for goldens.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn golden_closure_plan_digests() {
    // Digest of every closure mapping's compiled plan, rendered through
    // `Debug`: any change to cell programs, stream wiring, slot interning,
    // host feed order or the cycle budget changes the digest.
    use systolic::partition::{
        FixedArrayMapping, FixedLinearMapping, GridMapping, LpgsMapping, LsgpMapping, Mapping,
    };
    let shapes = [(3usize, 1usize), (5, 2), (8, 1)];
    let digest = |m: &dyn Fn(usize, usize) -> String| -> Vec<u64> {
        shapes
            .iter()
            .map(|&(n, b)| fnv1a(m(n, b).as_bytes()))
            .collect()
    };
    let got = [
        digest(&|n, b| format!("{:?}", LpgsMapping::new(3).build_plan(n, b))),
        digest(&|n, b| format!("{:?}", GridMapping::new(2).build_plan(n, b))),
        digest(&|n, b| format!("{:?}", LsgpMapping::new(4).build_plan(n, b))),
        digest(&|n, b| format!("{:?}", FixedArrayMapping.build_plan(n, b))),
        digest(&|n, b| format!("{:?}", FixedLinearMapping.build_plan(n, b))),
    ];
    let want: [[u64; 3]; 5] = [
        [
            0x34d8_1a46_ccee_7a2f,
            0x2a3b_c952_058e_eeaf,
            0xf318_f962_b224_640a,
        ],
        [
            0x8e06_ff60_9e14_f24a,
            0x8ae2_a832_d733_c888,
            0x93e0_ed71_5e7f_5f89,
        ],
        [
            0x2784_c722_258d_b0c6,
            0x4b21_664c_0aef_e5cc,
            0x7b62_83c9_e641_5e1a,
        ],
        [
            0x9afe_70c1_124e_0183,
            0x75cb_c6ab_3fd2_1a3f,
            0x9547_a2c5_bc7e_c01e,
        ],
        [
            0x088e_7746_3c77_fa0b,
            0xb978_1152_c517_28c2,
            0xbc88_b40a_ce2b_229f,
        ],
    ];
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.as_slice(), w.as_slice(), "mapping #{i}: got {got:#x?}");
    }
}

#[test]
fn golden_elimination_results_and_counters() {
    // LU n=12 and Faddeev n=6 under the §4.3 level durations on the linear
    // and grid arrays: digest of the result's f64 bits plus the headline
    // counters, so results stay bit-exact and the timing stays pinned.
    use systolic::partition::{
        elimination_input, level_durations, run_elimination_timed, Algo, EliminationMapping,
    };
    let mut got = Vec::new();
    for (algo, n) in [(Algo::Lu, 12usize), (Algo::Faddeev, 6)] {
        let a = elimination_input(algo.msize(n), 2026);
        let durs = level_durations(algo, n);
        for mapping in [
            EliminationMapping::Linear { m: 4 },
            EliminationMapping::Grid { s: 2 },
        ] {
            let (f, s) = run_elimination_timed(algo, mapping, &a, &durs).unwrap();
            let bits: Vec<u8> = (0..f.rows())
                .flat_map(|i| (0..f.cols()).map(move |j| (i, j)))
                .flat_map(|(i, j)| f.get(i, j).to_bits().to_le_bytes())
                .collect();
            got.push([
                fnv1a(&bits),
                s.cycles,
                s.useful_ops,
                s.bank_reads,
                s.bank_writes,
                s.host_words,
                s.output_words,
            ]);
        }
    }
    // [result digest, cycles, useful_ops, bank_reads, bank_writes,
    //  host_words, output_words] for LU/linear, LU/grid, Faddeev/linear,
    //  Faddeev/grid.
    let want: [[u64; 7]; 4] = [
        [16_358_317_604_862_003_541, 1756, 506, 615, 615, 144, 144],
        [16_358_317_604_862_003_541, 1779, 506, 485, 485, 144, 144],
        [7_063_448_019_129_878_882, 1605, 451, 514, 514, 144, 144],
        [7_063_448_019_129_878_882, 1635, 451, 400, 400, 144, 144],
    ];
    assert_eq!(got.as_slice(), want.as_slice(), "got {got:#x?}");
}
