//! Walks the paper's transformation pipeline (§2–§3) step by step for a
//! chosen problem size, printing the implementation property each stage
//! establishes and verifying that semantics are preserved throughout.
//!
//! ```text
//! cargo run --release --example transformation_pipeline [n]
//! ```

use systolic::dgraph::{closure_full, closure_lean, eval_closure_graph};
use systolic::transform::{
    ggraph, pipelined, regular, unidirectional, validate_stage, GenericGGraph,
};
use systolic_closure::gnp;
use systolic_semiring::{reflexive, warshall, Bool};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);

    let a = gnp(n, 0.2, 7).adjacency_matrix();
    let want = warshall(&a);
    let ar = reflexive(&a);

    println!("transformation pipeline for transitive closure, n = {n}\n");

    let stages = [
        ("Fig. 10  fully-parallel", closure_full(n)),
        ("Fig. 11  superfluous removed", closure_lean(n)),
        ("Fig. 12  broadcast → pipelined", pipelined(n)),
        ("Fig. 14  flipped (uni-directional)", unidirectional(n)),
        ("Fig. 16  regularized (delay nodes)", regular(n)),
    ];

    println!(
        "{:<36} {:>8} {:>8} {:>7} {:>7} {:>10} {:>7}",
        "stage", "compute", "delays", "fanout", "uni-xy", "wrap reach", "ok"
    );
    for (name, graph) in &stages {
        let p = validate_stage(graph);
        let result = eval_closure_graph::<Bool>(graph, &ar).expect("stage evaluates");
        let ok = result == want;
        println!(
            "{:<36} {:>8} {:>8} {:>7} {:>3}/{:<3} {:>10} {:>7}",
            name,
            p.compute_nodes,
            p.delay_nodes,
            p.max_fanout,
            p.unidirectional_x,
            p.unidirectional_y,
            p.inter_max_abs_dx,
            ok
        );
        assert!(ok, "{name} changed the algorithm!");
    }

    // And the collapsed G-graph (Fig. 17).
    let gg = GenericGGraph::closure(n);
    let got = ggraph::eval::<Bool>(&ar);
    assert_eq!(got, want);
    println!(
        "\nFig. 17 G-graph: {} rows × {} G-nodes, each of time {} — stream evaluation matches Warshall ✓",
        gg.rows(),
        gg.row(0).width,
        gg.row(0).gnode_time()
    );
    let useful = gg.total_useful_ops() as usize;
    println!(
        "useful ops {} = n(n-1)(n-2) = {}; total slots n²(n+1) = {} → utilization {:.4} = (n-1)(n-2)/(n(n+1))",
        useful,
        n * (n - 1) * (n - 2),
        n * n * (n + 1),
        useful as f64 / (n * n * (n + 1)) as f64
    );
}
