//! Quickstart: find connected components with LACC.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small graph, runs serial LACC, then a distributed run (the
//! default engine, FastSV) on a simulated 4-rank machine, and cross-checks
//! both against union-find.

use lacc_suite::baselines::union_find_cc;
use lacc_suite::graph::generators::community_graph;
use lacc_suite::graph::unionfind::canonicalize_labels;
use lacc_suite::lacc::{lacc_serial, run, LaccOpts, RunConfig};

fn main() {
    // A protein-similarity-like graph: 20k vertices, ~300 components.
    let g = community_graph(20_000, 300, 8.0, 1.4, 7);
    println!(
        "graph: {} vertices, {} undirected edges",
        g.num_vertices(),
        g.num_undirected_edges()
    );

    // 1. Serial LACC (the LAGraph-style reference).
    let serial = lacc_serial(&g, &LaccOpts::default());
    println!(
        "serial LACC: {} components in {} iterations ({:.1} ms)",
        serial.num_components(),
        serial.num_iterations(),
        serial.wall_s * 1e3
    );

    // 2. A distributed run on a simulated 2x2 process grid with the
    //    Edison machine model (default engine: FastSV).
    let model = lacc_suite::dmsim::EDISON.lacc_model();
    let dist = run(&g, &RunConfig::new(4, model)).unwrap();
    println!(
        "distributed {} (p=4): {} components, modeled {:.2} ms, wall {:.1} ms",
        dist.engine,
        dist.num_components(),
        dist.modeled_total_s * 1e3,
        dist.wall_s * 1e3
    );

    // 3. Verify against union-find.
    let truth = union_find_cc(&g);
    assert_eq!(canonicalize_labels(&serial.labels), truth);
    assert_eq!(canonicalize_labels(&dist.labels), truth);
    println!("verified: both labelings match union-find ground truth");

    // Peek at the convergence profile (Figure 7's data for this graph).
    print!("converged fraction per iteration:");
    for f in serial.converged_fractions() {
        print!(" {:.0}%", f * 100.0);
    }
    println!();
}
