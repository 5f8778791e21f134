//! Metagenome assembly binning (the paper's §I motivation).
//!
//! ```text
//! cargo run --release --example metagenome_assembly
//! ```
//!
//! Metagenome assemblers represent partially assembled reads as a huge,
//! extremely sparse graph whose connected components can be processed
//! independently (the paper's M3 workload). This example:
//!
//! 1. generates an M3-like assembly graph (contig paths + repeat edges),
//! 2. labels components with distributed LACC on a simulated machine,
//! 3. extracts per-component "bins" and prints the size histogram an
//!    assembler would farm out to workers.

use lacc_suite::dmsim::EDISON;
use lacc_suite::graph::generators::metagenome_graph;
use lacc_suite::graph::stats::graph_stats;
use lacc_suite::lacc::{run, EngineKind, LaccOpts, RunConfig};
use std::collections::BTreeMap;

fn main() {
    let g = metagenome_graph(200_000, 7, 0.004, 11);
    let stats = graph_stats(&g);
    println!(
        "assembly graph: {} vertices, {} directed edges, avg degree {:.2}",
        stats.vertices, stats.directed_edges, stats.avg_degree
    );

    // LACC, the paper's engine: its Lemma-1 tracking yields the
    // converged-component profile printed below.
    let opts = LaccOpts {
        engine: EngineKind::Lacc,
        ..LaccOpts::default()
    };
    let run = run(&g, &RunConfig::new(16, EDISON.lacc_model()).with_opts(opts)).unwrap();
    println!(
        "LACC (p=16): {} components in {} iterations, modeled {:.1} ms",
        run.num_components(),
        run.num_iterations(),
        run.modeled_total_s * 1e3
    );
    assert_eq!(run.num_components(), stats.components);

    // The sparsity story: on this graph most components converge late
    // (paper §VI-E) — print the profile.
    print!("converged fraction per iteration:");
    for f in run.converged_fractions() {
        print!(" {:.0}%", f * 100.0);
    }
    println!();

    // Bin vertices by component and histogram the bin sizes.
    let mut bin_size: BTreeMap<usize, usize> = BTreeMap::new();
    for &label in &run.labels {
        *bin_size.entry(label).or_insert(0) += 1;
    }
    let mut hist: BTreeMap<usize, usize> = BTreeMap::new();
    for &size in bin_size.values() {
        *hist.entry(size).or_insert(0) += 1;
    }
    println!("\nbin-size histogram (size -> count), top of the distribution:");
    for (size, count) in hist.iter().take(12) {
        println!("  {size:>6} vertices : {count} bins");
    }
    let largest = bin_size.values().max().copied().unwrap_or(0);
    println!(
        "largest bin: {largest} vertices ({:.2}% of the graph)",
        100.0 * largest as f64 / stats.vertices as f64
    );
}
