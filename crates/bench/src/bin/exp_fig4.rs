//! Figure 4 — strong scaling of LACC vs ParConnect on Edison.
//!
//! Eight smaller test problems, node counts up to 256 (paper: up to 256
//! nodes / 6144 cores). LACC runs 4 ranks per node (hybrid); ParConnect
//! runs flat MPI (24 ranks/node on Edison), squared down to a legal grid.
//! The y-value is modeled seconds from the α-β cost tracker — who wins,
//! by what factor, and where curves flatten is the reproduced shape.

use dmsim::EDISON;
use lacc::{EngineKind, LaccOpts};
use lacc_bench::*;
use lacc_graph::generators::suite::suite_small;

fn main() {
    let nodes = scaling_nodes();
    let shrink = shrink();
    let opts = LaccOpts {
        engine: EngineKind::Lacc,
        ..LaccOpts::default()
    };
    let trace = trace_config();
    let header = [
        "graph",
        "nodes",
        "lacc ranks",
        "lacc modeled s",
        "pc ranks",
        "pc modeled s",
        "speedup",
        "lacc iters",
        "pc rounds",
    ];
    let mut rows = Vec::new();
    for prob in suite_small() {
        let g = if shrink == 1 {
            prob.build()
        } else {
            prob.build_small(shrink)
        };
        eprintln!(
            "[fig4] {}: n={} m={}",
            prob.name,
            g.num_vertices(),
            g.num_directed_edges()
        );
        let lacc_pts = lacc_scaling_traced(
            &g,
            &EDISON,
            &nodes,
            &opts,
            trace.as_ref().map(TraceConfig::sink),
        );
        let pc_pts = parconnect_scaling(&g, &EDISON, &nodes);
        for ((lp, _), (pp, _)) in lacc_pts.iter().zip(&pc_pts) {
            rows.push(vec![
                prob.name.to_string(),
                format!("{}", lp.nodes),
                format!("{}{}", lp.ranks, if lp.clamped { "*" } else { "" }),
                fmt_s(lp.modeled_s),
                format!("{}{}", pp.ranks, if pp.clamped { "*" } else { "" }),
                fmt_s(pp.modeled_s),
                format!("{:.1}x", pp.modeled_s / lp.modeled_s.max(1e-12)),
                format!("{}", lp.iterations),
                format!("{}", pp.iterations),
            ]);
        }
    }
    print_table(
        "Figure 4: strong scaling on Edison (LACC vs ParConnect)",
        &header,
        &rows,
    );
    write_csv("fig4_edison_scaling", &header, &rows);
    println!("  (* rank count clamped at {} simulated ranks)", rank_cap());
    if let Some(t) = &trace {
        t.finish();
    }
}
