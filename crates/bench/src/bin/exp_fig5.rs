//! Figure 5 — strong scaling of LACC vs ParConnect on Cori KNL.
//!
//! The four test problems with the most connected components (archaea,
//! eukarya, M3, iso_m100 in the paper; our stand-ins), on the KNL machine
//! model: LACC with 4 ranks/node (16 threads each), ParConnect flat with
//! 64 ranks/node. Expected shapes: LACC wins except on M3 (comparable),
//! and both run slower than on Edison for the same node count.

use dmsim::CORI_KNL;
use lacc::{EngineKind, LaccOpts};
use lacc_bench::*;
use lacc_graph::generators::suite::by_name;

fn main() {
    let nodes = scaling_nodes();
    let shrink = shrink();
    let opts = LaccOpts {
        engine: EngineKind::Lacc,
        ..LaccOpts::default()
    };
    let trace = trace_config();
    let names = ["archaea", "eukarya", "M3", "iso_m100"];
    let header = [
        "graph",
        "nodes",
        "lacc ranks",
        "lacc modeled s",
        "pc ranks",
        "pc modeled s",
        "speedup",
    ];
    let mut rows = Vec::new();
    for name in names {
        let prob = by_name(name).expect("known problem");
        let g = if shrink == 1 {
            prob.build()
        } else {
            prob.build_small(shrink)
        };
        eprintln!(
            "[fig5] {}: n={} m={}",
            name,
            g.num_vertices(),
            g.num_directed_edges()
        );
        let lacc_pts = lacc_scaling_traced(
            &g,
            &CORI_KNL,
            &nodes,
            &opts,
            trace.as_ref().map(TraceConfig::sink),
        );
        let pc_pts = parconnect_scaling(&g, &CORI_KNL, &nodes);
        for ((lp, _), (pp, _)) in lacc_pts.iter().zip(&pc_pts) {
            rows.push(vec![
                name.to_string(),
                format!("{}", lp.nodes),
                format!("{}{}", lp.ranks, if lp.clamped { "*" } else { "" }),
                fmt_s(lp.modeled_s),
                format!("{}{}", pp.ranks, if pp.clamped { "*" } else { "" }),
                fmt_s(pp.modeled_s),
                format!("{:.1}x", pp.modeled_s / lp.modeled_s.max(1e-12)),
            ]);
        }
    }
    print_table(
        "Figure 5: strong scaling on Cori KNL (many-component graphs)",
        &header,
        &rows,
    );
    write_csv("fig5_cori_scaling", &header, &rows);
    println!("  (* rank count clamped at {} simulated ranks)", rank_cap());
    if let Some(t) = &trace {
        t.finish();
    }
}
