//! Figure 6 — the two big graphs at high node counts on Cori KNL.
//!
//! The paper scales MOLIERE_2016 and iso_m100 to 4096 nodes (262,144
//! cores) and shows ParConnect collapsing past 256 nodes while LACC keeps
//! scaling. We run the larger stand-ins over an extended node sweep; rank
//! counts are clamped (thread-per-rank simulation), with the α-β model
//! still charged for the clamped grid, so the reported curve is the
//! modeled time at the simulated rank count.

use dmsim::CORI_KNL;
use lacc::{EngineKind, LaccOpts};
use lacc_bench::*;
use lacc_graph::generators::suite::suite_big;

fn main() {
    let nodes: Vec<usize> = if full_mode() {
        vec![4, 16, 64, 256, 1024, 4096]
    } else {
        vec![4, 16, 64, 256]
    };
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
    ];
    let mut rows = Vec::new();
    for prob in suite_big() {
        let g = if shrink == 1 {
            prob.build()
        } else {
            prob.build_small(shrink)
        };
        eprintln!(
            "[fig6] {}: n={} m={}",
            prob.name,
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
                prob.name.to_string(),
                format!("{}", lp.nodes),
                format!("{}{}", lp.ranks, if lp.clamped { "*" } else { "" }),
                fmt_s(lp.modeled_s),
                format!("{}{}", pp.ranks, if pp.clamped { "*" } else { "" }),
                fmt_s(pp.modeled_s),
                format!("{:.1}x", pp.modeled_s / lp.modeled_s.max(1e-12)),
            ]);
        }
    }
    print_table("Figure 6: big graphs on Cori KNL", &header, &rows);
    write_csv("fig6_big_graphs", &header, &rows);
    println!("  (* rank count clamped at {} simulated ranks)", rank_cap());
    if let Some(t) = &trace {
        t.finish();
    }
}
