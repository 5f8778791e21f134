//! Extension experiment — LACC vs the first-class distributed FastSV
//! engine.
//!
//! FastSV (Zhang, Azad & Hu 2020) superseded LACC in LAGraph; the paper's
//! related-work positioning makes the head-to-head interesting: FastSV
//! runs fewer, simpler supersteps (no star maintenance) but always-dense
//! vectors. Expectation: FastSV wins on few-component graphs, LACC's
//! Lemma-1 retirement wins on many-component graphs as p grows. Both
//! engines run over the same optimized `gblas::dist` stack through
//! `lacc::run`, so the comparison isolates the algorithm, not the
//! communication layer.

use dmsim::EDISON;
use lacc::{EngineKind, LaccOpts, RunConfig};
use lacc_bench::*;
use lacc_graph::generators::suite::by_name;
use lacc_graph::unionfind::canonicalize_labels;

fn main() {
    let nodes = scaling_nodes();
    let shrink = shrink();
    let names = ["archaea", "M3", "queen_4147", "twitter7"];
    let header = [
        "graph",
        "nodes",
        "ranks",
        "lacc modeled s",
        "fastsv modeled s",
        "lacc/fastsv",
        "lacc iters",
        "fastsv rounds",
    ];
    let mut rows = Vec::new();
    let trace = trace_config();
    for name in names {
        let prob = by_name(name).expect("known problem");
        let g = if shrink == 1 {
            prob.build()
        } else {
            prob.build_small(shrink)
        };
        eprintln!(
            "[fastsv] {}: n={} m={}",
            name,
            g.num_vertices(),
            g.num_directed_edges()
        );
        for &n_nodes in &nodes {
            let (ranks, _) = lacc_ranks_for(n_nodes);
            if let Some(t) = &trace {
                t.clear();
            }
            let cfg = RunConfig::new(ranks, EDISON.lacc_model())
                .with_trace_opt(trace.as_ref().map(TraceConfig::sink));
            let lacc_run = lacc::run(&g, &cfg).expect("distributed LACC rank panicked");
            let opts = LaccOpts::builder().engine(EngineKind::Fastsv).build();
            let fsv = lacc::run(&g, &cfg.clone().with_opts(opts)).expect("FastSV rank panicked");
            assert_eq!(
                canonicalize_labels(&lacc_run.labels),
                canonicalize_labels(&fsv.labels),
                "engines disagree on {name}"
            );
            rows.push(vec![
                name.to_string(),
                format!("{n_nodes}"),
                format!("{ranks}"),
                fmt_s(lacc_run.modeled_total_s),
                fmt_s(fsv.modeled_total_s),
                format!(
                    "{:.2}",
                    lacc_run.modeled_total_s / fsv.modeled_total_s.max(1e-12)
                ),
                format!("{}", lacc_run.num_iterations()),
                format!("{}", fsv.num_iterations()),
            ]);
        }
    }
    print_table(
        "Extension: LACC vs distributed FastSV engine (Edison model)",
        &header,
        &rows,
    );
    write_csv("ext_fastsv", &header, &rows);
    if let Some(t) = &trace {
        t.finish();
    }
}
