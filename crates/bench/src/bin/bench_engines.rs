//! Engine-portfolio benchmark: the three `CcEngine`s head to head.
//!
//! Runs every engine (LACC, FastSV, label propagation) over the same
//! optimized distributed stack on three graph families — Graph500 RMAT
//! (skewed, one giant component), a 3-D mesh (high diameter), and a
//! community graph (many components) — and writes `BENCH_engines.json`
//! at the workspace root with per-(family, engine) metrics:
//!
//! * `iterations` — supersteps/rounds until convergence.
//! * `alltoall_words` — words moved inside `alltoallv` spans.
//! * `combined_words` — words merged by in-flight combining (nonzero ⇒
//!   the engine really runs over the optimized stack, not a naive path).
//! * `modeled_s` — modeled machine seconds.
//!
//! Per family, canonical labels are asserted identical across all three
//! engines, and the `auto` selection's choice + rationale are recorded.
//! The run asserts FastSV converges in strictly fewer rounds than LACC
//! on at least one family — the LAGraph-successor claim the engine
//! portfolio exists to let users exploit.
//!
//! Environment overrides: `LACC_ENG_SCALE` (log2 vertices, default 14),
//! `LACC_ENG_RANKS` (default 16).

use dmsim::{TraceLevel, TraceSink};
use lacc::{EngineKind, EngineSelect, LaccOpts, RunConfig};
use lacc_graph::generators::{community_graph, mesh_3d, rmat, RmatParams};
use lacc_graph::unionfind::canonicalize_labels;
use lacc_graph::CsrGraph;
use std::io::Write;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{name}: bad value")))
        .unwrap_or(default)
}

fn workspace_root() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir;
        }
        if !dir.pop() {
            return std::path::PathBuf::from(".");
        }
    }
}

struct Row {
    family: &'static str,
    engine: EngineKind,
    iterations: usize,
    alltoall_words: u64,
    combined_words: u64,
    modeled_s: f64,
}

fn main() {
    let scale = env_or("LACC_ENG_SCALE", 14) as u32;
    let ranks = env_or("LACC_ENG_RANKS", 16);
    let n = 1usize << scale;
    let side = (n as f64).cbrt().round().max(2.0) as usize;
    let families: Vec<(&'static str, CsrGraph)> = vec![
        ("rmat", rmat(scale, 16, RmatParams::graph500(), 7)),
        ("mesh3d", mesh_3d(side, side, side)),
        (
            "community",
            community_graph(n, (n / 50).max(1), 8.0, 1.4, 7),
        ),
    ];
    let model = lacc_bench::default_model();
    let engines = [
        EngineSelect::Lacc,
        EngineSelect::Fastsv,
        EngineSelect::LabelProp,
    ];

    let mut rows: Vec<Row> = Vec::new();
    let mut auto_choices: Vec<(&'static str, EngineKind, String)> = Vec::new();
    let mut fastsv_beats_lacc = false;
    for (family, g) in &families {
        eprintln!(
            "[engines] {family}: n={} m={}",
            g.num_vertices(),
            g.num_directed_edges()
        );
        let mut canon: Option<Vec<usize>> = None;
        let mut iters_by: Vec<(EngineKind, usize)> = Vec::new();
        for &select in &engines {
            let opts = LaccOpts::builder().engine(select).build();
            let sink = TraceSink::new(TraceLevel::Collectives);
            let cfg = RunConfig::new(ranks, model)
                .with_opts(opts)
                .with_trace(&sink);
            let out = lacc::run(g, &cfg).expect("engine rank panicked");
            let labels = canonicalize_labels(&out.labels);
            match &canon {
                None => canon = Some(labels),
                Some(reference) => assert_eq!(
                    reference, &labels,
                    "{} disagrees with lacc on {family}",
                    out.engine
                ),
            }
            let report = sink.report();
            let alltoall_words: u64 = report
                .per_kind
                .iter()
                .filter(|k| k.name.starts_with("alltoallv"))
                .map(|k| k.words)
                .sum();
            eprintln!(
                "  {:>9}: iters={} alltoall={alltoall_words} combined={} modeled={:.2}ms",
                out.engine.name(),
                out.num_iterations(),
                report.combined_words,
                out.modeled_total_s * 1e3
            );
            iters_by.push((out.engine, out.num_iterations()));
            rows.push(Row {
                family,
                engine: out.engine,
                iterations: out.num_iterations(),
                alltoall_words,
                combined_words: report.combined_words,
                modeled_s: out.modeled_total_s,
            });
        }
        let iters_of = |k: EngineKind| {
            iters_by
                .iter()
                .find(|(e, _)| *e == k)
                .map(|(_, i)| *i)
                .expect("engine ran")
        };
        fastsv_beats_lacc |= iters_of(EngineKind::Fastsv) < iters_of(EngineKind::Lacc);

        // What would `auto` have picked here, and why?
        let auto = lacc::run(
            g,
            &RunConfig::new(ranks, model)
                .with_opts(LaccOpts::builder().engine(EngineSelect::Auto).build()),
        )
        .expect("auto rank panicked");
        let why = auto.rationale.clone().expect("auto records a rationale");
        eprintln!("  auto -> {} ({why})", auto.engine);
        auto_choices.push((family, auto.engine, why));
    }
    assert!(
        fastsv_beats_lacc,
        "FastSV must converge in fewer rounds than LACC on at least one family"
    );

    // Hand-rolled JSON (the workspace carries no serde).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"ranks\": {ranks},\n"));
    json.push_str("  \"canonical_labels_identical\": true,\n");
    json.push_str(&format!(
        "  \"fastsv_fewer_iters_than_lacc_somewhere\": {fastsv_beats_lacc},\n"
    ));
    json.push_str("  \"auto\": [\n");
    for (k, (family, engine, why)) in auto_choices.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"family\": \"{family}\", \"engine\": \"{engine}\", \
             \"rationale\": \"{}\"}}{}\n",
            why.replace('\\', "\\\\").replace('"', "\\\""),
            if k + 1 < auto_choices.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"runs\": [\n");
    for (k, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"family\": \"{}\", \"engine\": \"{}\", \"iterations\": {}, \
             \"alltoall_words\": {}, \"combined_words\": {}, \"modeled_s\": {:.6}}}{}\n",
            r.family,
            r.engine,
            r.iterations,
            r.alltoall_words,
            r.combined_words,
            r.modeled_s,
            if k + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = workspace_root().join("BENCH_engines.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_engines.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_engines.json");
    println!("wrote {}", path.display());
}
