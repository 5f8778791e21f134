//! Subcommand implementations.

use crate::args::{parse, Args};
use dmsim::{TraceLevel, TraceSink};
use lacc::{lacc_serial, EngineKind, LaccOpts, RunConfig};
use lacc_baselines as baselines;
use lacc_graph::generators::{self, suite};
use lacc_graph::stats::graph_stats;
use lacc_graph::{io, CsrGraph, EdgeList};
use std::path::Path;

/// Usage text shown on errors.
pub const USAGE: &str = "usage:
  lacc stats    <graph>
  lacc cc       <graph> [--algo lacc|unionfind|bfs|sv|labelprop|fastsv|multistep] [--out labels.txt]
  lacc cc-dist  <graph> --ranks P [--machine edison|cori] [--flat]
                [--kernel-threads T] [--spmv-threshold F]
                [--combine-in-flight true|false] [--fuse-starcheck true|false]
                [--overlap true|false] [--index-width u32|u64]
                [--engine lacc|fastsv|labelprop] [--canonical]
                [--out labels.txt]
                [--trace out.json] [--trace-level off|steps|ops|collectives]
  lacc serve    <graph> [--ranks P] [--machine edison|cori] [--batches B]
                [--batch-size K] [--queries-per-batch Q] [--delete-every D]
                [--staleness F] [--engine lacc|fastsv|labelprop]
                [--seed S] [--report out.json]
                [--trace out.json] [--trace-level off|steps|ops|collectives]
  lacc generate community  --n N [--components C] [--degree D] [--seed S] --out <graph>
  lacc generate metagenome --n N [--seed S] --out <graph>
  lacc generate rmat       --scale K [--edge-factor E] [--seed S] --out <graph>
  lacc generate mesh3d     --n N --out <graph>
  lacc generate er         --n N [--m M] [--seed S] --out <graph>
  lacc generate suite:NAME --out <graph>
  lacc convert  <in> <out>

graph formats by extension: .mtx (Matrix Market), .bin (lacc binary), otherwise edge list";

/// Dispatches to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let args = parse(argv);
    let cmd = args
        .positional
        .first()
        .ok_or_else(|| "no subcommand given".to_string())?;
    match cmd.as_str() {
        "stats" => cmd_stats(&args),
        "cc" => cmd_cc(&args),
        "cc-dist" => cmd_cc_dist(&args),
        "serve" => cmd_serve(&args),
        "generate" => cmd_generate(&args),
        "convert" => cmd_convert(&args),
        other => Err(format!("unknown subcommand: {other}")),
    }
}

/// Loads an edge list from a path, choosing the format by extension.
pub fn load_edges(path: &Path) -> Result<EdgeList, String> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let fail = |e: String| format!("{}: {e}", path.display());
    match ext {
        "mtx" => {
            let file = std::fs::File::open(path).map_err(|e| fail(e.to_string()))?;
            io::read_matrix_market(file).map_err(|e| fail(e.to_string()))
        }
        "bin" => io::load_binary(path).map_err(|e| fail(e.to_string())),
        _ => {
            let file = std::fs::File::open(path).map_err(|e| fail(e.to_string()))?;
            io::read_edge_list(file, None).map_err(|e| fail(e.to_string()))
        }
    }
}

/// Saves an edge list to a path, choosing the format by extension.
pub fn save_edges(path: &Path, el: &EdgeList) -> Result<(), String> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    match ext {
        "mtx" => {
            let file = std::fs::File::create(path).map_err(fail)?;
            io::write_matrix_market(file, el).map_err(fail)
        }
        "bin" => io::save_binary(path, el).map_err(fail),
        _ => {
            let file = std::fs::File::create(path).map_err(fail)?;
            io::write_edge_list(file, el).map_err(fail)
        }
    }
}

fn load_graph(args: &Args) -> Result<CsrGraph, String> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| "missing graph path".to_string())?;
    Ok(CsrGraph::from_edges(load_edges(Path::new(path))?))
}

/// The `--engine` value, or `default` when the flag is absent.
fn parse_engine(args: &Args, default: EngineKind) -> Result<EngineKind, String> {
    args.options
        .get("engine")
        .map_or(Ok(default), |s| s.parse())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    args.check(&[], &[])?;
    let g = load_graph(args)?;
    let s = graph_stats(&g);
    println!("vertices            {}", s.vertices);
    println!("directed edges      {}", s.directed_edges);
    println!("undirected edges    {}", s.directed_edges / 2);
    println!("components          {}", s.components);
    println!("largest component   {}", s.largest_component);
    println!("isolated vertices   {}", s.isolated_vertices);
    println!("average degree      {:.2}", s.avg_degree);
    println!("max degree          {}", s.max_degree);
    Ok(())
}

fn cmd_cc(args: &Args) -> Result<(), String> {
    args.check(&["algo", "out"], &[])?;
    let g = load_graph(args)?;
    let algo = args
        .options
        .get("algo")
        .map(|s| s.as_str())
        .unwrap_or("lacc");
    let t = std::time::Instant::now();
    let labels = match algo {
        "lacc" => lacc_serial(&g, &LaccOpts::default()).labels,
        "unionfind" => baselines::union_find_cc(&g),
        "bfs" => baselines::bfs_cc(&g),
        "sv" => baselines::shiloach_vishkin_cc(&g),
        "labelprop" => baselines::label_propagation_cc(&g),
        "fastsv" => baselines::fastsv_cc(&g),
        "multistep" => baselines::multistep_cc(&g),
        other => return Err(format!("unknown algorithm: {other}")),
    };
    let elapsed = t.elapsed().as_secs_f64();
    lacc::verify_labels(&g, &labels).map_err(|e| format!("internal error: {e}"))?;
    let canon = lacc_graph::unionfind::canonicalize_labels(&labels);
    let ncomp = lacc_graph::unionfind::count_components(&canon);
    println!(
        "{ncomp} components via {algo} in {:.1} ms (verified)",
        elapsed * 1e3
    );
    if let Some(out) = args.options.get("out") {
        use std::io::Write;
        let mut f =
            std::io::BufWriter::new(std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?);
        for (v, l) in canon.iter().enumerate() {
            writeln!(f, "{v} {l}").map_err(|e| e.to_string())?;
        }
        println!("labels written to {out}");
    }
    Ok(())
}

fn cmd_cc_dist(args: &Args) -> Result<(), String> {
    args.check(
        &[
            "ranks",
            "machine",
            "kernel-threads",
            "spmv-threshold",
            "combine-in-flight",
            "fuse-starcheck",
            "overlap",
            "index-width",
            "engine",
            "out",
            "trace",
            "trace-level",
        ],
        &["flat", "canonical"],
    )?;
    let g = load_graph(args)?;
    let ranks: usize = args.get_or("ranks", 4)?;
    let machine = match args
        .options
        .get("machine")
        .map(|s| s.as_str())
        .unwrap_or("edison")
    {
        "edison" => dmsim::EDISON,
        "cori" => dmsim::CORI_KNL,
        other => return Err(format!("unknown machine: {other}")),
    };
    let model = if args.has_flag("flat") {
        machine.flat_model()
    } else {
        machine.lacc_model()
    };
    let defaults = LaccOpts::default();
    // Range validation lives in the core builder (`lacc::options`), not
    // here: the CLI just forwards the raw values and surfaces OptsError.
    // `lacc::run` still clamps kernel-threads so ranks × threads never
    // exceeds the host's cores.
    let opts = LaccOpts::builder()
        .kernel_threads(args.get_or("kernel-threads", defaults.dist.kernel_threads)?)
        .map_err(|e| e.to_string())?
        // Input fill fraction above which mxv runs its SpMV-style kernel.
        .spmv_threshold(args.get_or("spmv-threshold", defaults.dist.spmv_threshold)?)
        .map_err(|e| e.to_string())?
        // In-flight combining stack (all on by default).
        .combine_in_flight(args.get_or("combine-in-flight", defaults.dist.combine_in_flight)?)
        .fuse_starcheck(args.get_or("fuse-starcheck", defaults.dist.fuse_starcheck)?)
        // Non-blocking hot-path exchanges with compute/comm overlap credit
        // (bit-identical labels and traffic either way).
        .overlap(args.get_or("overlap", defaults.dist.overlap)?)
        // Index/label storage width: u32 (default) halves index memory and
        // wire bytes, u64 lifts the 2^32-vertex limit.
        .index_width(
            args.options
                .get("index-width")
                .map(|s| s.parse())
                .transpose()
                .map_err(|e: lacc::OptsError| e.to_string())?
                .unwrap_or(defaults.index_width),
        )
        // Which connected-components engine runs (see `lacc::engine`).
        .engine(parse_engine(args, defaults.engine)?)
        .build();
    // Span tracing: --trace <path> emits Chrome-trace JSON (load it in
    // chrome://tracing or Perfetto) plus an aggregate per-rank report;
    // --trace-level picks the detail (default collectives, the most
    // verbose).
    let trace_path = args.options.get("trace").cloned();
    let level: TraceLevel = args
        .options
        .get("trace-level")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(TraceLevel::Collectives);
    let sink = match (&trace_path, level) {
        (Some(_), l) if l != TraceLevel::Off => Some(TraceSink::new(l)),
        _ => None,
    };
    let cfg = RunConfig::new(ranks, model)
        .with_opts(opts)
        .with_trace_opt(sink.as_ref());
    let out = lacc::run(&g, &cfg).map_err(|e| e.to_string())?;
    let run = &out.run;
    println!(
        "{} components via {} engine on {} ranks ({})",
        run.num_components(),
        out.engine,
        ranks,
        machine.name
    );
    println!("iterations          {}", run.num_iterations());
    println!("modeled time        {:.3} ms", run.modeled_total_s * 1e3);
    println!("simulation wall     {:.1} ms", run.wall_s * 1e3);
    let b = run.breakdown();
    println!(
        "step breakdown      cond {:.2}ms | uncond {:.2}ms | shortcut {:.2}ms | starcheck {:.2}ms",
        b.cond_s * 1e3,
        b.uncond_s * 1e3,
        b.shortcut_s * 1e3,
        b.starcheck_s * 1e3
    );
    if let (Some(path), Some(sink)) = (&trace_path, &sink) {
        std::fs::write(path, sink.chrome_trace_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("{}", sink.report().render());
        println!("trace written to {path}");
    }
    if let Some(path) = args.options.get("out") {
        // Raw parent labels by default, one `vertex label` line each — the
        // CI smoke step byte-diffs these across flag configurations.
        // `--canonical` renumbers components by first appearance instead:
        // LACC labels are tree-root ids while FastSV/labelprop converge to
        // component minima, so only canonical labels byte-diff *across*
        // engines.
        use std::io::Write;
        let labels = if args.has_flag("canonical") {
            lacc_graph::unionfind::canonicalize_labels(&run.labels)
        } else {
            run.labels.clone()
        };
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?,
        );
        for (v, l) in labels.iter().enumerate() {
            writeln!(f, "{v} {l}").map_err(|e| e.to_string())?;
        }
        println!("labels written to {path}");
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use lacc_serving::{CcService, RerunPolicy, ServeOpts, WorkloadCfg};

    args.check(
        &[
            "ranks",
            "machine",
            "staleness",
            "engine",
            "batches",
            "batch-size",
            "queries-per-batch",
            "delete-every",
            "seed",
            "report",
            "trace",
            "trace-level",
        ],
        &[],
    )?;
    let g = load_graph(args)?;
    let ranks: usize = args.get_or("ranks", 4)?;
    let machine = match args
        .options
        .get("machine")
        .map(|s| s.as_str())
        .unwrap_or("edison")
    {
        "edison" => dmsim::EDISON,
        "cori" => dmsim::CORI_KNL,
        other => return Err(format!("unknown machine: {other}")),
    };
    let staleness: f64 = args.get_or("staleness", 0.25)?;
    if staleness < 0.0 || staleness.is_nan() {
        return Err(format!("staleness must be nonnegative, got {staleness}"));
    }
    let defaults = ServeOpts::default();
    let engine = parse_engine(args, defaults.lacc.engine)?;
    let cfg = WorkloadCfg {
        batches: args.get_or("batches", 20)?,
        batch_size: args.get_or("batch-size", 64)?,
        queries_per_batch: args.get_or("queries-per-batch", 128)?,
        delete_every: args.get_or("delete-every", 0)?,
        seed: args.get_or("seed", 1)?,
    };
    let opts = ServeOpts {
        ranks,
        model: machine.lacc_model(),
        lacc: LaccOpts {
            engine,
            ..defaults.lacc
        },
        policy: RerunPolicy::staleness(staleness),
    };
    let trace_path = args.options.get("trace").cloned();
    let level: TraceLevel = args
        .options
        .get("trace-level")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(TraceLevel::Steps);
    let sink = match (&trace_path, level) {
        (Some(_), l) if l != TraceLevel::Off => Some(TraceSink::new(l)),
        _ => None,
    };

    let mut svc =
        CcService::from_graph_traced(&g, opts, sink.clone()).map_err(|e| e.to_string())?;
    let rep = lacc_serving::run_workload(&mut svc, &cfg).map_err(|e| e.to_string())?;
    let s = &rep.stats;

    println!(
        "served {} batches over {} vertices on {} label shards ({})",
        cfg.batches,
        svc.num_vertices(),
        ranks,
        machine.name
    );
    println!("final epoch         {}", rep.final_epoch);
    println!("components          {}", rep.final_components);
    println!(
        "updates             {} inserts ({} no-op) + {} deletes, {} hooks",
        s.inserts, s.noop_inserts, s.deletes, s.hooks
    );
    println!(
        "reruns              {} ({} deletion, {} staleness), {:.3} ms modeled",
        s.reruns,
        s.deletion_reruns,
        s.staleness_reruns,
        s.rerun_modeled_s * 1e3
    );
    println!("rebuild engine      {engine}");
    println!(
        "update throughput   {:.0} updates/s ({:.1} ms wall)",
        rep.updates_per_s(),
        rep.update_wall_s * 1e3
    );
    println!(
        "query throughput    {:.0} queries/s ({} queries)",
        rep.queries_per_s(),
        rep.queries
    );
    println!(
        "modeled query lat.  p50 {:.2} us | p99 {:.2} us",
        rep.latency_percentile_s(50.0) * 1e6,
        rep.latency_percentile_s(99.0) * 1e6
    );
    println!(
        "answers consistent  {}",
        if rep.answers_consistent { "yes" } else { "NO" }
    );
    if !rep.answers_consistent {
        return Err("serving answers diverged from the brute-force oracle".into());
    }
    if let (Some(path), Some(sink)) = (&trace_path, &sink) {
        std::fs::write(path, sink.chrome_trace_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("{}", sink.report().render());
        println!("trace written to {path}");
    }
    if let Some(out) = args.options.get("report") {
        // `--staleness inf` (never rebuild) must stay valid JSON.
        let staleness_json = if staleness.is_finite() {
            format!("{staleness}")
        } else {
            "null".to_string()
        };
        let json = format!(
            "{{\n  \"vertices\": {},\n  \"ranks\": {},\n  \"machine\": \"{}\",\n  \
             \"engine\": \"{engine}\",\n  \
             \"batches\": {},\n  \"batch_size\": {},\n  \"queries_per_batch\": {},\n  \
             \"delete_every\": {},\n  \"staleness_threshold\": {},\n  \"seed\": {},\n  \
             \"final_epoch\": {},\n  \"components\": {},\n  \"edges\": {},\n  \
             \"inserts\": {},\n  \"noop_inserts\": {},\n  \"deletes\": {},\n  \
             \"hooks\": {},\n  \"reruns\": {},\n  \"deletion_reruns\": {},\n  \
             \"staleness_reruns\": {},\n  \"rerun_modeled_s\": {:.6},\n  \
             \"updates_per_s\": {:.1},\n  \"queries\": {},\n  \"queries_per_s\": {:.1},\n  \
             \"modeled_query_p50_s\": {:.9},\n  \"modeled_query_p99_s\": {:.9},\n  \
             \"answers_consistent\": {}\n}}\n",
            svc.num_vertices(),
            ranks,
            machine.name,
            cfg.batches,
            cfg.batch_size,
            cfg.queries_per_batch,
            cfg.delete_every,
            staleness_json,
            cfg.seed,
            rep.final_epoch,
            rep.final_components,
            rep.final_edges,
            s.inserts,
            s.noop_inserts,
            s.deletes,
            s.hooks,
            s.reruns,
            s.deletion_reruns,
            s.staleness_reruns,
            s.rerun_modeled_s,
            rep.updates_per_s(),
            rep.queries,
            rep.queries_per_s(),
            rep.latency_percentile_s(50.0),
            rep.latency_percentile_s(99.0),
            rep.answers_consistent
        );
        std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
        println!("report written to {out}");
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let family = args
        .positional
        .get(1)
        .ok_or_else(|| "missing generator family".to_string())?;
    // Each family accepts only the options it reads.
    let options: &[&str] = match family.as_str() {
        "community" => &["out", "n", "components", "degree", "seed"],
        "metagenome" => &["out", "n", "seed"],
        "rmat" => &["out", "scale", "edge-factor", "seed"],
        "mesh3d" => &["out", "n"],
        "er" => &["out", "n", "m", "seed"],
        _ => &["out"],
    };
    args.check(options, &[])?;
    let out = args.require("out")?.to_string();
    let n: usize = args.get_or("n", 10_000)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let g = if let Some(name) = family.strip_prefix("suite:") {
        suite::by_name(name)
            .ok_or_else(|| format!("unknown suite graph: {name}"))?
            .build()
    } else {
        match family.as_str() {
            "community" => {
                let comps: usize = args.get_or("components", (n / 50).max(1))?;
                let degree: f64 = args.get_or("degree", 8.0)?;
                generators::community_graph(n, comps, degree, 1.4, seed)
            }
            "metagenome" => generators::metagenome_graph(n, 7, 0.005, seed),
            "rmat" => {
                let scale: u32 = args.get_or("scale", 14)?;
                let ef: usize = args.get_or("edge-factor", 16)?;
                generators::rmat(scale, ef, generators::RmatParams::graph500(), seed)
            }
            "mesh3d" => {
                let side = (n as f64).cbrt().round().max(2.0) as usize;
                generators::mesh_3d(side, side, side)
            }
            "er" => {
                let m: usize = args.get_or("m", n * 4)?;
                generators::erdos_renyi_gnm(n, m, seed)
            }
            other => return Err(format!("unknown family: {other}")),
        }
    };
    save_edges(Path::new(&out), &g.to_edgelist())?;
    println!(
        "wrote {}: {} vertices, {} undirected edges",
        out,
        g.num_vertices(),
        g.num_undirected_edges()
    );
    Ok(())
}

fn cmd_convert(args: &Args) -> Result<(), String> {
    args.check(&[], &[])?;
    let input = args.positional.get(1).ok_or("missing input path")?;
    let output = args.positional.get(2).ok_or("missing output path")?;
    let el = load_edges(Path::new(input))?;
    save_edges(Path::new(output), &el)?;
    println!("converted {input} -> {output} ({} edge entries)", el.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
        assert!(dispatch(&argv(&[])).is_err());
    }

    #[test]
    fn generate_stats_cc_convert_pipeline() {
        let dir = std::env::temp_dir().join("lacc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("g.mtx").display().to_string();
        let bin = dir.join("g.bin").display().to_string();

        dispatch(&argv(&[
            "generate",
            "community",
            "--n",
            "500",
            "--out",
            &mtx,
        ]))
        .unwrap();
        dispatch(&argv(&["stats", &mtx])).unwrap();
        dispatch(&argv(&["convert", &mtx, &bin])).unwrap();
        dispatch(&argv(&["cc", &bin, "--algo", "lacc"])).unwrap();
        dispatch(&argv(&["cc", &bin, "--algo", "unionfind"])).unwrap();
        dispatch(&argv(&["cc-dist", &bin, "--ranks", "4"])).unwrap();
        dispatch(&argv(&[
            "cc-dist",
            &bin,
            "--ranks",
            "4",
            "--kernel-threads",
            "2",
            "--spmv-threshold",
            "0.25",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "cc-dist",
            &bin,
            "--ranks",
            "4",
            "--combine-in-flight",
            "false",
            "--fuse-starcheck",
            "false",
        ]))
        .unwrap();

        // Converted graphs must describe the same structure.
        let a: CsrGraph = CsrGraph::from_edges(load_edges(Path::new(&mtx)).unwrap());
        let b: CsrGraph = CsrGraph::from_edges(load_edges(Path::new(&bin)).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn cc_dist_rejects_bad_threshold() {
        let dir = std::env::temp_dir().join("lacc-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n").unwrap();
        assert!(dispatch(&argv(&["cc-dist", &p, "--spmv-threshold", "7.0"])).is_err());
        assert!(dispatch(&argv(&["cc-dist", &p, "--kernel-threads", "zig"])).is_err());
        assert!(dispatch(&argv(&["cc-dist", &p, "--kernel-threads", "0"])).is_err());
        assert!(dispatch(&argv(&["cc-dist", &p, "--trace-level", "verbose"])).is_err());
        assert!(dispatch(&argv(&["cc-dist", &p, "--combine-in-flight", "maybe"])).is_err());
        assert!(dispatch(&argv(&["cc-dist", &p, "--index-width", "u16"])).is_err());
        let err = dispatch(&argv(&["cc-dist", &p, "--ranks", "15"])).unwrap_err();
        assert!(
            err.contains("15") && err.contains("perfect square"),
            "{err}"
        );
    }

    #[test]
    fn cc_dist_labels_identical_across_index_widths() {
        let dir = std::env::temp_dir().join("lacc-cli-test9");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n3 4\n5 6\n6 7\n").unwrap();
        let narrow = dir.join("narrow.txt").display().to_string();
        let wide = dir.join("wide.txt").display().to_string();
        dispatch(&argv(&[
            "cc-dist",
            &p,
            "--ranks",
            "4",
            "--index-width",
            "u32",
            "--out",
            &narrow,
        ]))
        .unwrap();
        dispatch(&argv(&[
            "cc-dist",
            &p,
            "--ranks",
            "4",
            "--index-width",
            "u64",
            "--out",
            &wide,
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&narrow).unwrap(),
            std::fs::read(&wide).unwrap(),
            "index width changed the labels"
        );
    }

    #[test]
    fn cc_dist_labels_identical_with_combining_on_and_off() {
        // The CI smoke check in miniature: the combining stack must not
        // change a single output byte.
        let dir = std::env::temp_dir().join("lacc-cli-test6");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n3 4\n5 6\n6 7\n").unwrap();
        let on = dir.join("on.txt").display().to_string();
        let off = dir.join("off.txt").display().to_string();
        dispatch(&argv(&["cc-dist", &p, "--ranks", "4", "--out", &on])).unwrap();
        dispatch(&argv(&[
            "cc-dist",
            &p,
            "--ranks",
            "4",
            "--combine-in-flight",
            "false",
            "--fuse-starcheck",
            "false",
            "--out",
            &off,
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&on).unwrap(),
            std::fs::read(&off).unwrap(),
            "combining changed the labels"
        );
    }

    #[test]
    fn cc_dist_labels_identical_with_overlap_on_and_off() {
        // The overlap CI smoke in miniature: non-blocking execution must
        // not change a single output byte.
        let dir = std::env::temp_dir().join("lacc-cli-test11");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n3 4\n5 6\n6 7\n").unwrap();
        let on = dir.join("on.txt").display().to_string();
        let off = dir.join("off.txt").display().to_string();
        dispatch(&argv(&[
            "cc-dist",
            &p,
            "--ranks",
            "4",
            "--overlap",
            "true",
            "--out",
            &on,
        ]))
        .unwrap();
        dispatch(&argv(&[
            "cc-dist",
            &p,
            "--ranks",
            "4",
            "--overlap",
            "false",
            "--out",
            &off,
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&on).unwrap(),
            std::fs::read(&off).unwrap(),
            "overlap changed the labels"
        );
        assert!(dispatch(&argv(&["cc-dist", &p, "--overlap", "maybe"])).is_err());
    }

    #[test]
    fn cc_dist_canonical_labels_identical_across_engines() {
        // The engine-matrix CI smoke in miniature: every engine must
        // produce byte-identical --canonical label files.
        let dir = std::env::temp_dir().join("lacc-cli-test10");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n3 4\n5 6\n6 7\n8 9\n").unwrap();
        let mut files = Vec::new();
        for eng in ["lacc", "fastsv", "labelprop"] {
            let out = dir.join(format!("{eng}.txt")).display().to_string();
            dispatch(&argv(&[
                "cc-dist",
                &p,
                "--ranks",
                "4",
                "--engine",
                eng,
                "--canonical",
                "--out",
                &out,
            ]))
            .unwrap();
            files.push(std::fs::read(&out).unwrap());
        }
        for f in &files[1..] {
            assert_eq!(&files[0], f, "an engine changed the canonical labels");
        }
        assert!(dispatch(&argv(&["cc-dist", &p, "--engine", "warp"])).is_err());
    }

    #[test]
    fn cc_dist_writes_trace_json() {
        let dir = std::env::temp_dir().join("lacc-cli-test5");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n3 4\n").unwrap();
        let out = dir.join("trace.json").display().to_string();
        dispatch(&argv(&["cc-dist", &p, "--ranks", "4", "--trace", &out])).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        for name in ["cond_hook", "uncond_hook", "shortcut", "starcheck"] {
            assert!(json.contains(name), "trace missing {name} spans");
        }
        // `--trace-level off` suppresses the file entirely.
        let out2 = dir.join("trace2.json").display().to_string();
        dispatch(&argv(&[
            "cc-dist",
            &p,
            "--ranks",
            "4",
            "--trace",
            &out2,
            "--trace-level",
            "off",
        ]))
        .unwrap();
        assert!(!std::path::Path::new(&out2).exists());
    }

    #[test]
    fn serve_runs_and_writes_report() {
        let dir = std::env::temp_dir().join("lacc-cli-test7");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n3 4\n5 6\n6 7\n").unwrap();
        let report = dir.join("serve.json").display().to_string();
        let trace = dir.join("serve-trace.json").display().to_string();
        dispatch(&argv(&[
            "serve",
            &p,
            "--ranks",
            "4",
            "--batches",
            "6",
            "--batch-size",
            "4",
            "--queries-per-batch",
            "9",
            "--delete-every",
            "3",
            "--engine",
            "fastsv",
            "--report",
            &report,
            "--trace",
            &trace,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"answers_consistent\": true"));
        assert!(json.contains("\"modeled_query_p99_s\""));
        assert!(json.contains("\"engine\": \"fastsv\""));
        // The bootstrap and the deletion rebuilds appear as tagged spans,
        // and every rebuild ran the requested engine.
        let tr = std::fs::read_to_string(&trace).unwrap();
        assert!(tr.contains("rerun(bootstrap)"));
        assert!(tr.contains("rerun(deletion)"));
        assert!(tr.contains("engine(fastsv)"));
        assert!(!tr.contains("engine(lacc)"));
    }

    #[test]
    fn serve_rejects_bad_options() {
        let dir = std::env::temp_dir().join("lacc-cli-test8");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n").unwrap();
        assert!(dispatch(&argv(&["serve", &p, "--staleness", "-1"])).is_err());
        assert!(dispatch(&argv(&["serve", &p, "--batches", "many"])).is_err());
        assert!(dispatch(&argv(&["serve", &p, "--machine", "summit"])).is_err());
        assert!(dispatch(&argv(&["serve", &p, "--engine", "quantum"])).is_err());
    }

    #[test]
    fn auto_engine_is_rejected() {
        let dir = std::env::temp_dir().join("lacc-cli-test14");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n").unwrap();
        for cmd in ["cc-dist", "serve"] {
            let err = dispatch(&argv(&[cmd, &p, "--ranks", "4", "--engine", "auto"])).unwrap_err();
            assert!(err.contains("lacc, fastsv, labelprop"), "{cmd}: {err}");
        }
    }

    #[test]
    fn unknown_and_valueless_options_error() {
        let dir = std::env::temp_dir().join("lacc-cli-test13");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n").unwrap();
        let out = dir.join("g.mtx").display().to_string();
        // Unknown flags, including the removed compaction and narrowing
        // toggles, are errors rather than silently ignored.
        for flag in ["--narrow-labels", "--dedup-requests", "--frobnicate"] {
            let err = dispatch(&argv(&["cc-dist", &p, flag, "false"])).unwrap_err();
            assert_eq!(err, format!("unknown option {flag}"));
        }
        assert!(dispatch(&argv(&["stats", &p, "--quiet"])).is_err());
        // rmat is sized by --scale; --n is not one of its options.
        let err = dispatch(&argv(&[
            "generate", "rmat", "--n", "12", "--seed", "7", "--out", &out,
        ]))
        .unwrap_err();
        assert_eq!(err, "unknown option --n");
        // A trailing option with no value is an error, not a default.
        let err = dispatch(&argv(&["cc-dist", &p, "--ranks"])).unwrap_err();
        assert_eq!(err, "--ranks needs a value");
        let err = dispatch(&argv(&["cc", &p, "--out"])).unwrap_err();
        assert_eq!(err, "--out needs a value");
    }

    #[test]
    fn cc_rejects_unknown_algo() {
        let dir = std::env::temp_dir().join("lacc-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n").unwrap();
        assert!(dispatch(&argv(&["cc", &p, "--algo", "quantum"])).is_err());
    }

    #[test]
    fn labels_file_is_written() {
        let dir = std::env::temp_dir().join("lacc-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        let out = dir.join("labels.txt").display().to_string();
        std::fs::write(&p, "0 1\n2 3\n").unwrap();
        dispatch(&argv(&["cc", &p, "--out", &out])).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("2 2"));
    }
}
