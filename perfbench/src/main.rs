//! One step of the repository benchmark per process.
//!
//! `run.py` drives this binary; each subcommand prints one JSON object of
//! flat `name: number` pairs on its last stdout line.
//!
//! ```text
//! perfbench gen    --workload W --seed S --out G.mtx
//! perfbench verify --workload W --graph G.mtx --expect LABELS
//! perfbench verify --workload W --edges FINAL.bin --expect LABELS
//! perfbench run    --workload W --seed S --graph G.mtx --out LABELS [--edges-out FINAL.bin] [--trace]
//! ```
//!
//! `gen` writes the workload's input file; `verify` writes the labels a
//! correct run must produce (serial union-find on a graph file, or a fresh
//! `lacc::run` on a serving run's surviving edges); `run` is one timed
//! pipeline, from opening the graph file to canonical labels on disk.

mod layers;
mod pipeline;
mod workload;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use lacc_graph::unionfind::{canonicalize_labels, count_components};
use lacc_graph::{io, CsrGraph};
use workload::Workload;

/// A flat list of named numbers, printed as one JSON object.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| {
                assert!(v.is_finite(), "metric {k} is not finite: {v}");
                format!("\"{k}\": {v}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

impl<const N: usize> From<[(&str, f64); N]> for Metrics {
    fn from(pairs: [(&str, f64); N]) -> Self {
        Metrics(pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect())
    }
}

/// `--key value` options and bare `--flag`s.
struct Args {
    opts: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut opts = HashMap::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a}"))?;
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    opts.insert(key.to_string(), it.next().expect("peeked").clone());
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Args { opts, flags })
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.opts
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key).map(PathBuf::from)
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())
    }

    fn workload(&self) -> Result<Workload, String> {
        self.get("workload")?.parse()
    }
}

fn cmd_gen(args: &Args) -> Result<Metrics, String> {
    let w = args.workload()?;
    let out = args.path("out")?;
    let g = w.generate(args.seed()?);
    let file = std::fs::File::create(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    io::write_matrix_market(file, &g.to_edgelist()).map_err(|e| e.to_string())?;
    Ok(Metrics::from([
        ("vertices", g.num_vertices() as f64),
        ("edges", g.num_undirected_edges() as f64),
    ]))
}

/// Median seconds of `reps` calls of `f`.
fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[reps / 2], last.expect("reps >= 1"))
}

fn cmd_verify(args: &Args) -> Result<Metrics, String> {
    let w = args.workload()?;
    let expect = args.path("expect")?;
    let mut m = Metrics::default();
    let labels = if let Some(edges) = args.opts.get("edges") {
        // A serving run's final epoch must match a from-scratch run on the
        // edges that survived it, under the service's own configuration.
        let el = io::load_binary(edges.as_ref()).map_err(|e| format!("{edges}: {e}"))?;
        let g = CsrGraph::from_edges(el);
        let opts = lacc_serving::ServeOpts::default();
        let out = lacc::run(&g, &lacc::RunConfig::new(opts.ranks, opts.model))
            .map_err(|e| e.to_string())?;
        canonicalize_labels(&out.labels)
    } else {
        let path = args.path("graph")?;
        let file = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let g = CsrGraph::from_edges(io::read_matrix_market(file).map_err(|e| e.to_string())?);
        // The serial baseline every host time is read against.
        let (uf_s, labels) = median_time(5, || lacc_baselines::union_find_cc(&g));
        m.add("baseline.unionfind_s", uf_s);
        m.add("vertices", g.num_vertices() as f64);
        m.add("edges", g.num_undirected_edges() as f64);
        m.add("components", count_components(&labels) as f64);
        m.add("file_bytes", file_len(&path)? as f64);
        m.add("ranks", w.ranks() as f64);
        labels
    };
    pipeline::write_labels(&expect, &labels)?;
    Ok(m)
}

fn file_len(path: &std::path::Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|md| md.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &Args) -> Result<Metrics, String> {
    let w = args.workload()?;
    let graph = args.path("graph")?;
    let out = args.path("out")?;
    let traced = args.flags.iter().any(|f| f == "trace");
    let mut m = if w.is_serving() {
        let edges_out = args.path("edges-out")?;
        pipeline::run_serving(&graph, &out, &edges_out, args.seed()?, traced)?
    } else {
        pipeline::run_oneshot(w, &graph, &out, traced)?
    };
    m.add("graph.io.bytes", file_len(&graph)? as f64);
    Ok(m)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some(cmd) => Args::parse(&argv[1..]).and_then(|args| match cmd {
            "gen" => cmd_gen(&args),
            "verify" => cmd_verify(&args),
            "run" => cmd_run(&args),
            other => Err(format!("unknown subcommand {other}")),
        }),
        None => Err("usage: perfbench gen|verify|run --workload W ...".to_string()),
    };
    match result {
        Ok(m) => println!("{}", m.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
