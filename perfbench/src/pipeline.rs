//! One timed pipeline per process, from opening the graph file to
//! canonical labels on disk (one-shot), or to the last query burst
//! answered (serving).
//!
//! Every run uses the default `LaccOpts` / `ServeOpts` on the Edison model.
//! A trace sink is always attached: at `TraceLevel::Off` it records no
//! spans, only each rank's final cost snapshot, which the determinism
//! check reads. `traced` raises it to `TraceLevel::Collectives` and adds
//! the per-layer timings that need extra calls.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dmsim::{TraceLevel, TraceSink};
use lacc::{LaccOpts, RunConfig};
use lacc_graph::permute::Permutation;
use lacc_graph::unionfind::canonicalize_labels;
use lacc_graph::{io, CsrGraph, EdgeList, Vid};
use lacc_serving::{run_workload, CcService, ServeOpts};

use crate::layers::{core_metrics, snapshot_metrics, span_metrics};
use crate::workload::{serve_cfg, Workload};
use crate::Metrics;

/// Writes one `vertex label` line per vertex and flushes the file.
pub fn write_labels(path: &Path, labels: &[Vid]) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut f = BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    for (v, l) in labels.iter().enumerate() {
        writeln!(f, "{v} {l}").map_err(fail)?;
    }
    f.flush().map_err(fail)
}

fn read_graph(path: &Path) -> Result<EdgeList, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    io::read_matrix_market(file).map_err(|e| format!("{}: {e}", path.display()))
}

fn trace_sink(traced: bool) -> Arc<TraceSink> {
    TraceSink::new(if traced {
        TraceLevel::Collectives
    } else {
        TraceLevel::Off
    })
}

/// Host seconds of the relabeling `lacc::run` applies internally under the
/// default options, timed here by calling `Permutation` directly.
fn permute_metrics(g: &CsrGraph, labels: &[Vid]) -> Metrics {
    let opts = LaccOpts::default();
    let t = Instant::now();
    let perm = Permutation::random(g.num_vertices(), opts.permute_seed);
    std::hint::black_box(perm.permute_graph(g));
    let permute_s = t.elapsed().as_secs_f64();
    // The mapping is the same whatever the labels mean; only its cost is
    // measured here.
    let t = Instant::now();
    std::hint::black_box(perm.unpermute_labels(labels));
    let unpermute_s = t.elapsed().as_secs_f64();
    Metrics::from([
        ("graph.permute_s", permute_s),
        ("graph.unpermute_s", unpermute_s),
    ])
}

/// Mean of the slowest 1% of `latencies`. Modeled query latencies take a
/// few discrete values, so the 99th percentile itself rarely moves; the
/// mean beyond it does.
fn tail99_mean(latencies: &[f64]) -> f64 {
    let mut v = latencies.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() / 100).max(1);
    v[v.len() - k..].iter().sum::<f64>() / k as f64
}

/// Span metrics plus the self-time consistency gap, when traced.
fn traced_metrics(sink: &TraceSink) -> Metrics {
    let (mut m, gap) = span_metrics(sink);
    m.add("check.selftime_gap", gap);
    m
}

/// Graph file → CSR → `lacc::run` → canonical labels on disk.
pub fn run_oneshot(w: Workload, graph: &Path, out: &Path, traced: bool) -> Result<Metrics, String> {
    let sink = trace_sink(traced);
    let cfg = RunConfig::new(w.ranks(), dmsim::EDISON.lacc_model()).with_trace(&sink);

    let t0 = Instant::now();
    let el = read_graph(graph)?;
    let read_s = t0.elapsed().as_secs_f64();
    let g = CsrGraph::from_edges(el);
    let setup_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let run = lacc::run(&g, &cfg).map_err(|e| format!("lacc::run: {e}"))?;
    let run_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    write_labels(out, &canonicalize_labels(&run.labels))?;
    let write_s = t.elapsed().as_secs_f64();
    let e2e_s = t0.elapsed().as_secs_f64();

    // A one-shot run applies the whole file as one insert batch and
    // answers one label query per vertex, all at the modeled makespan.
    let mut m = Metrics::from([
        ("e2e_wall_s", e2e_s),
        ("setup_s", setup_s),
        ("modeled_s", run.modeled_total_s),
        ("updates_per_s", g.num_undirected_edges() as f64 / e2e_s),
        ("queries_per_s", g.num_vertices() as f64 / e2e_s),
        ("query_tail99_modeled_s", run.modeled_total_s),
        ("graph.io.read_s", read_s),
        ("graph.csr.build_s", setup_s - read_s),
        ("graph.write_s", write_s),
    ]);
    m.extend(core_metrics(&run, run_s));
    m.extend(snapshot_metrics(&sink));
    if traced {
        m.extend(permute_metrics(&g, &run.labels));
        m.extend(traced_metrics(&sink));
    }
    Ok(m)
}

/// Graph file → CSR → `CcService` bootstrap → the closed-loop update/query
/// stream of [`serve_cfg`]. Afterwards, outside the timed region, writes
/// the final epoch's canonical labels and the surviving edges for the
/// verifier, and times one `lacc::run` on the bootstrap graph for the
/// core-layer metrics.
pub fn run_serving(
    graph: &Path,
    out: &Path,
    edges_out: &Path,
    seed: u64,
    traced: bool,
) -> Result<Metrics, String> {
    let sink = trace_sink(traced);
    let opts = ServeOpts::default();

    let t0 = Instant::now();
    let el = read_graph(graph)?;
    let read_s = t0.elapsed().as_secs_f64();
    let g = CsrGraph::from_edges(el);
    let build_s = t0.elapsed().as_secs_f64() - read_s;
    let t = Instant::now();
    let mut svc = CcService::from_graph_traced(&g, opts, Some(Arc::clone(&sink)))
        .map_err(|e| format!("bootstrap: {e}"))?;
    let bootstrap_s = t.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();
    let rep = run_workload(&mut svc, &serve_cfg(seed)).map_err(|e| format!("serving: {e}"))?;
    // The last batch is answered once its query burst is; the report's
    // closing consistency check is verification, not serving.
    let e2e_s = setup_s + rep.update_wall_s + rep.query_wall_s;

    let t = Instant::now();
    write_labels(out, &canonicalize_labels(&svc.snapshot().labels()))?;
    let write_s = t.elapsed().as_secs_f64();
    let n = svc.num_vertices();
    io::save_binary(
        edges_out,
        &EdgeList::from_pairs(n, svc.edges().iter().copied()),
    )
    .map_err(|e| format!("{}: {e}", edges_out.display()))?;

    let s = &rep.stats;
    let mut m = Metrics::from([
        ("e2e_wall_s", e2e_s),
        ("setup_s", setup_s),
        ("modeled_s", s.rerun_modeled_s),
        ("updates_per_s", rep.updates_per_s()),
        ("queries_per_s", rep.queries_per_s()),
        ("query_tail99_modeled_s", tail99_mean(&rep.latencies_s)),
        (
            "check.answers_consistent",
            f64::from(u8::from(rep.answers_consistent)),
        ),
        ("graph.io.read_s", read_s),
        ("graph.csr.build_s", build_s),
        ("graph.write_s", write_s),
        ("serving.apply_batch_s", rep.update_wall_s),
        ("serving.query_s", rep.query_wall_s),
        ("serving.bootstrap_s", bootstrap_s),
        ("serving.reruns", s.reruns as f64),
        ("serving.deletion_reruns", s.deletion_reruns as f64),
        ("serving.staleness_reruns", s.staleness_reruns as f64),
        ("serving.hooks", s.hooks as f64),
        (
            "serving.noop_insert_frac",
            s.noop_inserts as f64 / s.inserts.max(1) as f64,
        ),
        (
            "serving.query_p50_modeled_s",
            rep.latency_percentile_s(50.0),
        ),
    ]);
    m.extend(snapshot_metrics(&sink));
    if traced {
        m.extend(traced_metrics(&sink));
    }
    drop((svc, rep));

    // The core layer of one rebuild, at the bootstrap's size, traced into
    // a sink of its own so the service's totals stay the service's.
    let unit_sink = trace_sink(traced);
    let cfg = RunConfig::new(opts.ranks, opts.model)
        .with_opts(opts.lacc)
        .with_trace(&unit_sink);
    let t = Instant::now();
    let run = lacc::run(&g, &cfg).map_err(|e| format!("lacc::run: {e}"))?;
    let run_s = t.elapsed().as_secs_f64();
    m.extend(core_metrics(&run, run_s));
    if traced {
        m.extend(permute_metrics(&g, &run.labels));
    }
    Ok(m)
}
