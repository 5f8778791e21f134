//! Per-layer numbers read from outside the program: `lacc::run`'s
//! [`RunOutput`] for the core layer, and a [`TraceSink`]'s per-rank spans
//! and cost snapshots for the distributed ops (gblas) and collectives
//! (dmsim).

use dmsim::{RankTrace, SpanRecord, TraceSink};
use lacc::RunOutput;

use crate::Metrics;

/// Core-layer counts and modeled step times of one run, with `run_s` the
/// host seconds the caller timed around `lacc::run`.
pub fn core_metrics(out: &RunOutput, run_s: f64) -> Metrics {
    let active: usize = out.iters.iter().map(|it| it.active_before).sum();
    let changed: usize = out.iters.iter().map(|it| it.total_changed()).sum();
    let dense = out.iters.iter().filter(|it| it.spmv_dense).count();
    let b = out.breakdown();
    Metrics::from([
        ("core.run_s", run_s),
        ("core.spmd_s", out.wall_s),
        ("core.iterations", out.num_iterations() as f64),
        ("core.active_vertex_iters", active as f64),
        (
            "core.changed_per_active",
            changed as f64 / active.max(1) as f64,
        ),
        ("core.spmv_dense_iters", dense as f64),
        ("core.cond_hook.modeled_s", b.cond_s),
        ("core.uncond_hook.modeled_s", b.uncond_s),
        ("core.shortcut.modeled_s", b.shortcut_s),
        ("core.starcheck.modeled_s", b.starcheck_s),
    ])
}

/// The distributed ops, by metric prefix and span name.
const OPS: [(&str, &str); 3] = [
    ("gblas.mxv", "mxv"),
    ("gblas.extract", "extract"),
    ("gblas.assign", "assign"),
];

/// The collectives the engines use, by metric prefix and span name.
const COLLECTIVES: [(&str, &str); 6] = [
    ("dmsim.allgatherv", "allgatherv"),
    ("dmsim.reduce_scatter", "reduce_scatter"),
    ("dmsim.alltoallv_combining", "alltoallv(combining)"),
    ("dmsim.alltoallv_sparse", "alltoallv(sparse)"),
    ("dmsim.alltoallv_hypercube", "alltoallv(hypercube)"),
    ("dmsim.allreduce", "allreduce"),
];

/// Machine totals summed over every rank (and every run) in `sink`: the
/// cost snapshots are recorded at any trace level, including `Off`.
pub fn snapshot_metrics(sink: &TraceSink) -> Metrics {
    let traces = sink.rank_traces();
    let sum = |f: fn(&RankTrace) -> f64| traces.iter().map(f).sum::<f64>();
    Metrics::from([
        ("dmsim.compute_s", sum(|t| t.snapshot.compute_s)),
        ("dmsim.comm_s", sum(|t| t.snapshot.comm_s)),
        (
            "dmsim.wait_s",
            sum(|t| {
                let s = &t.snapshot;
                s.clock_s - s.compute_s - s.comm_s + s.overlap_hidden_s
            }),
        ),
        (
            "dmsim.overlap_hidden_s",
            sum(|t| t.snapshot.overlap_hidden_s),
        ),
        (
            "dmsim.messages_sent",
            sum(|t| t.snapshot.messages_sent as f64),
        ),
        ("dmsim.words_sent", sum(|t| t.snapshot.words_sent as f64)),
        ("dmsim.bytes_sent", sum(|t| t.snapshot.bytes_sent as f64)),
        ("dmsim.words_saved", sum(|t| t.snapshot.words_saved as f64)),
        (
            "dmsim.combined_words",
            sum(|t| t.snapshot.combined_words as f64),
        ),
        (
            "dmsim.narrow_saved_bytes",
            sum(|t| t.snapshot.narrow_saved_bytes as f64),
        ),
        ("dmsim.load_imbalance", sink.report().load_imbalance),
    ])
}

/// Self time of every span: its duration minus the durations of the spans
/// nested directly under it. Spans arrive in open order with their depth,
/// so a stack of open ancestors recovers the tree.
fn self_times(spans: &[SpanRecord]) -> (Vec<f64>, Vec<Option<usize>>) {
    let mut self_s: Vec<f64> = spans.iter().map(SpanRecord::duration_s).collect();
    let mut parent = vec![None; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, sp) in spans.iter().enumerate() {
        while open.last().is_some_and(|&top| spans[top].depth >= sp.depth) {
            open.pop();
        }
        if let Some(&top) = open.last() {
            self_s[top] -= sp.duration_s();
            parent[i] = Some(top);
        }
        open.push(i);
    }
    (self_s, parent)
}

/// Per-op and per-collective calls, modeled rank-seconds (nested children
/// included), self rank-seconds and words, from a trace recorded at
/// `TraceLevel::Collectives`. Also returns the largest relative gap, over
/// all `engine(...)` spans, between the span and the sum of the self
/// times of everything nested under it (0 when the tree is consistent).
pub fn span_metrics(sink: &TraceSink) -> (Metrics, f64) {
    let report = sink.report();
    let mut self_by_name: Vec<(&'static str, f64)> = Vec::new();
    let mut worst_gap = 0.0f64;
    for rt in sink.rank_traces() {
        let (self_s, parent) = self_times(&rt.spans);
        let mut engine_sum = vec![0.0f64; rt.spans.len()];
        for (i, sp) in rt.spans.iter().enumerate() {
            match self_by_name.iter_mut().find(|(n, _)| *n == sp.kind.name()) {
                Some((_, s)) => *s += self_s[i],
                None => self_by_name.push((sp.kind.name(), self_s[i])),
            }
            // Credit this span's self time to its enclosing engine span.
            let mut cur = Some(i);
            while let Some(j) = cur {
                if rt.spans[j].kind.name().starts_with("engine(") {
                    engine_sum[j] += self_s[i];
                    break;
                }
                cur = parent[j];
            }
        }
        for (j, sp) in rt.spans.iter().enumerate() {
            if sp.kind.name().starts_with("engine(") {
                let gap = (engine_sum[j] - sp.duration_s()).abs() / sp.duration_s().max(1e-12);
                worst_gap = worst_gap.max(gap);
            }
        }
    }
    let self_of = |name: &str| {
        self_by_name
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    };
    let kind = |name: &str| report.per_kind.iter().find(|k| k.name == name);
    let mut m = Metrics::default();
    for (prefix, name) in OPS {
        let k = kind(name);
        m.add(format!("{prefix}.calls"), k.map_or(0.0, |k| k.count as f64));
        m.add(format!("{prefix}.modeled_s"), k.map_or(0.0, |k| k.time_s));
        m.add(format!("{prefix}.self_s"), self_of(name));
        m.add(format!("{prefix}.words"), k.map_or(0.0, |k| k.words as f64));
    }
    for (prefix, name) in COLLECTIVES {
        let k = kind(name);
        m.add(format!("{prefix}.calls"), k.map_or(0.0, |k| k.count as f64));
        m.add(format!("{prefix}.modeled_s"), k.map_or(0.0, |k| k.time_s));
        m.add(format!("{prefix}.words"), k.map_or(0.0, |k| k.words as f64));
    }
    (m, worst_gap)
}
