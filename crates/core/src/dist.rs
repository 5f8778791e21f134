//! Distributed connected components over the simulated machine — the
//! unified entry point for the whole engine portfolio.
//!
//! [`run`] executes one SPMD program on `p` simulated ranks: it wraps the
//! run in an engine-tagged trace span and dispatches to the configured
//! engine ([`crate::engine::run_engine`]). Everything a run can vary —
//! options, trace sink, serving-rerun tagging — lives in [`RunConfig`].
//!
//! With the default LACC engine and `permute = false`, a distributed run
//! produces a parent vector *bit-identical* to [`crate::serial`] (tested
//! below) — the strongest possible correctness statement for the
//! communication layer.

use crate::engine::{run_engine, EngineCtx};
use crate::options::{IndexWidth, LaccOpts};
use crate::stats::{IterStats, LaccRun, StepBreakdown};
use dmsim::{
    run_spmd_traced, Comm, DmsimError, EngineKind, MachineModel, RerunReason, SpanKind, TraceSink,
};
use lacc_graph::permute::Permutation;
use lacc_graph::{ensure_fits, CsrGraph};
use std::sync::Arc;
use std::time::Instant;

/// Everything one distributed run can vary: rank count, machine model,
/// [`LaccOpts`] (including the engine), an optional trace sink,
/// and an optional serving-rerun tag.
///
/// ```
/// use lacc::{run, RunConfig};
/// use lacc_graph::generators::cycle_graph;
///
/// let g = cycle_graph(64);
/// let out = run(&g, &RunConfig::new(4, dmsim::EDISON.lacc_model()))
///     .expect("no rank panicked");
/// assert_eq!(out.num_components(), 1);
/// assert!(out.modeled_total_s > 0.0);
/// ```
#[derive(Clone)]
pub struct RunConfig {
    /// Simulated ranks (must form a square grid).
    pub ranks: usize,
    /// The α-β machine model.
    pub model: MachineModel,
    /// Run options (engine, comm stack, layout, width, …).
    pub opts: LaccOpts,
    /// When set, every rank records trace spans into this sink.
    pub trace: Option<Arc<TraceSink>>,
    /// When set, the run is a serving-layer epoch rebuild: it is wrapped
    /// in a reason-tagged `rerun(...)` span and noted in rank 0's cost
    /// snapshot.
    pub rerun: Option<RerunReason>,
}

impl RunConfig {
    /// A config with default [`LaccOpts`], no tracing, no rerun tag.
    pub fn new(ranks: usize, model: MachineModel) -> Self {
        RunConfig {
            ranks,
            model,
            opts: LaccOpts::default(),
            trace: None,
            rerun: None,
        }
    }

    /// Replaces the run options.
    pub fn with_opts(mut self, opts: LaccOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Records trace spans into `sink`.
    pub fn with_trace(mut self, sink: &Arc<TraceSink>) -> Self {
        self.trace = Some(Arc::clone(sink));
        self
    }

    /// Records trace spans into `sink` when `Some` (caller-side optional
    /// sinks migrate without a match).
    pub fn with_trace_opt(mut self, sink: Option<&Arc<TraceSink>>) -> Self {
        self.trace = sink.map(Arc::clone);
        self
    }

    /// Tags the run as a serving-layer epoch rebuild.
    pub fn with_rerun(mut self, reason: RerunReason) -> Self {
        self.rerun = Some(reason);
        self
    }
}

/// The result of a unified [`run`]: the familiar [`LaccRun`] statistics
/// plus which engine executed.
///
/// Derefs to [`LaccRun`], so existing call sites keep reading
/// `out.labels`, `out.num_components()`, etc.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Labels and per-iteration statistics.
    pub run: LaccRun,
    /// The engine that executed (`opts.engine`).
    pub engine: EngineKind,
}

impl std::ops::Deref for RunOutput {
    type Target = LaccRun;
    fn deref(&self) -> &LaccRun {
        &self.run
    }
}

/// Runs the configured engine on `cfg.ranks` simulated ranks.
///
/// `ranks` must be a perfect square (CombBLAS' square-grid restriction,
/// §VI-A); any other count is an error naming it. Returns labels in the
/// *original* vertex numbering even when `opts.permute` applies a
/// load-balancing relabeling internally. Errs with the failing rank and
/// panic payload if any rank panics.
///
/// Engine caveat: LACC labels are tree-root ids, while FastSV and label
/// propagation converge to component *minima* — cross-engine comparisons
/// must canonicalize labels first.
pub fn run(g: &CsrGraph, cfg: &RunConfig) -> Result<RunOutput, DmsimError> {
    let n = g.num_vertices();
    let p = cfg.ranks;
    // The square grid is validated up front: a bad rank count is an error
    // on the caller thread, never a panic inside the SPMD body.
    let side = (p as f64).sqrt().round() as usize;
    if p == 0 || side * side != p {
        return Err(DmsimError {
            rank: 0,
            payload: Box::new(format!(
                "rank count {p} is not a perfect square (the 2D process grid needs 1, 4, 9, 16, ... ranks)"
            )),
        });
    }
    // Clamp the per-rank kernel thread request so p ranks × T threads never
    // oversubscribe the host (all simulated ranks run concurrently).
    let mut opts = cfg.opts;
    opts.dist.kernel_threads = opts.kernel_threads_for(p);
    let opts = &opts;
    let (work_graph, perm) = if opts.permute && n > 1 {
        let perm = Permutation::random(n, opts.permute_seed);
        (perm.permute_graph(g), Some(perm))
    } else {
        (g.clone(), None)
    };
    // The narrow layout is validated up front against the actual graph:
    // a too-large graph is a descriptive error on the caller thread, never
    // a silent truncation inside the SPMD body.
    if opts.index_width == IndexWidth::U32 {
        if let Err(e) = ensure_fits::<u32>(n, "vertices") {
            return Err(DmsimError {
                rank: 0,
                payload: Box::new(e.to_string()),
            });
        }
    }
    let rerun = cfg.rerun;
    let kind = opts.engine;
    let wall_start = Instant::now();
    let spmd = |comm: &mut Comm| {
        // An epoch rebuild counts itself (on rank 0, so sums over
        // snapshots count each rebuild once) and wraps the whole SPMD
        // body in a reason-tagged span; both are observational.
        let rerun_span = rerun.map(|reason| {
            if comm.rank() == 0 {
                comm.note_rerun();
            }
            comm.span_open(SpanKind::Rerun(reason))
        });
        // An engine-tagged span attributes the whole run in traces.
        let engine_span = comm.span_open(SpanKind::Engine(kind));
        let out = match opts.index_width {
            IndexWidth::U32 => {
                run_engine(kind, &mut EngineCtx::<u32>::new(comm, &work_graph, opts))
            }
            IndexWidth::U64 => {
                run_engine(kind, &mut EngineCtx::<usize>::new(comm, &work_graph, opts))
            }
        };
        comm.span_close(engine_span);
        if let Some(span) = rerun_span {
            comm.span_close(span);
        }
        out
    };
    let outs = run_spmd_traced(p, cfg.model, cfg.trace.as_ref(), spmd)?;
    let wall_s = wall_start.elapsed().as_secs_f64();
    // Surface the engine as run-level trace metadata so Chrome-trace
    // viewers name the algorithm, not just its spans.
    if let Some(sink) = &cfg.trace {
        sink.add_metadata("engine", kind.name());
    }

    let labels_permuted = outs[0].labels.clone().expect("rank 0 returns labels");
    let labels = match &perm {
        Some(perm) => perm.unpermute_labels(&labels_permuted),
        None => labels_permuted,
    };
    let modeled_total_s = outs.iter().map(|o| o.final_clock_s).fold(0.0f64, f64::max);
    let niters = outs[0].iters.len();
    debug_assert!(outs.iter().all(|o| o.iters.len() == niters));
    let iters: Vec<IterStats> = (0..niters)
        .map(|k| {
            let r0 = &outs[0].iters[k];
            let max_over = |sel: fn(&StepBreakdown) -> f64| {
                outs.iter()
                    .map(|o| sel(&o.iters[k].modeled))
                    .fold(0.0f64, f64::max)
            };
            IterStats {
                iteration: k + 1,
                active_before: r0.active_before,
                converged_after: r0.converged_after,
                spmv_dense: r0.spmv_dense,
                cond_changed: r0.cond_changed as usize,
                uncond_changed: r0.uncond_changed as usize,
                shortcut_changed: r0.shortcut_changed as usize,
                modeled: StepBreakdown {
                    cond_s: max_over(|b| b.cond_s),
                    uncond_s: max_over(|b| b.uncond_s),
                    shortcut_s: max_over(|b| b.shortcut_s),
                    starcheck_s: max_over(|b| b.starcheck_s),
                },
                extract_received: outs.iter().map(|o| o.iters[k].extract_received).collect(),
            }
        })
        .collect();

    Ok(RunOutput {
        run: LaccRun {
            labels,
            iters,
            p,
            modeled_total_s,
            wall_s,
        },
        engine: kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::lacc_serial;
    use dmsim::EDISON;
    use lacc_graph::generators::*;
    use lacc_graph::stats::ground_truth_labels;
    use lacc_graph::unionfind::canonicalize_labels;

    fn model() -> MachineModel {
        EDISON.lacc_model()
    }

    fn run_with(g: &CsrGraph, p: usize, opts: &LaccOpts) -> RunOutput {
        run(g, &RunConfig::new(p, model()).with_opts(*opts)).unwrap()
    }

    fn check(g: &CsrGraph, p: usize, opts: &LaccOpts) -> RunOutput {
        let out = run_with(g, p, opts);
        assert_eq!(
            canonicalize_labels(&out.labels),
            ground_truth_labels(g),
            "wrong components at p={p} engine={}",
            out.engine
        );
        out
    }

    #[test]
    fn correct_across_grid_sizes() {
        let g = erdos_renyi_gnm(200, 300, 5);
        for p in [1, 4, 9, 16] {
            check(&g, p, &LaccOpts::default());
        }
    }

    #[test]
    fn bit_identical_to_serial_without_permutation() {
        let opts = LaccOpts {
            permute: false,
            ..LaccOpts::default()
        };
        for seed in 0..3 {
            let g = community_graph(600, 30, 3.0, 1.4, seed);
            let serial = lacc_serial(&g, &opts);
            for p in [4, 9] {
                let dist = run_with(&g, p, &opts);
                assert_eq!(dist.labels, serial.labels, "seed={seed} p={p}");
                // Same iteration trajectory too.
                assert_eq!(dist.num_iterations(), serial.num_iterations());
                for (a, b) in dist.iters.iter().zip(&serial.iters) {
                    assert_eq!(a.cond_changed, b.cond_changed);
                    assert_eq!(a.uncond_changed, b.uncond_changed);
                    assert_eq!(a.shortcut_changed, b.shortcut_changed);
                    assert_eq!(a.converged_after, b.converged_after);
                }
            }
        }
    }

    #[test]
    fn permutation_preserves_partition() {
        let g = rmat(8, 4, RmatParams::graph500(), 9);
        let run = check(&g, 4, &LaccOpts::default());
        assert!(run.num_iterations() > 0);
    }

    #[test]
    fn works_with_all_comm_configs() {
        let g = metagenome_graph(800, 6, 0.01, 3);
        for opts in [
            LaccOpts::default(),
            LaccOpts::naive_comm(),
            LaccOpts::dense_as(),
        ] {
            check(&g, 4, &opts);
        }
    }

    #[test]
    fn path_worst_case_distributed() {
        let g = path_graph(1000);
        let run = check(&g, 16, &LaccOpts::default());
        assert_eq!(run.num_components(), 1);
        assert!(run.modeled_total_s > 0.0);
    }

    #[test]
    fn stats_are_populated() {
        let g = community_graph(2000, 100, 3.0, 1.4, 8);
        let run = check(&g, 4, &LaccOpts::default());
        assert_eq!(run.p, 4);
        let last = run.iters.last().unwrap();
        assert_eq!(last.converged_after, 2000);
        assert_eq!(run.iters[0].extract_received.len(), 4);
        assert!(run.breakdown().total() > 0.0);
        assert!(run.modeled_total_s >= run.breakdown().total() * 0.5);
    }

    #[test]
    fn single_vertex_and_empty() {
        check(
            &CsrGraph::from_edges(lacc_graph::EdgeList::new(1)),
            4,
            &LaccOpts::default(),
        );
        check(
            &CsrGraph::from_edges(lacc_graph::EdgeList::new(0)),
            1,
            &LaccOpts::default(),
        );
    }

    #[test]
    fn more_ranks_than_vertices() {
        let g = path_graph(7);
        check(&g, 16, &LaccOpts::default());
    }

    #[test]
    fn cyclic_vectors_match_blocked_bitwise() {
        // §VII future-work layout: a different distribution must change
        // communication, never results — with permutation disabled the
        // parent vectors are bit-identical.
        for seed in 0..2 {
            let g = community_graph(700, 35, 3.0, 1.4, seed);
            let blocked = LaccOpts {
                permute: false,
                ..LaccOpts::default()
            };
            let cyclic = LaccOpts {
                permute: false,
                cyclic_vectors: true,
                ..LaccOpts::default()
            };
            for p in [4, 9, 16] {
                let a = run_with(&g, p, &blocked);
                let b = run_with(&g, p, &cyclic);
                assert_eq!(a.labels, b.labels, "seed={seed} p={p}");
            }
        }
    }

    #[test]
    fn cyclic_correct_on_families() {
        let opts = LaccOpts::cyclic();
        check(&path_graph(300), 4, &opts);
        check(&rmat(7, 4, RmatParams::graph500(), 2), 9, &opts);
        check(&metagenome_graph(600, 6, 0.01, 3), 16, &opts);
    }

    #[test]
    fn index_widths_produce_identical_labels() {
        // The tentpole guarantee of the narrow layout: storage width is
        // invisible in the results — u32 and u64 runs agree bit for bit
        // (after widening) on every comm config and vector layout.
        for seed in 0..2 {
            let g = community_graph(500, 25, 3.0, 1.4, seed);
            for base in [
                LaccOpts::default(),
                LaccOpts::naive_comm(),
                LaccOpts::cyclic(),
            ] {
                let narrow = LaccOpts {
                    index_width: IndexWidth::U32,
                    ..base
                };
                let wide = LaccOpts {
                    index_width: IndexWidth::U64,
                    ..base
                };
                for p in [4, 9] {
                    let a = run_with(&g, p, &narrow);
                    let b = run_with(&g, p, &wide);
                    assert_eq!(a.labels, b.labels, "seed={seed} p={p}");
                    assert_eq!(a.num_iterations(), b.num_iterations(), "seed={seed} p={p}");
                }
            }
        }
    }

    #[test]
    fn narrow_width_matches_serial_bitwise() {
        let opts = LaccOpts {
            permute: false,
            index_width: IndexWidth::U32,
            ..LaccOpts::default()
        };
        let g = community_graph(600, 30, 3.0, 1.4, 1);
        let serial = lacc_serial(&g, &opts);
        let dist = run_with(&g, 4, &opts);
        assert_eq!(dist.labels, serial.labels);
    }

    #[test]
    fn tracing_is_observation_only() {
        // The tentpole guarantee: turning tracing on (even at the most
        // verbose level) changes neither the labels nor any modeled
        // statistic, bit for bit.
        use dmsim::TraceLevel;
        let g = rmat(8, 4, RmatParams::graph500(), 11);
        let opts = LaccOpts::default();
        let off = run_with(&g, 4, &opts);
        let sink = TraceSink::new(TraceLevel::Collectives);
        let on = run(
            &g,
            &RunConfig::new(4, model()).with_opts(opts).with_trace(&sink),
        )
        .unwrap();
        assert_eq!(off.labels, on.labels);
        assert_eq!(off.num_iterations(), on.num_iterations());
        assert_eq!(off.modeled_total_s, on.modeled_total_s);
        for (a, b) in off.iters.iter().zip(&on.iters) {
            assert_eq!(a.modeled, b.modeled);
            assert_eq!(a.extract_received, b.extract_received);
        }
        // The traced run actually recorded the full hierarchy: the
        // engine wrapper, all four LACC steps, the distributed ops, and
        // the collectives under them.
        let report = sink.report();
        for name in [
            "engine(lacc)",
            "cond_hook",
            "uncond_hook",
            "shortcut",
            "starcheck",
            "mxv",
            "assign",
            "extract",
            "allgatherv",
        ] {
            assert!(report.kind_time_s(name) > 0.0, "missing span kind {name}");
        }
        let json = sink.chrome_trace_json();
        assert!(json.contains("\"cond_hook\""));
        assert!(json.contains("\"engine(lacc)\""));
        assert!(report.load_imbalance >= 1.0);
    }

    #[test]
    fn rerun_entry_is_bit_identical_and_tagged() {
        use dmsim::TraceLevel;
        let g = rmat(8, 4, RmatParams::graph500(), 13);
        let opts = LaccOpts::default();
        let plain = run_with(&g, 4, &opts);
        let sink = TraceSink::new(TraceLevel::Steps);
        let rerun = run(
            &g,
            &RunConfig::new(4, model())
                .with_opts(opts)
                .with_trace(&sink)
                .with_rerun(RerunReason::Deletion),
        )
        .unwrap();
        // The rerun wrapper is observational: same labels, same clock.
        assert_eq!(plain.labels, rerun.labels);
        assert_eq!(plain.modeled_total_s, rerun.modeled_total_s);
        let report = sink.report();
        assert_eq!(report.reruns, 1);
        assert!(report.kind_time_s("rerun(deletion)") > 0.0);
        assert_eq!(report.kind_time_s("rerun(staleness)"), 0.0);
        // Two reruns into the same sink accumulate, and the max-over-ranks
        // aggregation counts each p-rank rebuild once.
        run(
            &g,
            &RunConfig::new(4, model())
                .with_opts(opts)
                .with_trace(&sink)
                .with_rerun(RerunReason::Staleness),
        )
        .unwrap();
        let report = sink.report();
        assert_eq!(report.reruns, 2);
        assert!(report.kind_time_s("rerun(staleness)") > 0.0);
    }

    #[test]
    fn panicking_rank_surfaces_as_error() {
        // p = 2 and p = 15 are not perfect squares; the grid check must
        // come back as a typed error naming the count, not a panic.
        let g = path_graph(10);
        for p in [2usize, 15] {
            let err = run(&g, &RunConfig::new(p, model())).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(&p.to_string()), "{msg}");
            assert!(msg.contains("perfect square"), "{msg}");
        }
    }

    #[test]
    fn cyclic_balances_extract_requests() {
        // The point of the layout: after min-hooking concentrates parents
        // at low ids, the blocked layout funnels extract requests to low
        // ranks; cyclic spreads them. Compare the max/avg imbalance of
        // per-rank received requests summed over the run.
        let g = rmat(10, 8, RmatParams::graph500(), 5);
        let p = 16;
        let imbalance = |opts: &LaccOpts| {
            let run = run_with(&g, p, opts);
            let mut per_rank = vec![0u64; p];
            for it in &run.iters {
                for (r, &x) in it.extract_received.iter().enumerate() {
                    per_rank[r] += x;
                }
            }
            let max = *per_rank.iter().max().unwrap() as f64;
            let avg = per_rank.iter().sum::<u64>() as f64 / p as f64;
            max / avg.max(1.0)
        };
        // Disable the hot-rank broadcast so the raw skew is measured, and
        // the permutation so ids stay adversarial.
        let blocked = LaccOpts {
            permute: false,
            ..LaccOpts::naive_comm()
        };
        let cyclic = LaccOpts {
            permute: false,
            cyclic_vectors: true,
            ..LaccOpts::naive_comm()
        };
        let (ib, ic) = (imbalance(&blocked), imbalance(&cyclic));
        assert!(
            ic < ib,
            "cyclic should balance extract traffic: blocked {ib:.2}x vs cyclic {ic:.2}x"
        );
    }

    // ---------------- engine portfolio ----------------

    #[test]
    fn fastsv_engine_matches_serial_fastsv_labels() {
        // Without permutation both converge to component minima, so the
        // raw labels are equal — not just the partitions.
        let g = community_graph(800, 40, 3.0, 1.4, 12);
        let serial = baselines_oracle_fastsv(&g);
        let opts = LaccOpts {
            permute: false,
            engine: EngineKind::Fastsv,
            ..LaccOpts::default()
        };
        let out = run_with(&g, 4, &opts);
        assert_eq!(out.engine, EngineKind::Fastsv);
        assert_eq!(out.labels, serial);
    }

    // A tiny local FastSV oracle (mirrors `lacc-baselines::fastsv_cc`,
    // which this crate cannot depend on without a cycle).
    fn baselines_oracle_fastsv(g: &CsrGraph) -> Vec<crate::Vid> {
        let n = g.num_vertices();
        let mut f: Vec<usize> = (0..n).collect();
        let mut gf = f.clone();
        loop {
            let mut changed = 0u64;
            let fnv: Vec<usize> = (0..n)
                .map(|u| {
                    g.neighbors(u)
                        .iter()
                        .map(|&v| gf[v])
                        .min()
                        .unwrap_or(usize::MAX)
                })
                .collect();
            for u in 0..n {
                let fu = f[u];
                if fnv[u] < f[fu] {
                    f[fu] = fnv[u];
                    changed += 1;
                }
            }
            for u in 0..n {
                if fnv[u] < f[u] {
                    f[u] = fnv[u];
                    changed += 1;
                }
            }
            for u in 0..n {
                if gf[u] < f[u] {
                    f[u] = gf[u];
                    changed += 1;
                }
            }
            for u in 0..n {
                let new = f[f[u]];
                if gf[u] != new {
                    gf[u] = new;
                    changed += 1;
                }
            }
            if changed == 0 {
                break;
            }
        }
        f
    }

    #[test]
    fn all_engines_agree_canonically() {
        for (name, g) in [
            ("rmat", rmat(8, 4, RmatParams::graph500(), 21)),
            ("community", community_graph(600, 30, 3.0, 1.4, 4)),
            ("path", path_graph(300)),
            ("metagenome", metagenome_graph(500, 6, 0.01, 9)),
        ] {
            let truth = ground_truth_labels(&g);
            for select in [EngineKind::Lacc, EngineKind::Fastsv, EngineKind::LabelProp] {
                // Label propagation on a long path is O(diameter) rounds —
                // legal but slow.
                if name == "path" && select == EngineKind::LabelProp {
                    continue;
                }
                let opts = LaccOpts {
                    engine: select,
                    ..LaccOpts::default()
                };
                let out = run_with(&g, 4, &opts);
                assert_eq!(
                    canonicalize_labels(&out.labels),
                    truth,
                    "engine={select} graph={name}"
                );
                assert_eq!(out.engine, select);
            }
        }
    }

    #[test]
    fn engine_spans_tag_the_run() {
        use dmsim::TraceLevel;
        let g = rmat(8, 4, RmatParams::graph500(), 17);
        for (select, span) in [
            (EngineKind::Fastsv, "engine(fastsv)"),
            (EngineKind::LabelProp, "engine(labelprop)"),
        ] {
            let sink = TraceSink::new(TraceLevel::Steps);
            let opts = LaccOpts {
                engine: select,
                ..LaccOpts::default()
            };
            let out = run(
                &g,
                &RunConfig::new(4, model()).with_opts(opts).with_trace(&sink),
            )
            .unwrap();
            assert_eq!(
                canonicalize_labels(&out.labels),
                ground_truth_labels(&g),
                "{select}"
            );
            let report = sink.report();
            assert!(report.kind_time_s(span) > 0.0, "missing {span}");
            assert_eq!(report.kind_time_s("engine(lacc)"), 0.0);
        }
    }

    #[test]
    fn engine_metadata_recorded_in_trace() {
        use dmsim::TraceLevel;
        let g = rmat(8, 4, RmatParams::graph500(), 17);
        // The run records its engine's name as Chrome metadata.
        let sink = TraceSink::new(TraceLevel::Steps);
        let opts = LaccOpts {
            engine: EngineKind::Fastsv,
            ..LaccOpts::default()
        };
        run(
            &g,
            &RunConfig::new(4, model()).with_opts(opts).with_trace(&sink),
        )
        .unwrap();
        let meta = sink.metadata();
        assert_eq!(meta, vec![("engine".to_string(), "fastsv".to_string())]);
        let json = sink.chrome_trace_json();
        assert!(json.contains("\"ph\":\"M\""));
    }

    #[test]
    fn fastsv_uses_the_optimized_stack() {
        // With optimized DistOpts the FastSV engine's planned extracts and
        // assigns merge duplicates in flight (nonzero combined words);
        // with naive() nothing combines.
        use dmsim::TraceLevel;
        let g = rmat(9, 8, RmatParams::graph500(), 3);
        let combined_words = |opts: &LaccOpts| {
            let sink = TraceSink::new(TraceLevel::Steps);
            run(
                &g,
                &RunConfig::new(4, model())
                    .with_opts(*opts)
                    .with_trace(&sink),
            )
            .unwrap();
            sink.report().combined_words
        };
        let optimized = LaccOpts {
            engine: EngineKind::Fastsv,
            ..LaccOpts::default()
        };
        let naive = LaccOpts {
            engine: EngineKind::Fastsv,
            ..LaccOpts::naive_comm()
        };
        assert!(combined_words(&optimized) > 0, "nothing combined in flight");
        assert_eq!(combined_words(&naive), 0);
    }

    #[test]
    fn engines_agree_across_widths_and_layouts() {
        let g = community_graph(400, 20, 3.0, 1.4, 6);
        let truth = ground_truth_labels(&g);
        for select in [EngineKind::Fastsv, EngineKind::LabelProp] {
            let base = LaccOpts {
                permute: false,
                engine: select,
                ..LaccOpts::default()
            };
            let mut labels: Option<Vec<crate::Vid>> = None;
            for cyclic in [false, true] {
                for width in [IndexWidth::U32, IndexWidth::U64] {
                    let opts = LaccOpts {
                        cyclic_vectors: cyclic,
                        index_width: width,
                        ..base
                    };
                    let out = run_with(&g, 4, &opts);
                    assert_eq!(canonicalize_labels(&out.labels), truth, "{select}");
                    // Min-monotone engines are bit-identical across
                    // widths and layouts (labels are component minima).
                    match &labels {
                        Some(prev) => assert_eq!(&out.run.labels, prev, "{select}"),
                        None => labels = Some(out.run.labels.clone()),
                    }
                }
            }
        }
    }
}
