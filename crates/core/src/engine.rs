//! The engine portfolio: three distributed connected-components
//! algorithms over one shared SPMD context.
//!
//! LACC is one point in a family of linear-algebraic CC algorithms. Every
//! engine runs over the same [`EngineCtx`] (grid, vector layout,
//! distributed matrix, [`LaccOpts`]), so each inherits the full
//! `gblas::dist` stack — in-flight combining, overlap, tracing, narrow
//! `Idx` indices — for free. [`run_engine`] is the one dispatch point:
//!
//! * [`EngineKind::Lacc`] — the paper's Awerbuch–Shiloach formulation with
//!   Lemma-1 converged-component retirement; the engine the paper
//!   reproductions and ablations pin.
//! * [`EngineKind::Fastsv`] (the default) — FastSV (Zhang, Azad & Hu):
//!   stochastic hooking, aggressive hooking, and shortcutting on a
//!   grandparent vector; no star machinery, and each round after the first
//!   multiplies only the grandparents that changed.
//! * [`EngineKind::LabelProp`] — one closed-neighborhood min per round;
//!   converges in O(diameter) rounds, unbeatable on low-diameter graphs.
//!
//! Engines converge to different (equally valid) representatives: LACC
//! labels are tree-root ids, FastSV and label propagation converge to
//! component *minima*. Cross-engine label comparisons must canonicalize
//! first (`lacc_graph::unionfind::canonicalize_labels`) — the engine
//! matrix tests do exactly that.

use crate::options::LaccOpts;
use crate::stats::StepBreakdown;
use crate::Vid;
use dmsim::{Comm, EngineKind, Grid2d, SpanKind, WireWord};
use gblas::dist::{
    dist_assign, dist_extract, dist_extract_planned, dist_mxv, dist_mxv_counted, dist_mxv_dense,
    dist_mxv_dense_start, dist_mxv_start, plan_requests, DistMask, DistMat, DistOpts, DistSpVec,
    DistVec, FusedExtract, VecLayout,
};
use gblas::{Accum, AndBool, MinUsize};
use lacc_graph::{CsrGraph, Idx};

/// Per-rank, per-iteration record produced inside an engine's SPMD body.
///
/// The four [`StepBreakdown`] buckets keep the Figure-8 reporting schema
/// across engines; non-LACC engines map their phases onto the closest
/// bucket (documented on each engine).
#[derive(Clone, Debug, Default)]
pub struct EngineIter {
    /// Vertices still active at iteration start (always `n` for engines
    /// without Lemma-1 retirement).
    pub active_before: usize,
    /// Cumulative vertices known converged after the iteration.
    pub converged_after: usize,
    /// Whether the main `mxv` took the dense (SpMV) path. For FastSV:
    /// round 1's SpMV, then the branch the incremental product took
    /// (false when no grandparent changed and no product ran).
    pub spmv_dense: bool,
    /// Updates applied in the "conditional hooking" bucket.
    pub cond_changed: u64,
    /// Updates applied in the "unconditional hooking" bucket.
    pub uncond_changed: u64,
    /// Updates applied in the "shortcutting" bucket.
    pub shortcut_changed: u64,
    /// Modeled per-step seconds (thin view over trace spans).
    pub modeled: StepBreakdown,
    /// Extract requests this rank received during the iteration.
    pub extract_received: u64,
}

/// What one rank's engine run produced.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Full label vector, on rank 0 only (widened to [`Vid`]).
    pub labels: Option<Vec<Vid>>,
    /// Per-iteration records.
    pub iters: Vec<EngineIter>,
    /// The rank's final modeled clock.
    pub final_clock_s: f64,
}

/// The shared SPMD context every engine runs over: one rank's view of the
/// distributed matrix, the vector layout, and the run options. Built once
/// per rank by the unified [`crate::dist::run`] entry and handed to
/// [`run_engine`].
pub struct EngineCtx<'a, I: Idx> {
    /// The rank's communicator (cost model, collectives, trace spans).
    pub comm: &'a mut Comm,
    /// The (possibly permuted) input graph, replicated per rank.
    pub graph: &'a CsrGraph,
    /// Run options; engines read `dist`, `max_iters`, and their own knobs.
    pub opts: &'a LaccOpts,
    /// The 2D process grid.
    pub grid: Grid2d,
    /// Vector layout (blocked or cyclic per `opts.cyclic_vectors`).
    pub layout: VecLayout,
    /// This rank's id.
    pub rank: usize,
    /// This rank's block of the adjacency matrix.
    pub a: DistMat<I>,
}

impl<'a, I: Idx> EngineCtx<'a, I> {
    /// Builds the context for one rank: square grid, layout per options,
    /// and the rank's matrix block.
    pub fn new(comm: &'a mut Comm, graph: &'a CsrGraph, opts: &'a LaccOpts) -> Self {
        let p = comm.size();
        let grid = Grid2d::square(p);
        let n = graph.num_vertices();
        let layout = if opts.cyclic_vectors {
            VecLayout::cyclic(n, grid)
        } else {
            VecLayout::new(n, grid)
        };
        let rank = comm.rank();
        let a = DistMat::<I>::from_graph(graph, grid, rank);
        EngineCtx {
            comm,
            graph,
            opts,
            grid,
            layout,
            rank,
            a,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.graph.num_vertices()
    }
}

/// Runs one rank's share of engine `kind` over `ctx`.
///
/// Contract: all ranks execute the same iteration count (engines agree
/// via allreduce), rank 0 returns the full widened label vector, and the
/// labels induce the true component partition (property-tested in
/// `tests/engine_matrix.rs` across engines × comm configs × layouts ×
/// index widths).
pub fn run_engine<I: Idx + WireWord>(kind: EngineKind, ctx: &mut EngineCtx<'_, I>) -> EngineRun {
    match kind {
        EngineKind::Lacc => lacc(ctx),
        EngineKind::Fastsv => fastsv(ctx),
        EngineKind::LabelProp => labelprop(ctx),
    }
}

// --------------------------------------------------------------------------
// LACC
// --------------------------------------------------------------------------

/// Star recomputation (Algorithm 6) over distributed vectors.
///
/// Returns the number of extract requests this rank received (Figure 3).
fn starcheck_dist<I: Idx + WireWord>(
    comm: &mut Comm,
    f: &DistVec<I>,
    star: &mut DistVec<bool>,
    active: &[bool],
    dist_opts: &DistOpts,
) -> u64 {
    // The active scan, star reset and request build produce the
    // grandparent extract's inputs elementwise, so the first exchange is
    // window-credited for streaming behind them (see `DistOpts::overlap`).
    let win = comm.overlap_window();
    let local_active: Vec<usize> = (0..active.len()).filter(|&o| active[o]).collect();
    for &o in &local_active {
        star.local_mut()[o] = true;
    }
    comm.charge_compute(local_active.len() as u64 + 1);
    // Grandparents of active vertices: gf[v] = f[f[v]]. Both extracts
    // below use the identical request list over same-layout vectors, so
    // the owner bucketing is planned once and reused.
    let reqs: Vec<I> = local_active.iter().map(|&o| f.local()[o]).collect();
    let plan = plan_requests(comm, f.layout(), &reqs);
    if dist_opts.combine_in_flight && dist_opts.fuse_starcheck {
        // Fused: one combining request exchange serves both reply phases
        // (the route is replayed). The parent-star phase reads `star`
        // *after* the demote assign, exactly as the unfused pair does.
        let (fx, gfs) = comm.overlap_from(win, dist_opts.overlap, |c| {
            let fx = FusedExtract::begin(c, &plan);
            let gfs = fx.extract(c, f, &plan);
            (fx, gfs)
        });
        let mut demote: Vec<(I, bool)> = Vec::new();
        for (&o, &gf) in local_active.iter().zip(&gfs) {
            if f.local()[o] != gf {
                star.local_mut()[o] = false;
                demote.push((gf, false));
            }
        }
        comm.charge_compute(local_active.len() as u64 + 1);
        dist_assign(comm, star, &demote, AndBool, Accum::Replace, dist_opts);
        let parent_star = fx.extract(comm, star, &plan);
        for (&o, &ps) in local_active.iter().zip(&parent_star) {
            star.local_mut()[o] = star.local_mut()[o] && ps;
        }
        comm.charge_compute(local_active.len() as u64 + 1);
        // Requests arrive once on this path; count them once.
        return fx.received();
    }
    let (gfs, st1) = comm.overlap_from(win, dist_opts.overlap, |c| {
        dist_extract_planned(c, f, &plan, dist_opts)
    });
    let mut demote: Vec<(I, bool)> = Vec::new();
    for (&o, &gf) in local_active.iter().zip(&gfs) {
        if f.local()[o] != gf {
            star.local_mut()[o] = false;
            demote.push((gf, false));
        }
    }
    comm.charge_compute(local_active.len() as u64 + 1);
    dist_assign(comm, star, &demote, AndBool, Accum::Replace, dist_opts);
    // star[v] ← star[v] ∧ star[f[v]].
    let (parent_star, st2) = dist_extract_planned(comm, star, &plan, dist_opts);
    for (&o, &ps) in local_active.iter().zip(&parent_star) {
        star.local_mut()[o] = star.local_mut()[o] && ps;
    }
    comm.charge_compute(local_active.len() as u64 + 1);
    st1.received_requests + st2.received_requests
}

/// The paper's engine: Awerbuch–Shiloach in GraphBLAS with sparsity
/// exploitation (Lemmas 1–2) — conditional hooking fused with the
/// convergence detector, unconditional hooking, shortcutting, and star
/// maintenance after every forest mutation.
fn lacc<I: Idx + WireWord>(ctx: &mut EngineCtx<'_, I>) -> EngineRun {
    let n = ctx.n();
    let opts = ctx.opts;
    let layout = ctx.layout;
    let rank = ctx.rank;
    let mut f: DistVec<I> = DistVec::from_fn(layout, rank, I::from_usize);
    let mut star: DistVec<bool> = DistVec::from_fn(layout, rank, |_| true);
    let chunk_len = f.local().len();
    let mut active = vec![true; chunk_len];
    let mut active_count_global = n;
    let world = ctx.comm.world();
    let mut iters: Vec<EngineIter> = Vec::new();
    // Star staleness bookkeeping, mirroring `crate::serial`: a
    // zero-change iteration proves a fixpoint only if the previous
    // shortcut changed nothing (the star vector was fresh).
    let mut prev_shortcut_changed = 0u64;
    let dopts = &opts.dist;

    for _iteration in 1..=opts.max_iters {
        let mut rec = EngineIter {
            active_before: active_count_global,
            ..Default::default()
        };
        // --- Step 1: conditional hooking, fused with the convergence
        // detector (one (min, max)-monoid mxv; see `crate::serial`) ---
        // Each step opens a trace span; the close returns the modeled
        // duration, so StepBreakdown is a thin view over span timings.
        let span = ctx.comm.span_open(SpanKind::CondHook);
        let mask_vec: DistVec<bool> = {
            let mut m = star.clone();
            for (o, ml) in m.local_mut().iter_mut().enumerate() {
                *ml = *ml && active[o];
            }
            m
        };
        let density = if n == 0 {
            0.0
        } else {
            active_count_global as f64 / n as f64
        };
        let use_dense = density >= opts.dense_threshold;
        rec.spmv_dense = use_dense;
        // The hooking mxv is *posted* (non-blocking): it runs now with
        // identical messages and charges, and the handle refunds its
        // hideable exchange time against the Lemma-1 candidate scan and
        // request planning below, which read only start-of-iteration
        // state and so genuinely overlap the exchange.
        let qh = if use_dense {
            let pairs: DistVec<(I, I)> =
                DistVec::from_fn(layout, rank, |g| (f.get_local(g), f.get_local(g)));
            dist_mxv_dense_start(
                ctx.comm,
                &ctx.a,
                &pairs,
                DistMask::Keep(&mask_vec),
                gblas::MinMaxUsize,
                dopts,
            )
        } else {
            let entries: Vec<(I, (I, I))> = active
                .iter()
                .enumerate()
                .filter(|&(_, &act)| act)
                .map(|(o, _)| (I::from_usize(f.global_of(o)), (f.local()[o], f.local()[o])))
                .collect();
            let x = DistSpVec::from_local_entries(layout, rank, entries);
            // Adaptive dispatch (§V-A): even when the active fraction is
            // below `dense_threshold`, the measured fill decides whether
            // the local multiply runs SpMV- or SpMSpV-style.
            dist_mxv_start(
                ctx.comm,
                &ctx.a,
                &x,
                DistMask::Keep(&mask_vec),
                gblas::MinMaxUsize,
                dopts,
            )
        };
        // Lemma-1 candidates (active stars) and their extract plan
        // depend only on `active`/`star`/`f` as of iteration start —
        // computed while the posted mxv is in flight.
        let lemma1 = opts.use_sparsity.then(|| {
            let candidates: Vec<usize> = (0..chunk_len)
                .filter(|&o| active[o] && star.local()[o])
                .collect();
            let reqs: Vec<I> = candidates.iter().map(|&o| f.local()[o]).collect();
            ctx.comm.charge_compute(chunk_len as u64 + 1);
            let plan = plan_requests(ctx.comm, layout, &reqs);
            (candidates, plan)
        });
        let q: DistSpVec<(I, I), I> = qh.wait(ctx.comm);

        // Converged-component tracking (Lemma 1, strengthened;
        // evaluated on the start-of-iteration state, same rule as
        // `crate::serial`).
        let mut newly_converged = 0u64;
        if let Some((candidates, plan)) = &lemma1 {
            let mut root_quiet: DistVec<bool> = DistVec::from_fn(layout, rank, |_| true);
            let demote: Vec<(I, bool)> = q
                .entries()
                .iter()
                .filter(|&&(v, (lo, hi))| {
                    let fv = f.get_local(v.idx());
                    !(lo == fv && hi == fv)
                })
                .map(|&(v, _)| (f.get_local(v.idx()), false))
                .collect();
            dist_assign(
                ctx.comm,
                &mut root_quiet,
                &demote,
                AndBool,
                Accum::Replace,
                dopts,
            );
            let (flags, st) = dist_extract_planned(ctx.comm, &root_quiet, plan, dopts);
            rec.extract_received += st.received_requests;
            for (&o, &quiet) in candidates.iter().zip(&flags) {
                if quiet {
                    active[o] = false;
                    newly_converged += 1;
                }
            }
            ctx.comm.charge_compute(chunk_len as u64 + 1);
        }

        // Conditional hooks from the fused sweep (skip just-deactivated
        // vertices; their hooks are no-ops).
        let updates: Vec<(I, I)> = q
            .entries()
            .iter()
            .filter(|&&(v, _)| active[layout.offset_of(rank, v.idx())])
            .map(|&(v, (lo, _))| {
                let fv = f.get_local(v.idx());
                (fv, lo.min(fv))
            })
            .collect();
        rec.cond_changed =
            dist_assign(ctx.comm, &mut f, &updates, MinUsize, Accum::Replace, dopts).0 as u64;
        rec.modeled.cond_s += ctx.comm.span_close(span);

        let span = ctx.comm.span_open(SpanKind::Starcheck);
        rec.extract_received += starcheck_dist(ctx.comm, &f, &mut star, &active, dopts);
        rec.modeled.starcheck_s += ctx.comm.span_close(span);

        // --- Step 2: unconditional hooking ---
        let span = ctx.comm.span_open(SpanKind::UncondHook);
        // The mxv input and mask are produced elementwise, so a real
        // implementation streams the gather sends while this loop runs;
        // the window credits the exchange for that pipelining.
        let win = ctx.comm.overlap_window();
        let entries: Vec<(I, I)> = active
            .iter()
            .enumerate()
            .filter(|&(o, &act)| act && !star.local()[o])
            .map(|(o, _)| (I::from_usize(f.global_of(o)), f.local()[o]))
            .collect();
        let x = DistSpVec::from_local_entries(layout, rank, entries);
        let mask_vec2: DistVec<bool> = {
            let mut m = star.clone();
            for (o, ml) in m.local_mut().iter_mut().enumerate() {
                *ml = *ml && active[o];
            }
            m
        };
        ctx.comm.charge_compute(2 * chunk_len as u64 + 1);
        let fn2 = ctx.comm.overlap_from(win, dopts.overlap, |c| {
            dist_mxv(c, &ctx.a, &x, DistMask::Keep(&mask_vec2), MinUsize, dopts)
        });
        let updates2: Vec<(I, I)> = fn2
            .entries()
            .iter()
            .map(|&(v, m)| (f.get_local(v.idx()), m))
            .collect();
        rec.uncond_changed =
            dist_assign(ctx.comm, &mut f, &updates2, MinUsize, Accum::Replace, dopts).0 as u64;
        rec.modeled.uncond_s += ctx.comm.span_close(span);

        let span = ctx.comm.span_open(SpanKind::Starcheck);
        rec.extract_received += starcheck_dist(ctx.comm, &f, &mut star, &active, dopts);
        rec.modeled.starcheck_s += ctx.comm.span_close(span);

        // --- Step 3: shortcutting (active nonstars) ---
        let span = ctx.comm.span_open(SpanKind::Shortcut);
        // The target scan produces the extract's requests elementwise —
        // window-credited streaming, as in step 2.
        let win = ctx.comm.overlap_window();
        let targets: Vec<usize> = (0..chunk_len)
            .filter(|&o| active[o] && !star.local()[o])
            .collect();
        let reqs: Vec<I> = targets.iter().map(|&o| f.local()[o]).collect();
        ctx.comm.charge_compute(chunk_len as u64 + 1);
        let (gfs, st) = ctx
            .comm
            .overlap_from(win, dopts.overlap, |c| dist_extract(c, &f, &reqs, dopts));
        rec.extract_received += st.received_requests;
        for (&o, &gf) in targets.iter().zip(&gfs) {
            if f.local()[o] != gf {
                f.local_mut()[o] = gf;
                rec.shortcut_changed += 1;
            }
        }
        ctx.comm.charge_compute(targets.len() as u64 + 1);
        rec.modeled.shortcut_s += ctx.comm.span_close(span);

        // --- Global convergence test ---
        let local = [
            rec.cond_changed,
            rec.uncond_changed,
            rec.shortcut_changed,
            newly_converged,
        ];
        let global = ctx.comm.allreduce(&world, local, |a, b| {
            [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
        });
        rec.cond_changed = global[0];
        rec.uncond_changed = global[1];
        rec.shortcut_changed = global[2];
        active_count_global -= global[3] as usize;
        rec.converged_after = n - active_count_global;
        // Fixpoint only counts with a fresh star vector (see the serial
        // implementation's staleness note).
        let done = global[0] + global[1] + global[2] == 0 && prev_shortcut_changed == 0;
        prev_shortcut_changed = global[2];
        iters.push(rec);
        if done {
            break;
        }
    }

    // Widen back to `Vid` at the boundary: callers always see
    // full-width labels regardless of the in-run storage width.
    let labels: Vec<Vid> = f.to_global(ctx.comm).into_iter().map(|l| l.idx()).collect();
    EngineRun {
        labels: (rank == 0).then_some(labels),
        iters,
        final_clock_s: ctx.comm.clock_s(),
    }
}

// --------------------------------------------------------------------------
// FastSV
// --------------------------------------------------------------------------

/// FastSV (Zhang, Azad & Hu), the default engine, over the optimized
/// `gblas::dist` primitives. Labels converge to component minima. Every
/// update below is a `min`, so `f` and the grandparent vector `gf` never
/// rise, and each round does only the work that can still change
/// something:
///
/// * `mngf[u]`, the minimum neighbour grandparent `A ⊕.min gf`, persists
///   across rounds. Round 1 computes it with one SpMV over `gf`. Later
///   rounds run [`dist_mxv`] over just the `(v, gf[v])` entries the last
///   grandparent refresh changed and fold the product into `mngf` with
///   `min`. Because `gf` only falls, `min(mngf_old[u], min over changed v
///   of gf[v])` equals the full product.
/// * Stochastic hooking `f[f[u]] ← min(f[f[u]], mngf[u])` routes through
///   the combining [`dist_assign`] with [`Accum::Fold`], so a hook never
///   raises a parent. Hook targets are the start-of-round parents.
/// * Aggressive hooking `f[u] ← min(f[u], mngf[u])`.
///
///   Both hooks visit only the rows whose `mngf` fell this round, and
///   stochastic hooking sends only rows with `mngf[u] < f[u]`. Aggressive
///   hooking leaves `f[u] ≤ mngf[u]` on every row it visits, and `f` only
///   falls, so on any other row both hooks are no-ops (a hook with
///   `mngf[u] ≥ f[u]` folds into `f[f[u]] ≤ f[u]`).
/// * Shortcutting `f[u] ← min(f[u], gf[u])`, then the grandparent refresh
///   `gf[u] ← f[f[u]]` as a planned extract (in-flight combining applies).
///
/// Step-bucket mapping (Figure-8 schema reinterpreted): `cond` = the
/// `mxv` + stochastic hooking, `uncond` = aggressive hooking, `shortcut`
/// = shortcutting, `starcheck` = grandparent maintenance (the structural
/// analogue of LACC's star upkeep — the state that must be refreshed
/// after the forest mutates).
fn fastsv<I: Idx + WireWord>(ctx: &mut EngineCtx<'_, I>) -> EngineRun {
    let n = ctx.n();
    let opts = ctx.opts;
    let layout = ctx.layout;
    let rank = ctx.rank;
    let mut f: DistVec<I> = DistVec::from_fn(layout, rank, I::from_usize);
    let mut gf: DistVec<I> = DistVec::from_fn(layout, rank, I::from_usize);
    let nlocal = f.local().len();
    // The min identity marks rows without neighbours (no product entry).
    let none = I::max_value();
    let mut mngf: Vec<I> = vec![none; nlocal];
    // Offsets whose grandparent the last refresh changed, and the global
    // count of such entries.
    let mut gf_moved: Vec<usize> = Vec::new();
    let mut gf_moved_global = 0usize;
    let world = ctx.comm.world();
    let max_rounds = 8 * (usize::BITS - n.leading_zeros()) as usize + 32;
    let mut iters: Vec<EngineIter> = Vec::new();
    let dopts = &opts.dist;
    loop {
        assert!(iters.len() < max_rounds, "FastSV did not converge");
        let mut rec = EngineIter {
            active_before: n,
            ..Default::default()
        };

        let span = ctx.comm.span_open(SpanKind::CondHook);
        // Round 1 is an SpMV over `gf`; later rounds multiply only the
        // changed grandparents, whose global count the last convergence
        // allreduce already gave, and record the branch that ran.
        let prod: DistSpVec<I, I>;
        (prod, rec.spmv_dense) = if iters.is_empty() {
            let prod = dist_mxv_dense(ctx.comm, &ctx.a, &gf, DistMask::None, MinUsize, dopts);
            (prod, true)
        } else if gf_moved_global > 0 {
            let entries: Vec<(I, I)> = gf_moved
                .iter()
                .map(|&o| (I::from_usize(gf.global_of(o)), gf.local()[o]))
                .collect();
            ctx.comm.charge_compute(entries.len() as u64 + 1);
            let x = DistSpVec::from_local_entries(layout, rank, entries);
            dist_mxv_counted(
                ctx.comm,
                &ctx.a,
                &x,
                gf_moved_global,
                DistMask::None,
                MinUsize,
                dopts,
            )
        } else {
            (DistSpVec::empty(layout, rank), false)
        };
        // Fold the product into `mngf`; `moved` lists the rows that fell.
        let mut moved: Vec<usize> = Vec::new();
        for &(u, m) in prod.entries() {
            let o = layout.offset_of(rank, u.idx());
            if m < mngf[o] {
                mngf[o] = m;
                moved.push(o);
            }
        }
        ctx.comm.charge_compute(prod.local_nvals() as u64 + 1);
        // Stochastic hooking f[f[u]] ← min(f[f[u]], mngf[u]) over the
        // rows whose `mngf` fell (no other row can change anything).
        let hooks: Vec<(I, I)> = moved
            .iter()
            .map(|&o| (f.local()[o], mngf[o]))
            .filter(|&(fu, m)| m < fu)
            .collect();
        ctx.comm.charge_compute(moved.len() as u64 + 1);
        rec.cond_changed =
            dist_assign(ctx.comm, &mut f, &hooks, MinUsize, Accum::Fold, dopts).0 as u64;
        rec.modeled.cond_s += ctx.comm.span_close(span);

        // The grandparent-refresh exchange below pipelines behind the
        // aggressive-hooking and shortcutting loops: both are
        // elementwise over f, so a real implementation streams the
        // refresh requests for early elements while later elements
        // still compute. The window measures that compute and credits
        // the exchange for it (when `DistOpts::overlap` is on).
        let win = ctx.comm.overlap_window();

        // Aggressive hooking: f[u] ← min(f[u], mngf[u]) (local), again
        // over only the rows whose `mngf` fell.
        let span = ctx.comm.span_open(SpanKind::UncondHook);
        for &o in &moved {
            if mngf[o] < f.local()[o] {
                f.local_mut()[o] = mngf[o];
                rec.uncond_changed += 1;
            }
        }
        ctx.comm.charge_compute(moved.len() as u64 + 1);
        rec.modeled.uncond_s += ctx.comm.span_close(span);

        // Shortcutting: f[u] ← min(f[u], gf[u]) (local).
        let span = ctx.comm.span_open(SpanKind::Shortcut);
        for o in 0..nlocal {
            if gf.local()[o] < f.local()[o] {
                f.local_mut()[o] = gf.local()[o];
                rec.shortcut_changed += 1;
            }
        }
        ctx.comm.charge_compute(nlocal as u64 + 1);
        rec.modeled.shortcut_s += ctx.comm.span_close(span);

        // Grandparent maintenance: gf[u] ← f[f[u]] via a planned
        // extract (requests combine like every other gather), recording
        // the offsets that changed for the next round's product.
        let span = ctx.comm.span_open(SpanKind::Starcheck);
        let reqs: Vec<I> = f.local().to_vec();
        let plan = plan_requests(ctx.comm, f.layout(), &reqs);
        let (new_gf, st) = ctx.comm.overlap_from(win, dopts.overlap, |c| {
            dist_extract_planned(c, &f, &plan, dopts)
        });
        rec.extract_received += st.received_requests;
        gf_moved.clear();
        for (o, &val) in new_gf.iter().enumerate() {
            if gf.local()[o] != val {
                gf.local_mut()[o] = val;
                gf_moved.push(o);
            }
        }
        ctx.comm.charge_compute(nlocal as u64 + 1);
        rec.modeled.starcheck_s += ctx.comm.span_close(span);

        // Converged when a full round (hooks + shortcut + grandparent
        // refresh) changed nothing anywhere.
        let local = [
            rec.cond_changed,
            rec.uncond_changed,
            rec.shortcut_changed,
            gf_moved.len() as u64,
        ];
        let global = ctx.comm.allreduce(&world, local, |a, b| {
            [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
        });
        rec.cond_changed = global[0];
        rec.uncond_changed = global[1];
        rec.shortcut_changed = global[2];
        gf_moved_global = global[3] as usize;
        let done = global[..4].iter().sum::<u64>() == 0;
        rec.converged_after = if done { n } else { 0 };
        iters.push(rec);
        if done {
            break;
        }
    }
    let labels: Vec<Vid> = f.to_global(ctx.comm).into_iter().map(|l| l.idx()).collect();
    EngineRun {
        labels: (rank == 0).then_some(labels),
        iters,
        final_clock_s: ctx.comm.clock_s(),
    }
}

// --------------------------------------------------------------------------
// Label propagation
// --------------------------------------------------------------------------

/// Min-label propagation (the Liu–Tarjan "simple concurrent labeling"
/// family): every round, each vertex takes the minimum label in its
/// closed neighborhood via one min-semiring `mxv`. Converges in
/// eccentricity-of-the-minimum rounds — O(diameter) — with no pointer
/// forest, no hooks, and exactly one exchange per round, which makes it
/// the cheapest engine on low-diameter graphs and hopeless on paths.
///
/// All work lands in the `cond` step bucket (one phase per round).
fn labelprop<I: Idx + WireWord>(ctx: &mut EngineCtx<'_, I>) -> EngineRun {
    let n = ctx.n();
    let opts = ctx.opts;
    let layout = ctx.layout;
    let rank = ctx.rank;
    let mut f: DistVec<I> = DistVec::from_fn(layout, rank, I::from_usize);
    let world = ctx.comm.world();
    let mut iters: Vec<EngineIter> = Vec::new();
    loop {
        // The true bound is the diameter (< n); `max_iters` is a
        // safety knob for LACC's O(log n) trajectory and would be a
        // silent wrong-answer cap here, so it is deliberately ignored.
        assert!(iters.len() < n + 2, "label propagation did not converge");
        let mut rec = EngineIter {
            active_before: n,
            spmv_dense: true,
            ..Default::default()
        };
        let span = ctx.comm.span_open(SpanKind::CondHook);
        let fn_vec: DistSpVec<I, I> =
            dist_mxv_dense(ctx.comm, &ctx.a, &f, DistMask::None, MinUsize, &opts.dist);
        let mut changed = 0u64;
        for &(u, m) in fn_vec.entries() {
            if m < f.get_local(u.idx()) {
                f.set_local(u.idx(), m);
                changed += 1;
            }
        }
        ctx.comm.charge_compute(fn_vec.local_nvals() as u64 + 1);
        rec.modeled.cond_s += ctx.comm.span_close(span);
        let total = ctx.comm.allreduce(&world, changed, |a, b| a + b);
        rec.cond_changed = total;
        let done = total == 0;
        rec.converged_after = if done { n } else { 0 };
        iters.push(rec);
        if done {
            break;
        }
    }
    let labels: Vec<Vid> = f.to_global(ctx.comm).into_iter().map(|l| l.idx()).collect();
    EngineRun {
        labels: (rank == 0).then_some(labels),
        iters,
        final_clock_s: ctx.comm.clock_s(),
    }
}
