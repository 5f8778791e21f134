//! Property test: the distributed FastSV engine runs exactly the rounds of
//! a serial mirror.
//!
//! The mirror is the textbook round with no incremental shortcuts: it
//! recomputes the minimum neighbour grandparent `A ⊕.min gf` in full,
//! hooks `f[f[u]] ← min(f[f[u]], mngf[u])` from the start-of-round parents
//! with `min` folding, then hooks aggressively, shortcuts and refreshes
//! `gf`. The engine keeps `mngf` across rounds, multiplies only the
//! grandparents that changed and sends only the hooks that can change
//! something; its per-round change counts, its labels and its round count
//! must still equal the mirror's on every grid, layout, index width and
//! kernel thread count.

use dmsim::EDISON;
use lacc::{EngineKind, IndexWidth, IterStats, LaccOpts, RunConfig};
use lacc_graph::{CsrGraph, EdgeList};
use proptest::prelude::*;

/// One mirrored round's `(cond, uncond, shortcut)` change counts and the
/// number of grandparents its refresh changed.
struct MirrorRound {
    changed: (usize, usize, usize),
    gf_changed: usize,
}

/// Serial FastSV with min-folding hooks and a full `mngf` recompute per
/// round. Returns the final parents and the per-round record.
fn fastsv_mirror(g: &CsrGraph) -> (Vec<usize>, Vec<MirrorRound>) {
    let n = g.num_vertices();
    let mut f: Vec<usize> = (0..n).collect();
    let mut gf = f.clone();
    let mut rounds = Vec::new();
    loop {
        let mngf: Vec<Option<usize>> = (0..n)
            .map(|u| g.neighbors(u).iter().map(|&v| gf[v]).min())
            .collect();
        // Stochastic hooking: targets are the start-of-round parents.
        let start = f.clone();
        for u in 0..n {
            if let Some(m) = mngf[u] {
                let t = start[u];
                f[t] = f[t].min(m);
            }
        }
        let cond = (0..n).filter(|&t| f[t] != start[t]).count();
        let mut uncond = 0;
        for u in 0..n {
            if let Some(m) = mngf[u].filter(|&m| m < f[u]) {
                f[u] = m;
                uncond += 1;
            }
        }
        let mut shortcut = 0;
        for u in 0..n {
            if gf[u] < f[u] {
                f[u] = gf[u];
                shortcut += 1;
            }
        }
        let new_gf: Vec<usize> = (0..n).map(|u| f[f[u]]).collect();
        let gf_changed = (0..n).filter(|&u| new_gf[u] != gf[u]).count();
        gf = new_gf;
        let done = cond + uncond + shortcut + gf_changed == 0;
        rounds.push(MirrorRound {
            changed: (cond, uncond, shortcut),
            gf_changed,
        });
        if done {
            return (f, rounds);
        }
    }
}

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..120).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..240)
            .prop_map(move |pairs| CsrGraph::from_edges(EdgeList::from_pairs(n, pairs)))
    })
}

fn counts(it: &IterStats) -> (usize, usize, usize) {
    (it.cond_changed, it.uncond_changed, it.shortcut_changed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn distributed_fastsv_rounds_match_the_serial_mirror(
        g in arb_graph(),
        naive in prop_oneof![Just(false), Just(true)],
        spmv_threshold in prop_oneof![Just(0.0), Just(0.05), Just(0.5), Just(1.5)],
    ) {
        let (labels, rounds) = fastsv_mirror(&g);
        let n = g.num_vertices();
        let base = if naive { LaccOpts::naive_comm() } else { LaccOpts::default() };
        for p in [1, 4, 9, 16] {
            for cyclic in [false, true] {
                for width in [IndexWidth::U32, IndexWidth::U64] {
                    for threads in [1, 2] {
                        let mut opts = LaccOpts {
                            engine: EngineKind::Fastsv,
                            permute: false,
                            cyclic_vectors: cyclic,
                            index_width: width,
                            ..base
                        };
                        opts.dist.kernel_threads = threads;
                        opts.dist.spmv_threshold = spmv_threshold;
                        let cfg = RunConfig::new(p, EDISON.lacc_model()).with_opts(opts);
                        let out = lacc::run(&g, &cfg).unwrap();
                        let at = format!("p={p} cyclic={cyclic} {width} threads={threads}");
                        prop_assert_eq!(&out.labels, &labels, "{}", at);
                        prop_assert_eq!(out.iters.len(), rounds.len(), "{}", at);
                        for (k, (it, want)) in out.iters.iter().zip(&rounds).enumerate() {
                            prop_assert_eq!(counts(it), want.changed, "{} round {}", at, k + 1);
                            // The dispatch record names what ran: an SpMV
                            // in round 1, then `dist_mxv`'s fill dispatch
                            // over the grandparents the last refresh
                            // changed (SpMSpV on the cyclic layout), and
                            // no product at all when none changed.
                            let moved = k > 0 && rounds[k - 1].gf_changed > 0;
                            let dense = k == 0
                                || (moved
                                    && !cyclic
                                    && rounds[k - 1].gf_changed as f64 / n as f64
                                        >= spmv_threshold);
                            prop_assert_eq!(it.spmv_dense, dense, "{} round {}", at, k + 1);
                        }
                    }
                }
            }
        }
    }
}
