//! Property tests: every distributed primitive must be bit-identical to
//! its serial counterpart on arbitrary inputs and grids.

use dmsim::{run_spmd, Grid2d};
use gblas::dist::dvec::block_range;
use gblas::dist::{
    dist_assign, dist_extract, dist_mxv, dist_mxv_dense, dist_mxv_dense_start, dist_mxv_sparse,
    dist_mxv_start, DistMask, DistMat, DistOpts, DistSpVec, DistVec, VecLayout,
};
use gblas::serial::{self, Pattern, SparseVec};
use gblas::{Accum, Mask, MinUsize};
use lacc_graph::{CsrGraph, EdgeList};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..150)
            .prop_map(move |pairs| CsrGraph::from_edges(EdgeList::from_pairs(n, pairs)))
    })
}

/// Graphs large enough that row blocks span several bitmap words at
/// p ≤ 4 and chunk bounds fall inside words on every grid.
fn arb_wide_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..300).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..600)
            .prop_map(move |pairs| CsrGraph::from_edges(EdgeList::from_pairs(n, pairs)))
    })
}

/// The output-mask shapes a masked `mxv` must handle.
#[derive(Clone, Copy, Debug)]
enum MaskShape {
    Empty,
    SingleRow(usize),
    /// Rows inside the block of one processor row only, so the other row
    /// groups skip their reduce and transpose.
    OneRowBlock(usize),
    Full,
    /// Three rows in four.
    Scattered,
}

fn arb_mask_shape() -> impl Strategy<Value = MaskShape> {
    prop_oneof![
        Just(MaskShape::Empty),
        (0usize..1000).prop_map(MaskShape::SingleRow),
        (0usize..4).prop_map(MaskShape::OneRowBlock),
        Just(MaskShape::Full),
        Just(MaskShape::Scattered),
    ]
}

fn mask_of(shape: MaskShape, n: usize, p: usize) -> Vec<bool> {
    match shape {
        MaskShape::Empty => vec![false; n],
        MaskShape::SingleRow(r) => (0..n).map(|v| v == r % n).collect(),
        MaskShape::OneRowBlock(b) => {
            let pr = Grid2d::square(p).rows();
            let (s, e) = block_range(n, pr, b % pr);
            (0..n).map(|v| v >= s && v < e && v % 3 != 1).collect()
        }
        MaskShape::Full => vec![true; n],
        MaskShape::Scattered => (0..n).map(|v| v % 4 != 1).collect(),
    }
}

fn arb_grid() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(4), Just(9), Just(16)]
}

fn arb_layout(n: usize, p: usize) -> impl Strategy<Value = VecLayout> {
    proptest::bool::ANY.prop_map(move |cyclic| {
        let grid = Grid2d::square(p);
        if cyclic {
            VecLayout::cyclic(n, grid)
        } else {
            VecLayout::new(n, grid)
        }
    })
}

/// Runs every masked `mxv` entry point — blocking and posted, dense,
/// sparse and adaptive — with `mask` kept or complemented at `p` ranks.
/// Returns each rank's five assembled results and the serial dense and
/// sparse references they must equal bit for bit.
#[allow(clippy::type_complexity)]
fn masked_mxv_runs(
    g: &CsrGraph,
    p: usize,
    opts: &DistOpts,
    mask: &[bool],
    complement: bool,
    stride: usize,
) -> (
    Vec<[SparseVec<usize>; 5]>,
    SparseVec<usize>,
    SparseVec<usize>,
) {
    let n = g.num_vertices();
    let x_global: Vec<usize> = (0..n).map(|v| v.wrapping_mul(37) % n).collect();
    let entries: Vec<(usize, usize)> = (0..n).step_by(stride).map(|v| (v, v % 29)).collect();
    let x_serial = SparseVec::from_entries(n, entries.clone());
    let a_serial = Pattern::from_graph(g);
    let smask = if complement {
        Mask::Complement(mask)
    } else {
        Mask::Keep(mask)
    };
    let expect_dense = serial::mxv_dense(&a_serial, &x_global, smask, MinUsize);
    let expect_sparse = serial::mxv_sparse(&a_serial, &x_serial, smask, MinUsize);
    let outs = run_spmd(p, |c| {
        let grid = Grid2d::square(p);
        let layout = VecLayout::new(n, grid);
        let a = DistMat::from_graph(g, grid, c.rank());
        let x = DistVec::from_global(layout, c.rank(), &x_global);
        let m = DistVec::from_global(layout, c.rank(), mask);
        let mask = if complement {
            DistMask::Complement(&m)
        } else {
            DistMask::Keep(&m)
        };
        let (s, e) = layout.range_of_rank(c.rank());
        let local: Vec<(usize, usize)> = entries
            .iter()
            .copied()
            .filter(|&(g, _)| g >= s && g < e)
            .collect();
        let xs = DistSpVec::from_local_entries(layout, c.rank(), local);
        let dense = dist_mxv_dense(c, &a, &x, mask, MinUsize, opts).to_serial(c);
        let dense_posted = dist_mxv_dense_start(c, &a, &x, mask, MinUsize, opts)
            .wait(c)
            .to_serial(c);
        let sparse = dist_mxv_sparse(c, &a, &xs, mask, MinUsize, opts).to_serial(c);
        let adaptive = dist_mxv(c, &a, &xs, mask, MinUsize, opts).to_serial(c);
        let adaptive_posted = dist_mxv_start(c, &a, &xs, mask, MinUsize, opts)
            .wait(c)
            .to_serial(c);
        [dense, dense_posted, sparse, adaptive, adaptive_posted]
    })
    .unwrap();
    (outs, expect_dense, expect_sparse)
}

#[test]
fn masked_mxv_shape_matrix_eq_serial() {
    // The full cross product on one RMAT graph (n = 300: row blocks of
    // several bitmap words, and chunk bounds off word edges on the 3×3
    // grid), so every shape meets every grid, thread count and dispatch
    // branch at least once.
    let g = lacc_graph::generators::rmat(8, 6, lacc_graph::generators::RmatParams::graph500(), 3);
    let g = CsrGraph::from_edges(EdgeList::from_pairs(
        300,
        g.edges().map(|(u, v)| (u + 20, v + 40)),
    ));
    let n = g.num_vertices();
    let shapes = [
        MaskShape::Empty,
        MaskShape::SingleRow(0),
        MaskShape::SingleRow(n - 1),
        MaskShape::SingleRow(151),
        MaskShape::OneRowBlock(0),
        MaskShape::OneRowBlock(1),
        MaskShape::OneRowBlock(3),
        MaskShape::Full,
        MaskShape::Scattered,
    ];
    for p in [1usize, 4, 9, 16] {
        for threads in [1usize, 2, 4] {
            for threshold in [0.0f64, 1.1] {
                let opts = DistOpts {
                    kernel_threads: threads,
                    spmv_threshold: threshold,
                    ..DistOpts::default()
                };
                for shape in shapes {
                    for complement in [false, true] {
                        let mask = mask_of(shape, n, p);
                        let (outs, expect_dense, expect_sparse) =
                            masked_mxv_runs(&g, p, &opts, &mask, complement, 2);
                        let ctx = format!(
                            "p={p} threads={threads} threshold={threshold} {shape:?} complement={complement}"
                        );
                        for [dense, dense_posted, sparse, adaptive, adaptive_posted] in outs {
                            assert_eq!(dense, expect_dense, "dense {ctx}");
                            assert_eq!(dense_posted, expect_dense, "dense_start {ctx}");
                            assert_eq!(sparse, expect_sparse, "sparse {ctx}");
                            assert_eq!(adaptive, expect_sparse, "adaptive {ctx}");
                            assert_eq!(adaptive_posted, expect_sparse, "adaptive_start {ctx}");
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mxv_dense_dist_eq_serial(g in arb_graph(), p in arb_grid(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let x_global: Vec<usize> = (0..n).map(|v| (v.wrapping_mul(seed as usize + 7)) % n).collect();
        let mask_global: Vec<bool> = (0..n).map(|v| !(v + seed as usize).is_multiple_of(3)).collect();
        let a_serial = Pattern::from_graph(&g);
        let expect = serial::mxv_dense(&a_serial, &x_global, Mask::Keep(&mask_global), MinUsize);
        let gref = &g;
        let xr = &x_global;
        let mr = &mask_global;
        let out = run_spmd(p, move |c| {
            let grid = Grid2d::square(p);
            let layout = VecLayout::new(n, grid);
            let a = DistMat::from_graph(gref, grid, c.rank());
            let x = DistVec::from_global(layout, c.rank(), xr);
            let m = DistVec::from_global(layout, c.rank(), mr);
            dist_mxv_dense(c, &a, &x, DistMask::Keep(&m), MinUsize, &DistOpts::default())
                .to_serial(c)
        })
        .unwrap();
        for got in out {
            prop_assert_eq!(&got, &expect);
        }
    }

    #[test]
    fn mxv_sparse_dist_eq_serial(g in arb_graph(), p in arb_grid(), stride in 1usize..5) {
        let n = g.num_vertices();
        let entries: Vec<(usize, usize)> = (0..n).step_by(stride).map(|v| (v, v % 17)).collect();
        let x_serial = SparseVec::from_entries(n, entries.clone());
        let a_serial = Pattern::from_graph(&g);
        let expect = serial::mxv_sparse(&a_serial, &x_serial, Mask::None, MinUsize);
        let gref = &g;
        let er = &entries;
        let out = run_spmd(p, move |c| {
            let grid = Grid2d::square(p);
            let layout = VecLayout::new(n, grid);
            let a = DistMat::from_graph(gref, grid, c.rank());
            let (s, e) = layout.range_of_rank(c.rank());
            let local: Vec<(usize, usize)> =
                er.iter().copied().filter(|&(g, _)| g >= s && g < e).collect();
            let x = DistSpVec::from_local_entries(layout, c.rank(), local);
            dist_mxv_sparse(c, &a, &x, DistMask::None, MinUsize, &DistOpts::default()).to_serial(c)
        })
        .unwrap();
        for got in out {
            prop_assert_eq!(&got, &expect);
        }
    }

    #[test]
    fn extract_dist_eq_serial(
        n in 4usize..80,
        (p, layout) in arb_grid().prop_flat_map(|p| (Just(p), arb_layout(80, p))),
        reqs in proptest::collection::vec(0usize..1000, 0..60),
        hot in proptest::bool::ANY,
    ) {
        // Rebuild the layout at the right size (arb_layout used a cap).
        let layout = if layout.distribution() == gblas::dist::Distribution::Cyclic {
            VecLayout::cyclic(n, Grid2d::square(p))
        } else {
            VecLayout::new(n, Grid2d::square(p))
        };
        let src_global: Vec<usize> = (0..n).map(|v| v * 13 % n).collect();
        let requests: Vec<usize> = reqs.iter().map(|&r| r % n).collect();
        let expect = serial::extract(&src_global, &requests);
        let sr = &src_global;
        let rr = &requests;
        let opts = DistOpts { hot_bcast: hot, hot_threshold: 1.5, ..DistOpts::default() };
        let out = run_spmd(p, move |c| {
            let src = DistVec::from_global(layout, c.rank(), sr);
            // Every rank issues the same request list; all must get the
            // same answers.
            dist_extract(c, &src, rr, &opts).0
        })
        .unwrap();
        for got in out {
            prop_assert_eq!(&got, &expect);
        }
    }

    #[test]
    fn mxv_cyclic_eq_serial(g in arb_graph(), p in arb_grid(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let x_global: Vec<usize> = (0..n).map(|v| (v.wrapping_mul(seed as usize + 3)) % n).collect();
        let a_serial = Pattern::from_graph(&g);
        let expect = serial::mxv_dense(&a_serial, &x_global, Mask::None, MinUsize);
        let gref = &g;
        let xr = &x_global;
        let out = run_spmd(p, move |c| {
            let grid = Grid2d::square(p);
            let layout = VecLayout::cyclic(n, grid);
            let a = DistMat::from_graph(gref, grid, c.rank());
            let x = DistVec::from_global(layout, c.rank(), xr);
            let dense = dist_mxv_dense(c, &a, &x, DistMask::None, MinUsize, &DistOpts::default())
                .to_serial(c);
            // Sparse input with the same support as the dense vector.
            let entries: Vec<(usize, usize)> = (0..n)
                .filter(|&g| layout.owner_of(g) == c.rank())
                .map(|g| (g, xr[g]))
                .collect();
            let xs = DistSpVec::from_local_entries(layout, c.rank(), entries);
            let sparse =
                dist_mxv_sparse(c, &a, &xs, DistMask::None, MinUsize, &DistOpts::default())
                    .to_serial(c);
            (dense, sparse)
        })
        .unwrap();
        for (dense, sparse) in out {
            prop_assert_eq!(&dense, &expect);
            prop_assert_eq!(&sparse, &expect);
        }
    }

    #[test]
    fn mxv_parallel_and_adaptive_eq_serial(
        g in arb_wide_graph(),
        p in arb_grid(),
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
        threshold in prop_oneof![Just(0.0f64), Just(0.5), Just(1.1)],
        stride in 1usize..4,
        shape in arb_mask_shape(),
        complement in proptest::bool::ANY,
    ) {
        // Dense SpMV, SpMSpV, and the adaptive dispatcher, blocking and
        // posted, must all be bit-identical to serial for every
        // kernel-thread count, every dispatch threshold (0.0 forces the
        // dense-style branch, 1.1 the sparse branch) and every mask shape,
        // kept or complemented.
        let opts = DistOpts {
            kernel_threads: threads,
            spmv_threshold: threshold,
            ..DistOpts::default()
        };
        let mask = mask_of(shape, g.num_vertices(), p);
        let (outs, expect_dense, expect_sparse) =
            masked_mxv_runs(&g, p, &opts, &mask, complement, stride);
        for [dense, dense_posted, sparse, adaptive, adaptive_posted] in outs {
            prop_assert_eq!(&dense, &expect_dense);
            prop_assert_eq!(&dense_posted, &expect_dense);
            prop_assert_eq!(&sparse, &expect_sparse);
            prop_assert_eq!(&adaptive, &expect_sparse);
            prop_assert_eq!(&adaptive_posted, &expect_sparse);
        }
    }

    #[test]
    fn assign_dist_eq_serial(
        n in 4usize..80,
        p in arb_grid(),
        raw in proptest::collection::vec((0usize..1000, 0usize..1000), 0..60),
    ) {
        let updates: Vec<(usize, usize)> = raw.iter().map(|&(i, v)| (i % n, v)).collect();
        let mut expect: Vec<usize> = vec![usize::MAX; n];
        // Each of p ranks submits the same update list; serial reference
        // combines p copies (idempotent under min).
        serial::assign(&mut expect, &updates, MinUsize);
        let ur = &updates;
        let out = run_spmd(p, move |c| {
            let layout = VecLayout::new(n, Grid2d::square(p));
            let mut dst = DistVec::from_fn(layout, c.rank(), |_| usize::MAX);
            dist_assign(c, &mut dst, ur, MinUsize, Accum::Replace, &DistOpts::default());
            dst.to_global(c)
        })
        .unwrap();
        for got in out {
            prop_assert_eq!(&got, &expect);
        }
    }
}
