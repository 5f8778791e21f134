//! Distributed GraphBLAS primitives.
//!
//! Each primitive reproduces CombBLAS' communication structure (§V-A):
//!
//! * [`dist_mxv_dense`] (SpMV) — allgather of vector chunks within
//!   processor columns → local block multiply → reduce-scatter within
//!   processor rows → transpose exchange to restore vector alignment.
//! * [`dist_mxv_sparse`] (SpMSpV) — sparse allgather within columns →
//!   local multiply → irregular all-to-all within rows + local merge
//!   (the paper's description verbatim) → transpose exchange.
//!
//! A masked `mxv` on the blocked layout first exchanges the output mask:
//! each owner bit-packs its chunk and sends it to the rank that holds the
//! chunk after the row reduce (the transpose hop in reverse), and the
//! processor row allgathers the words, so every rank of grid row `i` holds
//! the bitmap of row block `i`. The mask is then part of the operation, as
//! in `GrB_mxv`: the local multiply computes only masked rows (pulling
//! them through the row mirror or pushing columns past unmasked rows,
//! whichever is expected to touch less), the row reduce carries only
//! masked rows, and a chunk without masked rows sends no transpose
//! message.
//! * [`dist_extract`] / [`dist_assign`] — request/reply through a global
//!   all-to-all, with the §V-B mitigations: selectable all-to-all
//!   algorithm (pairwise / hypercube / sparse) and the hot-rank broadcast
//!   fallback for the skewed access pattern of Figure 3.
//!
//! All primitives are bit-identical to their serial counterparts in
//! [`crate::serial`]; the test module checks this across grid sizes.

use super::dmat::DistMat;
use super::dvec::{block_range, DistSpVec, DistVec, Distribution, VecLayout};
use crate::serial::{kernel_pool, Dcsc};
use crate::types::{Accum, Monoid};
use crate::Vid;
use dmsim::{AllToAll, CombineRoute, Comm, CommHandle, Grid2d, PooledBuf, SpanKind, WireWord};
use lacc_graph::Idx;
use std::collections::HashMap;

/// Tuning knobs for the distributed primitives (the paper's §V-B levers
/// plus the intra-rank threading added on top).
#[derive(Clone, Copy, Debug)]
pub struct DistOpts {
    /// All-to-all algorithm for irregular exchanges.
    pub alltoall: AllToAll,
    /// Enables the hot-rank broadcast fallback in [`dist_extract`].
    pub hot_bcast: bool,
    /// A rank broadcasts its chunk instead of answering requests when it
    /// would receive more than `hot_threshold ×` its chunk length in
    /// requests (the paper's system-dependent `h`).
    pub hot_threshold: f64,
    /// Worker threads for the local multiply inside the `mxv` paths
    /// (`<= 1` runs the serial kernels). Callers should budget
    /// `ranks × kernel_threads ≤ cores`; the shared pool in the `rayon`
    /// shim additionally guarantees `P` ranks asking for `T` threads share
    /// one `T`-worker pool rather than spawning `P×T` OS threads.
    pub kernel_threads: usize,
    /// [`dist_mxv`] takes the SpMV-style (dense, column-scan) local kernel
    /// when the input's measured global fill `nvals/n` is at least this;
    /// below it, the SpMSpV per-entry kernel. Mirrors the internal dispatch
    /// of the paper's `GrB_mxv`.
    pub spmv_threshold: f64,
    /// In-flight combining: [`dist_extract`] routes request ids through
    /// [`Comm::combining_requests`] (replies scattered back along the
    /// recorded reverse route) and [`dist_assign`] merges updates through
    /// [`Comm::reduce_scatter_by_key`], so duplicates issued by
    /// *different* ranks collapse at the hypercube hop where their routes
    /// meet. Bit-identical for the commutative monoids LACC uses
    /// (in-flight merging may reorder the fold across origins).
    pub combine_in_flight: bool,
    /// Fuses starcheck's two planned extracts (grandparent, then parent
    /// starness) into one combining exchange: the request route is paid
    /// for once and replayed for both reply phases. Requires
    /// `combine_in_flight`; ignored without it.
    pub fuse_starcheck: bool,
    /// Non-blocking execution of the hot-path exchanges. Engines post
    /// `mxv` through [`dist_mxv_start`] / [`dist_mxv_dense_start`] (or an
    /// extract through [`dist_extract_start`]) and collect the result with
    /// [`dmsim::CommHandle::wait`], or credit an exchange against a
    /// preceding compute window ([`dmsim::Comm::overlap_from`]). The
    /// operation still runs eagerly with an identical message pattern and
    /// identical charges — this flag only controls whether the modeled
    /// clock is *refunded* at completion for exchange time that overlapped
    /// independent local compute — so labels, iteration counts and
    /// `words_sent` are bit-identical with the flag on or off.
    pub overlap: bool,
}

impl Default for DistOpts {
    fn default() -> Self {
        // The optimized LACC configuration: sparse all-to-all (hypercube
        // metadata exchange), hot-rank broadcasts, in-flight combining with
        // the fused starcheck exchange, and compute/communication overlap.
        DistOpts {
            alltoall: AllToAll::Sparse,
            hot_bcast: true,
            hot_threshold: 4.0,
            kernel_threads: 1,
            spmv_threshold: 0.5,
            combine_in_flight: true,
            fuse_starcheck: true,
            overlap: true,
        }
    }
}

impl DistOpts {
    /// The unoptimized baseline: MPI_Alltoallv-style pairwise exchange, no
    /// broadcast fallback — what §V-B says stopped scaling past 1024
    /// ranks — no in-flight combining, and strictly blocking exchanges.
    pub fn naive() -> Self {
        DistOpts {
            alltoall: AllToAll::Pairwise,
            hot_bcast: false,
            hot_threshold: f64::INFINITY,
            combine_in_flight: false,
            fuse_starcheck: false,
            overlap: false,
            ..DistOpts::default()
        }
    }

    /// The fully optimized configuration (an explicit alias of `Default`):
    /// sparse all-to-all, hot-rank broadcasts, in-flight combining, and
    /// compute/communication overlap on.
    pub fn optimized() -> Self {
        DistOpts::default()
    }
}

/// A mask aligned with the output vector's distribution.
#[derive(Clone, Copy)]
pub enum DistMask<'a> {
    /// No masking.
    None,
    /// Keep where `true`.
    Keep(&'a DistVec<bool>),
    /// Keep where `false` (`GrB_SCMP`).
    Complement(&'a DistVec<bool>),
}

impl DistMask<'_> {
    fn allows(&self, g: Vid) -> bool {
        match self {
            DistMask::None => true,
            DistMask::Keep(m) => m.get_local(g),
            DistMask::Complement(m) => !m.get_local(g),
        }
    }
}

/// Statistics from one [`dist_extract`] call (Figure 3's data).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Requests this rank received and answered point-to-point (unique
    /// ids only on the in-flight combining path, which merges duplicates).
    pub received_requests: u64,
    /// Whether this rank took the broadcast fallback.
    pub did_broadcast: bool,
}

/// Statistics from one [`dist_assign`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Updates this rank received (merged per target on the in-flight
    /// combining path).
    pub received_updates: u64,
}

/// Scatters locally produced `(global row, value)` results to their layout
/// owners through a world-wide all-to-all, merging duplicates through the
/// monoid and applying the mask owner-side. The reduce phase of the
/// cyclic-layout `mxv` paths.
fn scatter_merge_to_owners<T, M, I>(
    comm: &mut Comm,
    layout: VecLayout,
    produced: Vec<(I, T)>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> DistSpVec<T, I>
where
    T: Copy + Send + 'static,
    M: Monoid<T>,
    I: Idx,
{
    let world = comm.world();
    let buckets = layout.bucket_by_owner(comm, produced.into_iter());
    let buckets = buckets.into_iter().map(PooledBuf::detach).collect();
    let incoming = comm.alltoallv(&world, buckets, opts.alltoall);
    let mut merged: HashMap<I, T> = HashMap::new();
    let mut nops = 1u64;
    for part in incoming {
        // Adopt each incoming part so its allocation recycles on drop.
        let part = comm.adopt_buf(part);
        nops += part.len() as u64;
        for &(g, v) in part.iter() {
            merged
                .entry(g)
                .and_modify(|acc| *acc = monoid.combine(*acc, v))
                .or_insert(v);
        }
    }
    comm.charge_compute(nops);
    let entries: Vec<(I, T)> = merged
        .into_iter()
        .filter(|&(g, _)| mask.allows(g.idx()))
        .collect();
    DistSpVec::from_local_entries(layout, comm.rank(), entries)
}

/// Cyclic-layout SpMV/SpMSpV: the vector is not grid-aligned, so the
/// gather phase is a world-wide allgather (each rank reassembles its
/// column block from all chunks) and the reduce phase routes results
/// straight to their cyclic owners. This is the communication price §VII
/// anticipates paying for the better `extract`/`assign` balance.
fn dist_mxv_cyclic<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x_dense: Option<&DistVec<T>>,
    x_sparse: Option<&DistSpVec<T, I>>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> DistSpVec<T, I>
where
    T: Copy + Send + 'static,
    M: Monoid<T>,
    I: Idx,
{
    let layout = x_dense
        .map(|x| x.layout())
        .or(x_sparse.map(|x| x.layout()))
        .expect("one input");
    let world = comm.world();
    let (cs, ce) = a.col_range();
    let (rs, re) = a.row_range();
    let h = re - rs;
    let mut acc = vec![monoid.identity(); h];
    let mut is_touched = vec![false; h];
    let mut touched: Vec<usize> = Vec::new();
    let mut ops = 1u64;
    // Both gathers are posted non-blocking: the column sweep consumes
    // chunks as they stream in, so its charge hides the transfer tail
    // exactly as in the blocked-layout paths.
    match (x_dense, x_sparse) {
        (Some(x), None) => {
            let gh = comm.post(opts.overlap, |c| c.allgatherv(&world, x.local().to_vec()));
            let chunks = gh.peek();
            for g in cs..ce {
                let o = layout.owner_of(g);
                let xv = chunks[o][layout.offset_of(o, g)];
                let rows = a.local().col(g - cs);
                for &lr in rows {
                    let lr = lr.idx();
                    if !is_touched[lr] {
                        is_touched[lr] = true;
                        touched.push(lr);
                    }
                    acc[lr] = monoid.combine(acc[lr], xv);
                }
                ops += rows.len() as u64 + 1;
            }
            comm.charge_compute(ops);
            gh.wait(comm);
        }
        (None, Some(x)) => {
            let gh = comm.post(opts.overlap, |c| c.allgatherv(&world, x.entries().to_vec()));
            for &(g, xv) in gh.peek().iter().flatten() {
                let g = g.idx();
                if g < cs || g >= ce {
                    continue;
                }
                let rows = a.local().col(g - cs);
                for &lr in rows {
                    let lr = lr.idx();
                    if !is_touched[lr] {
                        is_touched[lr] = true;
                        touched.push(lr);
                    }
                    acc[lr] = monoid.combine(acc[lr], xv);
                }
                ops += rows.len() as u64 + 1;
            }
            comm.charge_compute(ops);
            gh.wait(comm);
        }
        _ => unreachable!("exactly one input"),
    }
    touched.sort_unstable();
    let produced: Vec<(I, T)> = touched
        .into_iter()
        .map(|lr| (I::from_usize(rs + lr), acc[lr]))
        .collect();
    scatter_merge_to_owners(comm, layout, produced, mask, monoid, opts)
}

/// The transpose hop of the blocked `mxv` on rank `me = (i, j)`: `owner`
/// is the layout owner of chunk `i·pc + j`, which `me` holds after the
/// row reduce, and `holder` is the rank holding `me`'s own chunk then.
/// (On the square grid both are the transposed rank `(j, i)`.)
fn transpose_peers(grid: Grid2d, layout: VecLayout, me: usize) -> (usize, usize) {
    let (i, j) = grid.coords_of(me);
    let pc = grid.cols();
    let owner = layout.rank_of_chunk(i * pc + j);
    let my_chunk = layout.chunk_of_rank(me);
    let holder = grid.rank_of(my_chunk / pc, my_chunk % pc);
    (owner, holder)
}

/// The set bits of a packed bitmap within `lo..hi`, ascending. Scanning
/// them reads [`words_spanned`]`(lo, hi)` words.
fn set_bits(words: &[u64], lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
    let first = lo / 64;
    (first..hi.div_ceil(64)).flat_map(move |w| {
        let mut bits = words[w];
        if w == first {
            bits &= !0u64 << (lo % 64);
        }
        if w + 1 == hi.div_ceil(64) && !hi.is_multiple_of(64) {
            bits &= (1u64 << (hi % 64)) - 1;
        }
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + k
            })
        })
    })
}

/// Words a scan of bits `lo..hi` reads.
fn words_spanned(lo: usize, hi: usize) -> u64 {
    if lo >= hi {
        0
    } else {
        (hi.div_ceil(64) - lo / 64) as u64
    }
}

/// The output mask of a blocked-layout `mxv`, as [`exchange_mask`] leaves
/// it on one rank.
struct MxvMask {
    /// Bitmap of this rank's row block: bit `lr` is set when global row
    /// `rs + lr` passes the mask. Every rank of a grid row holds the same
    /// words.
    row: Vec<u64>,
    /// Set bits in `row`.
    count: usize,
    /// Set bits of `row` in the chunk held by each member of the
    /// processor row (chunk `i·pc + k` for member `k`).
    chunk_counts: Vec<usize>,
    /// This rank's own chunk of the mask, bit-packed (the owner side).
    own: Vec<u64>,
    /// Set bits in `own`.
    own_count: usize,
}

/// Phase 0 of a masked blocked-layout `mxv`: each owner bit-packs its chunk
/// of the mask (with `Complement` applied) and sends the words to the
/// rank holding that chunk after the row reduce — phase 4's transpose hop
/// in reverse — and the processor row allgathers them, so every rank of
/// grid row `i` ends up with the same bitmap of row block `i`. That costs
/// one point-to-point message and one row allgather of `n/p/64` words per
/// rank, charged one op per word packed or placed. `None` for an unmasked
/// `mxv`, which computes every row.
fn exchange_mask<I: Idx>(
    comm: &mut Comm,
    a: &DistMat<I>,
    layout: VecLayout,
    mask: DistMask<'_>,
) -> Option<MxvMask> {
    let (m, keep) = match mask {
        DistMask::None => return None,
        DistMask::Keep(m) => (m, true),
        DistMask::Complement(m) => (m, false),
    };
    debug_assert_eq!(m.layout(), layout, "mask layout differs from the vector's");
    let me = comm.rank();
    let grid = a.grid();
    let local = m.local();
    let mut own = vec![0u64; local.len().div_ceil(64)];
    for (k, &b) in local.iter().enumerate() {
        own[k / 64] |= ((b == keep) as u64) << (k % 64);
    }
    let own_count = own.iter().map(|w| w.count_ones() as usize).sum();
    let (owner, holder) = transpose_peers(grid, layout, me);
    let held = if holder == me {
        debug_assert_eq!(owner, me);
        own.clone()
    } else {
        comm.send_vec(holder, own.clone());
        comm.recv(owner)
    };
    let row_group = grid.row_group(comm);
    let chunks = comm.allgatherv(&row_group, held);

    // Place chunk i·pc + k at its bit offset in the row block.
    let (i, _) = grid.coords_of(me);
    let (rs, re) = a.row_range();
    let mut row = vec![0u64; (re - rs).div_ceil(64)];
    let mut chunk_counts = Vec::with_capacity(chunks.len());
    let mut ops = own.len() as u64;
    for (k, words) in chunks.iter().enumerate() {
        let off = block_range(a.n(), grid.size(), i * grid.cols() + k).0 - rs;
        for (w, &bits) in words.iter().enumerate() {
            let (q, r) = ((off + 64 * w) / 64, (off + 64 * w) % 64);
            row[q] |= bits << r;
            // Padding bits are zero, so a spill past the block is empty.
            if r != 0 && bits >> (64 - r) != 0 {
                row[q + 1] |= bits >> (64 - r);
            }
        }
        chunk_counts.push(words.iter().map(|w| w.count_ones() as usize).sum());
        ops += words.len() as u64;
    }
    comm.charge_compute(ops);
    Some(MxvMask {
        row,
        count: chunk_counts.iter().sum(),
        chunk_counts,
        own,
        own_count,
    })
}

/// Which rows a phase-2 local multiply computes.
#[derive(Clone, Copy)]
enum RowSel<'a> {
    /// Every row of the block (an unmasked `mxv`).
    All,
    /// The rows set in this row-block bitmap, by sweeping the input's
    /// columns and skipping unmasked rows (push).
    Push(&'a [u64]),
    /// The rows set in this row-block bitmap, visited one by one through
    /// the row mirror (pull).
    Pull(&'a [u64]),
}

impl<'a> RowSel<'a> {
    /// Picks the direction of a masked multiply over a block of `h` rows
    /// and `nnz` nonzeros. Pull runs when its expected ops — one per bitmap
    /// word, one per masked row, the masked rows' share of `nnz`, plus
    /// `pull_extra` — are below push's expected `push_ops`. Each rank
    /// decides alone: both directions fold every row's columns in
    /// ascending order, so the choice never changes a bit of the result.
    fn choose(
        mask: Option<&'a MxvMask>,
        h: usize,
        nnz: usize,
        push_ops: u64,
        pull_extra: u64,
    ) -> Self {
        let Some(m) = mask else {
            return RowSel::All;
        };
        let share = (nnz as u128 * m.count as u128 / h.max(1) as u128) as u64;
        let pull = m.row.len() as u64 + m.count as u64 + share + pull_extra;
        if pull < push_ops {
            RowSel::Pull(&m.row)
        } else {
            RowSel::Push(&m.row)
        }
    }

    /// The row-block bitmap, if the multiply is masked.
    fn bitmap(self) -> Option<&'a [u64]> {
        match self {
            RowSel::All => None,
            RowSel::Push(bits) | RowSel::Pull(bits) => Some(bits),
        }
    }

    /// Whether block-local row `lr` is computed.
    fn keeps(self, lr: usize) -> bool {
        self.bitmap()
            .is_none_or(|bits| bits[lr / 64] >> (lr % 64) & 1 == 1)
    }
}

/// Folds `x_block` over one mirror row's columns — ascending, the column
/// sweep's order — into `slot`, skipping columns absent from `present`;
/// returns the nonzeros folded.
fn fold_row<T, M, I>(
    cols: &[I],
    x_block: &[T],
    present: Option<&[bool]>,
    monoid: M,
    slot: &mut T,
    hit: &mut bool,
) -> u64
where
    T: Copy,
    M: Monoid<T>,
    I: Idx,
{
    let mut ops = 0u64;
    for &j in cols {
        let j = j.idx();
        if present.is_some_and(|pr| !pr[j]) {
            continue;
        }
        *slot = monoid.combine(*slot, x_block[j]);
        *hit = true;
        ops += 1;
    }
    ops
}

/// Phase-2 local multiply for the SpMV-style paths: folds `x_block[j]`
/// into every stored row of the local block that `rows` selects. With
/// `threads <= 1` the push direction is the serial DCSC column sweep;
/// otherwise rows are split across the kernel pool via the row mirror. A
/// mirror row's columns are ascending — the same order the column sweep
/// combines them in — so all variants are bit-identical for any
/// associative monoid. [`RowSel::Pull`] visits only the masked rows
/// (row-split over the pool when threaded). When `present` is given, only
/// columns flagged there contribute (the densified-sparse-input case of
/// [`dist_mxv`]).
///
/// The op count is thread-count-independent: one per nonzero folded or
/// tested against the row mask, plus, when pulling, one per bitmap word
/// and per masked row.
fn local_multiply_block<T, M, I>(
    a: &DistMat<I>,
    x_block: &[T],
    present: Option<&[bool]>,
    rows: RowSel<'_>,
    monoid: M,
    threads: usize,
) -> (Vec<T>, Vec<bool>, u64)
where
    T: Copy + Send + Sync,
    M: Monoid<T>,
    I: Idx,
{
    let (local, mirror) = (a.local(), a.row_mirror());
    let h = local.nrows();
    let mut acc = vec![monoid.identity(); h];
    let mut touched = vec![false; h];
    if let RowSel::Pull(bits) = rows {
        let masked: Vec<usize> = set_bits(bits, 0, h).collect();
        let mut ops = bits.len() as u64 + masked.len() as u64;
        if threads <= 1 {
            for &lr in &masked {
                ops += fold_row(
                    mirror.row(lr),
                    x_block,
                    present,
                    monoid,
                    &mut acc[lr],
                    &mut touched[lr],
                );
            }
            return (acc, touched, ops);
        }
        let pool = kernel_pool(threads);
        let chunk = masked.len().div_ceil(pool.current_num_threads()).max(1);
        let mut folded = vec![(monoid.identity(), false); masked.len()];
        let mut chunk_ops = vec![0u64; masked.len().div_ceil(chunk)];
        pool.scope(|s| {
            for ((part, out), co) in masked
                .chunks(chunk)
                .zip(folded.chunks_mut(chunk))
                .zip(chunk_ops.iter_mut())
            {
                s.spawn(move || {
                    *co = part
                        .iter()
                        .zip(out.iter_mut())
                        .map(|(&lr, (v, t))| {
                            fold_row(mirror.row(lr), x_block, present, monoid, v, t)
                        })
                        .sum();
                });
            }
        });
        for (&lr, &(v, t)) in masked.iter().zip(&folded) {
            acc[lr] = v;
            touched[lr] = t;
        }
        return (acc, touched, ops + chunk_ops.iter().sum::<u64>());
    }
    if threads <= 1 {
        let mut ops: u64 = 0;
        for (lc, col_rows) in local.nonempty_cols() {
            if present.is_some_and(|pr| !pr[lc]) {
                continue;
            }
            let xv = x_block[lc];
            for &lr in col_rows {
                let lr = lr.idx();
                if rows.keeps(lr) {
                    acc[lr] = monoid.combine(acc[lr], xv);
                    touched[lr] = true;
                }
            }
            ops += col_rows.len() as u64;
        }
        return (acc, touched, ops);
    }
    let pool = kernel_pool(threads);
    let chunk = h.div_ceil(pool.current_num_threads()).max(1);
    let mut chunk_ops = vec![0u64; h.div_ceil(chunk)];
    pool.scope(|s| {
        for (((k, ac), tc), co) in acc
            .chunks_mut(chunk)
            .enumerate()
            .zip(touched.chunks_mut(chunk))
            .zip(chunk_ops.iter_mut())
        {
            let lo = k * chunk;
            s.spawn(move || {
                let mut ops = 0u64;
                for (o, (a_slot, t_slot)) in ac.iter_mut().zip(tc.iter_mut()).enumerate() {
                    let cols = mirror.row(lo + o);
                    if rows.keeps(lo + o) {
                        ops += fold_row(cols, x_block, present, monoid, a_slot, t_slot);
                    } else {
                        // Charged as the serial sweep tests them.
                        ops += cols
                            .iter()
                            .filter(|j| present.is_none_or(|pr| pr[j.idx()]))
                            .count() as u64;
                    }
                }
                *co = ops;
            });
        }
    });
    (acc, touched, chunk_ops.iter().sum())
}

/// `nnz`'s share of `part` out of `whole` (an expected op count).
fn share(nnz: usize, part: usize, whole: usize) -> u64 {
    (nnz as u128 * part as u128 / whole.max(1) as u128) as u64
}

/// Phase 2 in SpMV style for a gathered sparse input: densifies the
/// entries into the column-block segment plus a presence bitmap, runs
/// [`local_multiply_block`] over the rows `rows` selects, and lists the
/// touched rows in ascending order (under a mask, by scanning only the
/// masked rows).
fn multiply_densified<T, M, I>(
    a: &DistMat<I>,
    gathered: &[(I, T)],
    rows: RowSel<'_>,
    monoid: M,
    threads: usize,
) -> (Vec<T>, Vec<Vid>, u64)
where
    T: Copy + Send + Sync,
    M: Monoid<T>,
    I: Idx,
{
    let (cs, ce) = a.col_range();
    let w = ce - cs;
    let mut x_block = vec![monoid.identity(); w];
    let mut present = vec![false; w];
    for &(g, v) in gathered {
        x_block[g.idx() - cs] = v;
        present[g.idx() - cs] = true;
    }
    let (acc, flags, ops) =
        local_multiply_block(a, &x_block, Some(&present), rows, monoid, threads);
    let mut ops = ops + w as u64 + gathered.len() as u64;
    let touched: Vec<Vid> = match rows.bitmap() {
        None => flags
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t)
            .map(|(lr, _)| lr)
            .collect(),
        Some(bits) => {
            let mut touched = Vec::new();
            ops += bits.len() as u64;
            for lr in set_bits(bits, 0, flags.len()) {
                ops += 1;
                if flags[lr] {
                    touched.push(lr);
                }
            }
            touched
        }
    };
    (acc, touched, ops)
}

/// Phase-2 local multiply for the SpMSpV-style paths: per-entry scatter of
/// the gathered input through DCSC column lookups.
///
/// With `threads > 1` this uses the same merge-free owner-partitioned
/// scheme as [`crate::serial::mxv_sparse_par`]: the block's row space is
/// split into one contiguous partition per worker, scanners expand their
/// contiguous slice of the gathered entries into `(row, value)`
/// contributions binned by owning partition, and each owner folds its bins
/// in scanner order into a disjoint slice of one shared accumulator. No
/// cross-thread merge phase ever re-reads the full row space — the step
/// that made the old chunk-then-merge scheme memory-bound. Per row the
/// contributions arrive in gathered order (scanner slices are contiguous),
/// so the fold is the serial fold verbatim: bit-identical for any monoid.
///
/// Rows that `rows` does not select (a masked `mxv`'s unmasked rows) are
/// skipped: they are neither accumulated nor reported as touched.
///
/// Returns `(acc, touched rows, op count)`; the serial path reports
/// `touched` in first-touch order and the partitioned path in ascending
/// order — callers sort. The op count charges the expansion exactly as the
/// serial sweep does, so the modeled cost is thread-count-independent.
fn local_multiply_entries<T, M, I>(
    local: &Dcsc<I>,
    cs: usize,
    gathered: &[(I, T)],
    rows: RowSel<'_>,
    monoid: M,
    threads: usize,
) -> (Vec<T>, Vec<Vid>, u64)
where
    T: Copy + Send + Sync,
    M: Monoid<T>,
    I: Idx,
{
    let h = local.nrows();
    let mut ops: u64 = 1;
    if threads <= 1 || gathered.len() < 2 || h == 0 {
        let mut acc = vec![monoid.identity(); h];
        let mut is_touched = vec![false; h];
        let mut touched: Vec<Vid> = Vec::new();
        for &(gc, xv) in gathered {
            let col_rows = local.col(gc.idx() - cs);
            for &lr in col_rows {
                let lr = lr.idx();
                if !rows.keeps(lr) {
                    continue;
                }
                if !is_touched[lr] {
                    is_touched[lr] = true;
                    touched.push(lr);
                }
                acc[lr] = monoid.combine(acc[lr], xv);
            }
            ops += col_rows.len() as u64 + 1;
        }
        return (acc, touched, ops);
    }
    let pool = kernel_pool(threads);
    let nt = pool.current_num_threads().max(1);
    let part = h.div_ceil(nt).max(1);
    let nparts = h.div_ceil(part);
    let chunk = gathered.len().div_ceil(nt).max(1);
    let nscan = gathered.chunks(chunk).len();

    // Phase 1: scanners expand contiguous entry slices, binning row
    // contributions by owning partition. `bins[s][k]` holds scanner s's
    // contributions to partition k, in gathered order.
    let mut bins: Vec<Vec<Vec<(I, T)>>> = (0..nscan).map(|_| vec![Vec::new(); nparts]).collect();
    let mut scan_ops = vec![0u64; nscan];
    pool.scope(|s| {
        for ((b, es), so) in bins
            .iter_mut()
            .zip(gathered.chunks(chunk))
            .zip(scan_ops.iter_mut())
        {
            s.spawn(move || {
                let mut ops = 0u64;
                for &(gc, xv) in es {
                    let col_rows = local.col(gc.idx() - cs);
                    for &lr in col_rows {
                        if rows.keeps(lr.idx()) {
                            b[lr.idx() / part].push((lr, xv));
                        }
                    }
                    ops += col_rows.len() as u64 + 1;
                }
                *so = ops;
            });
        }
    });
    ops += scan_ops.iter().sum::<u64>();

    // Phase 2: each owner folds its bins — scanner order restores gathered
    // order per row — into its disjoint accumulator slice, then sorts its
    // own touched list.
    let mut acc = vec![monoid.identity(); h];
    let mut is_touched = vec![false; h];
    let mut owner_touched: Vec<Vec<Vid>> = vec![Vec::new(); nparts];
    let bins = &bins;
    pool.scope(|s| {
        for (((k, ac), tc), tk) in acc
            .chunks_mut(part)
            .enumerate()
            .zip(is_touched.chunks_mut(part))
            .zip(owner_touched.iter_mut())
        {
            let lo = k * part;
            s.spawn(move || {
                for sb in bins {
                    for &(lr, xv) in &sb[k] {
                        let li = lr.idx() - lo;
                        if !tc[li] {
                            tc[li] = true;
                            tk.push(lr.idx());
                        }
                        ac[li] = monoid.combine(ac[li], xv);
                    }
                }
                tk.sort_unstable();
            });
        }
    });

    // Phase 3: partitions cover ascending row ranges, so concatenation is
    // globally sorted.
    let touched: Vec<Vid> = owner_touched.concat();
    (acc, touched, ops)
}

/// Phase 4, the transpose exchange: sends the reduced chunk this rank
/// holds to its layout owner and returns the chunk this rank owns. Under a
/// mask a chunk without masked rows travels nowhere: its holder knows from
/// the row bitmap, its owner from its own mask words.
fn transpose_exchange<X, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    layout: VecLayout,
    held: Vec<X>,
    mask: Option<&MxvMask>,
) -> Vec<X>
where
    X: Send + 'static,
    I: Idx,
{
    let me = comm.rank();
    let (owner, holder) = transpose_peers(a.grid(), layout, me);
    if owner == me {
        debug_assert_eq!(holder, me);
        return held;
    }
    let (_, j) = a.grid().coords_of(me);
    if mask.is_none_or(|m| m.chunk_counts[j] > 0) {
        comm.send_vec(owner, held);
    }
    if mask.is_none_or(|m| m.own_count > 0) {
        comm.recv(holder)
    } else {
        Vec::new()
    }
}

/// Phases 3–4 shared by the SpMSpV-style paths ([`dist_mxv_sparse`] and
/// the dense-execution branch of [`dist_mxv`]): route the touched partial
/// results to their subchunk owners within the processor row (irregular
/// all-to-all + monoid merge), then the transpose exchange to the layout
/// owner. Under a mask the local multiply touched only masked rows, so
/// only those travel, and a row block without masked rows skips the
/// reduce.
#[allow(clippy::too_many_arguments)] // internal seam between two mxv phases
fn spmspv_reduce_and_transpose<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    layout: VecLayout,
    acc: &[T],
    mut touched: Vec<Vid>,
    mask: Option<&MxvMask>,
    monoid: M,
    opts: &DistOpts,
) -> DistSpVec<T, I>
where
    T: Copy + Send + Sync + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let me = comm.rank();
    let grid = a.grid();
    let (i, _) = grid.coords_of(me);
    let pc = grid.cols();
    let (rs, _re) = a.row_range();
    let mut merged: HashMap<I, T> = HashMap::new();
    if mask.is_none_or(|m| m.count > 0) {
        let row_group = grid.row_group(comm);
        let mut buckets: Vec<PooledBuf<(I, T)>> = (0..pc).map(|_| comm.pooled_buf()).collect();
        touched.sort_unstable();
        for &lr in &touched {
            let g = rs + lr;
            let c = layout.chunk_containing(g);
            debug_assert!(c >= i * pc && c < (i + 1) * pc);
            buckets[c - i * pc].push((I::from_usize(g), acc[lr]));
        }
        let buckets: Vec<Vec<(I, T)>> = buckets.into_iter().map(PooledBuf::detach).collect();
        let mut merge_ops = 0u64;
        let incoming = comm.alltoallv(&row_group, buckets, opts.alltoall);
        for part in incoming {
            let part = comm.adopt_buf(part);
            merge_ops += part.len() as u64;
            for &(g, v) in part.iter() {
                merged
                    .entry(g)
                    .and_modify(|acc| *acc = monoid.combine(*acc, v))
                    .or_insert(v);
            }
        }
        comm.charge_compute(merge_ops);
    }
    let entries = transpose_exchange(comm, a, layout, merged.into_iter().collect(), mask);
    comm.charge_compute(entries.len() as u64);
    DistSpVec::from_local_entries(layout, me, entries)
}

/// Distributed SpMV: `y = A ⊕.2nd x` with dense input `x`, masked output.
pub fn dist_mxv_dense<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistVec<T>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> DistSpVec<T, I>
where
    T: Copy + Send + Sync + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Mxv);
    let out = mxv_dense_impl(comm, a, x, mask, monoid, opts);
    comm.span_close(span);
    out
}

/// [`dist_mxv_dense`] posted as a non-blocking operation (see
/// [`dist_mxv_start`] for the contract).
pub fn dist_mxv_dense_start<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistVec<T>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> CommHandle<DistSpVec<T, I>>
where
    T: Copy + Send + Sync + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    comm.post(opts.overlap, |c| {
        let span = c.span_open(SpanKind::Mxv);
        let out = mxv_dense_impl(c, a, x, mask, monoid, opts);
        c.span_close(span);
        out
    })
}

fn mxv_dense_impl<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistVec<T>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> DistSpVec<T, I>
where
    T: Copy + Send + Sync + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let grid = a.grid();
    let layout = x.layout();
    assert_eq!(layout.len(), a.n(), "matrix/vector dimension mismatch");
    if layout.distribution() == Distribution::Cyclic {
        return dist_mxv_cyclic(comm, a, Some(x), None, mask, monoid, opts);
    }
    let me = comm.rank();
    let (i, _) = grid.coords_of(me);
    let (pc, p) = (grid.cols(), grid.size());
    let rows = exchange_mask(comm, a, layout, mask);

    // Phase 1: assemble the column-block segment of x within the processor
    // column (group index within col_group equals grid row, so blocks
    // concatenate in global order). Posted non-blocking: the multiply
    // consumes gathered chunks as they stream in, so its charge lands
    // between the post and the wait and hides the transfer tail.
    let col_group = grid.col_group(comm);
    let gh = comm.post(opts.overlap, |c| {
        c.allgatherv(&col_group, x.local().to_vec())
    });
    let x_block: Vec<T> = gh.peek().concat();
    debug_assert_eq!(x_block.len(), a.col_range().1 - a.col_range().0);

    // Phase 2: local block multiply into a row-block accumulator, masked
    // rows only under a mask (row-split across the kernel pool when
    // `opts.kernel_threads > 1`).
    let (rs, re) = a.row_range();
    let nnz = a.local_nnz();
    let sel = RowSel::choose(rows.as_ref(), re - rs, nnz, nnz as u64, 0);
    let (acc, touched, ops) =
        local_multiply_block(a, &x_block, None, sel, monoid, opts.kernel_threads);
    comm.charge_compute(ops + x_block.len() as u64);
    gh.wait(comm);

    // Phase 3: reduce-scatter within the processor row. Subchunk k of this
    // row block is global chunk i·pc + k, destined for row-group member k.
    // Under a mask only the masked rows travel, by position — every member
    // holds the same bitmap, so no keys are needed — and a row block
    // without masked rows skips the reduce.
    let reduced: Vec<(T, bool)> = if rows.as_ref().is_none_or(|m| m.count > 0) {
        let mut ops = 0u64;
        let parts: Vec<Vec<(T, bool)>> = (0..pc)
            .map(|k| {
                let (s, e) = block_range(a.n(), p, i * pc + k);
                let (lo, hi) = (s - rs, e - rs);
                match sel.bitmap() {
                    None => (lo..hi).map(|lr| (acc[lr], touched[lr])).collect(),
                    Some(bits) => {
                        let part: Vec<(T, bool)> = set_bits(bits, lo, hi)
                            .map(|lr| (acc[lr], touched[lr]))
                            .collect();
                        ops += words_spanned(lo, hi) + part.len() as u64;
                        part
                    }
                }
            })
            .collect();
        comm.charge_compute(ops);
        let row_group = grid.row_group(comm);
        comm.reduce_scatter(&row_group, parts, |aa: &mut (T, bool), bb: (T, bool)| {
            if bb.1 {
                if aa.1 {
                    aa.0 = monoid.combine(aa.0, bb.0);
                } else {
                    *aa = bb;
                }
            }
        })
    } else {
        Vec::new()
    };

    // Phase 4: transpose exchange — the reduced chunk i·pc + j belongs to
    // rank (j, i) under the column-major vector layout.
    let mine = transpose_exchange(comm, a, layout, reduced, rows.as_ref());

    // Owner-side: keep the touched entries. Under a mask they arrived for
    // the chunk's masked positions only, in order.
    let (s, _e) = layout.range_of_rank(me);
    let keep_touched = |(off, (v, t)): (usize, (T, bool))| t.then(|| (I::from_usize(s + off), v));
    let (entries, scanned): (Vec<(I, T)>, u64) = match &rows {
        None => (
            mine.into_iter()
                .enumerate()
                .filter_map(keep_touched)
                .collect(),
            0,
        ),
        Some(m) => (
            set_bits(&m.own, 0, layout.local_len(me))
                .zip(mine)
                .filter_map(keep_touched)
                .collect(),
            m.own.len() as u64,
        ),
    };
    comm.charge_compute(entries.len() as u64 + scanned);
    DistSpVec::from_local_entries(layout, me, entries)
}

/// Distributed SpMSpV: `y = A ⊕.2nd x` with sparse input `x`.
pub fn dist_mxv_sparse<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistSpVec<T, I>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> DistSpVec<T, I>
where
    T: Copy + Send + Sync + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Mxv);
    let out = mxv_sparse_impl(comm, a, x, mask, monoid, opts);
    comm.span_close(span);
    out
}

fn mxv_sparse_impl<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistSpVec<T, I>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> DistSpVec<T, I>
where
    T: Copy + Send + Sync + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let grid = a.grid();
    let layout = x.layout();
    assert_eq!(layout.len(), a.n(), "matrix/vector dimension mismatch");
    if layout.distribution() == Distribution::Cyclic {
        return dist_mxv_cyclic(comm, a, None, Some(x), mask, monoid, opts);
    }

    let rows = exchange_mask(comm, a, layout, mask);

    // Phase 1: sparse allgather of x entries within the processor column,
    // posted non-blocking so the per-entry multiply streams behind it.
    let col_group = grid.col_group(comm);
    let gh = comm.post(opts.overlap, |c| {
        c.allgatherv(&col_group, x.entries().to_vec())
    });
    let gathered: Vec<(I, T)> = gh.peek().iter().flatten().copied().collect();

    // Phase 2: local multiply through the DCSC block (owner-partitioned
    // across the kernel pool when `opts.kernel_threads > 1`). Under a mask
    // the per-entry push skips unmasked rows; when few rows are masked the
    // densified pull over them is expected to touch less.
    let (cs, ce) = a.col_range();
    let (rs, re) = a.row_range();
    let (nnz, k) = (a.local_nnz(), gathered.len());
    let push_ops = k as u64 + share(nnz, k, ce - cs);
    let sel = RowSel::choose(rows.as_ref(), re - rs, nnz, push_ops, (ce - cs + k) as u64);
    let (acc, touched, ops) = match sel {
        RowSel::Pull(_) => multiply_densified(a, &gathered, sel, monoid, opts.kernel_threads),
        _ => local_multiply_entries(a.local(), cs, &gathered, sel, monoid, opts.kernel_threads),
    };
    comm.charge_compute(ops);
    gh.wait(comm);

    // Phases 3–4: row-wise reduce + transpose exchange (the paper's SpMSpV
    // reduce phase).
    spmspv_reduce_and_transpose(comm, a, layout, &acc, touched, rows.as_ref(), monoid, opts)
}

/// Adaptive distributed `mxv` over a sparse input: measures the input's
/// global fill (`nvals/n`, one allreduce — every rank takes the same
/// branch) and dispatches between SpMV-style and SpMSpV-style *execution*
/// of the local multiply, mirroring the internal dispatch of the paper's
/// `GrB_mxv` (§V-A).
///
/// * fill ≥ [`DistOpts::spmv_threshold`] — the gathered entries are
///   densified into the column-block segment plus a presence bitmap, and
///   the local multiply scans the block's stored columns linearly (or
///   row-splits over the mirror when threaded) instead of binary-searching
///   the DCSC once per input entry.
/// * fill below the threshold — [`dist_mxv_sparse`]'s per-entry kernel.
///
/// Both branches produce **bit-identical** results (same gather, same
/// per-row combine order, same reduce/transpose phases), so the dispatch
/// is purely a performance choice; the proptests pin this down.
pub fn dist_mxv<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistSpVec<T, I>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> DistSpVec<T, I>
where
    T: Copy + Send + Sync + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    // One Mxv span covers whichever execution branch runs (the sparse
    // branch goes through `mxv_sparse_impl` directly, not the public
    // wrapper, so the span is never doubled).
    let span = comm.span_open(SpanKind::Mxv);
    let nvals = input_nvals(comm, a, x);
    let (out, _) = mxv_adaptive_impl(comm, a, x, nvals, mask, monoid, opts);
    comm.span_close(span);
    out
}

/// [`dist_mxv`] for a caller that already knows `x`'s global entry count
/// `nvals` (for instance from its own convergence allreduce): the fill
/// dispatch uses it instead of allreducing the count again. Also returns
/// whether the SpMV-style branch ran, so the caller can record the
/// dispatch without restating its rule. `nvals` must equal
/// `x.global_nvals` on every rank.
pub fn dist_mxv_counted<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistSpVec<T, I>,
    nvals: usize,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> (DistSpVec<T, I>, bool)
where
    T: Copy + Send + Sync + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Mxv);
    let out = mxv_adaptive_impl(comm, a, x, nvals, mask, monoid, opts);
    comm.span_close(span);
    out
}

/// [`dist_mxv`] posted as a non-blocking operation. The multiply runs
/// *now* — message pattern, charges and result are exactly those of the
/// blocking call — and the returned handle remembers how much of its
/// modeled cost was hideable exchange time (β transfer plus
/// synchronization waits; α posts and the local multiply are not
/// hideable). Local compute charged between this call and
/// [`dmsim::CommHandle::wait`] earns the clock a refund of up to that
/// amount when [`DistOpts::overlap`] is on; with it off the handle is
/// inert and `wait` returns the value unchanged. Either way the caller
/// gets a bit-identical vector.
pub fn dist_mxv_start<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistSpVec<T, I>,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> CommHandle<DistSpVec<T, I>>
where
    T: Copy + Send + Sync + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    comm.post(opts.overlap, |c| {
        let span = c.span_open(SpanKind::Mxv);
        let nvals = input_nvals(c, a, x);
        let (out, _) = mxv_adaptive_impl(c, a, x, nvals, mask, monoid, opts);
        c.span_close(span);
        out
    })
}

/// The global entry count of `x` for the fill dispatch (one allreduce;
/// none for an empty matrix).
fn input_nvals<T: Copy + Send + 'static, I: Idx>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistSpVec<T, I>,
) -> usize {
    if a.n() == 0 {
        0
    } else {
        x.global_nvals(comm)
    }
}

/// The adaptive `mxv` given the input's global entry count `nvals`; the
/// flag says whether the SpMV-style branch ran. This is the only place
/// the branch is decided.
fn mxv_adaptive_impl<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    x: &DistSpVec<T, I>,
    nvals: usize,
    mask: DistMask<'_>,
    monoid: M,
    opts: &DistOpts,
) -> (DistSpVec<T, I>, bool)
where
    T: Copy + Send + Sync + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let layout = x.layout();
    assert_eq!(layout.len(), a.n(), "matrix/vector dimension mismatch");
    let n = a.n();
    let fill = if n == 0 { 0.0 } else { nvals as f64 / n as f64 };
    if layout.distribution() == Distribution::Cyclic || fill < opts.spmv_threshold {
        return (mxv_sparse_impl(comm, a, x, mask, monoid, opts), false);
    }

    // SpMV-style execution: same sparse allgather (posted, so the densify
    // and block multiply stream behind the transfer), then densify.
    let rows = exchange_mask(comm, a, layout, mask);
    let grid = a.grid();
    let col_group = grid.col_group(comm);
    let gh = comm.post(opts.overlap, |c| {
        c.allgatherv(&col_group, x.entries().to_vec())
    });
    let gathered: Vec<(I, T)> = gh.peek().iter().flatten().copied().collect();
    let (cs, ce) = a.col_range();
    let (rs, re) = a.row_range();
    let nnz = a.local_nnz();
    let push_ops = share(nnz, gathered.len(), ce - cs);
    let sel = RowSel::choose(rows.as_ref(), re - rs, nnz, push_ops, 0);
    let (acc, touched, ops) = multiply_densified(a, &gathered, sel, monoid, opts.kernel_threads);
    comm.charge_compute(ops);
    gh.wait(comm);
    let out =
        spmspv_reduce_and_transpose(comm, a, layout, &acc, touched, rows.as_ref(), monoid, opts);
    (out, true)
}

/// The owner-bucketing of one extract request list, computed once by
/// [`plan_requests`] and reusable across several [`dist_extract_planned`]
/// calls over vectors sharing the layout (LACC's starcheck issues two
/// back-to-back extracts with the identical grandparent request slice, so
/// the plan is built once).
///
/// Each per-owner wire list keeps request order; `positions` routes each
/// reply back to its originating request position.
pub struct RequestPlan<I: Idx = Vid> {
    layout: VecLayout,
    n_requests: usize,
    /// Per-owner ids as they will cross the wire, at index width `I`.
    wire_ids: Vec<Vec<I>>,
    /// Per-owner original request position of each `wire_ids` entry.
    positions: Vec<Vec<u32>>,
}

impl<I: Idx> RequestPlan<I> {
    /// The layout the plan was built against.
    pub fn layout(&self) -> VecLayout {
        self.layout
    }

    /// Number of local requests the plan answers.
    pub fn n_requests(&self) -> usize {
        self.n_requests
    }
}

/// Buckets `requests` by owning rank under `layout`, recording each
/// request's position for the reply scatter. Charged as local compute; no
/// communication happens here.
pub fn plan_requests<I: Idx>(comm: &mut Comm, layout: VecLayout, requests: &[I]) -> RequestPlan<I> {
    assert!(
        requests.len() < u32::MAX as usize,
        "request list too long for the plan's u32 positions"
    );
    let pairs = layout.bucket_by_owner(
        comm,
        requests.iter().enumerate().map(|(pos, &g)| (g, pos as u32)),
    );
    let (wire_ids, positions) = pairs
        .iter()
        .map(|bucket| bucket.iter().copied().unzip())
        .unzip();
    comm.charge_compute(requests.len() as u64 + 1);
    RequestPlan {
        layout,
        n_requests: requests.len(),
        wire_ids,
        positions,
    }
}

/// Distributed gather (`GrB_extract` by index list): returns
/// `src[requests[k]]` for each locally supplied request, in order.
///
/// Implements the paper's skew mitigation: per-owner request totals are
/// allreduced; owners whose incoming load exceeds `hot_threshold ×` their
/// chunk size broadcast their chunk instead of answering point-to-point
/// (then drop out of the all-to-all, which the sparse algorithm exploits).
pub fn dist_extract<T, I>(
    comm: &mut Comm,
    src: &DistVec<T>,
    requests: &[I],
    opts: &DistOpts,
) -> (Vec<T>, ExtractStats)
where
    T: Copy + Send + 'static,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Extract);
    let plan = plan_requests(comm, src.layout(), requests);
    let out = extract_impl(comm, src, &plan, opts);
    comm.span_close(span);
    out
}

/// [`dist_extract`] posted as a non-blocking operation: plans and runs
/// the exchange *now* (identical messages, charges and results), and the
/// returned handle refunds hideable exchange time against local compute
/// charged before [`dmsim::CommHandle::wait`] when [`DistOpts::overlap`]
/// is on. See [`dist_mxv_start`] for the full contract.
pub fn dist_extract_start<T, I>(
    comm: &mut Comm,
    src: &DistVec<T>,
    requests: &[I],
    opts: &DistOpts,
) -> CommHandle<(Vec<T>, ExtractStats)>
where
    T: Copy + Send + 'static,
    I: Idx + WireWord,
{
    comm.post(opts.overlap, |c| {
        let span = c.span_open(SpanKind::Extract);
        let plan = plan_requests(c, src.layout(), requests);
        let out = extract_impl(c, src, &plan, opts);
        c.span_close(span);
        out
    })
}

/// [`dist_extract`] against a request plan built once with
/// [`plan_requests`] — callers issuing several extracts with the same
/// request list over same-layout vectors skip the repeated bucketing.
pub fn dist_extract_planned<T, I>(
    comm: &mut Comm,
    src: &DistVec<T>,
    plan: &RequestPlan<I>,
    opts: &DistOpts,
) -> (Vec<T>, ExtractStats)
where
    T: Copy + Send + 'static,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Extract);
    let out = extract_impl(comm, src, plan, opts);
    comm.span_close(span);
    out
}

/// Answers every planned request from per-owner `(key, value)` replies
/// sorted by key (the combining reply format), skipping hot owners whose
/// requests were already served from their broadcast chunk.
fn scatter_keyed_replies<T: Copy, I: Idx>(
    plan: &RequestPlan<I>,
    reply: &[Vec<(I, T)>],
    hot: &[bool],
    results: &mut [Option<T>],
) {
    for (o, pairs) in reply.iter().enumerate() {
        if hot[o] {
            continue;
        }
        for (&key, &pos) in plan.wire_ids[o].iter().zip(&plan.positions[o]) {
            let i = pairs
                .binary_search_by_key(&key, |&(k, _)| k)
                .expect("reply for every requested id");
            results[pos as usize] = Some(pairs[i].1);
        }
    }
}

fn extract_impl<T, I>(
    comm: &mut Comm,
    src: &DistVec<T>,
    plan: &RequestPlan<I>,
    opts: &DistOpts,
) -> (Vec<T>, ExtractStats)
where
    T: Copy + Send + 'static,
    I: Idx + WireWord,
{
    let layout = src.layout();
    assert_eq!(layout, plan.layout, "plan built for a different layout");
    let p = comm.size();
    let me = comm.rank();
    let world = comm.world();

    let mut results: Vec<Option<T>> = vec![None; plan.n_requests];
    let mut stats = ExtractStats::default();

    // Detect hot owners by global request totals.
    let hot: Vec<bool> = if opts.hot_bcast && p > 1 {
        let my_counts: Vec<u64> = plan.wire_ids.iter().map(|v| v.len() as u64).collect();
        let totals = comm.allreduce_counted(&world, my_counts, p as u64, |a, b| {
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        });
        (0..p)
            .map(|o| totals[o] as f64 > opts.hot_threshold * (layout.local_len(o).max(1) as f64))
            .collect()
    } else {
        vec![false; p]
    };

    // Hot owners broadcast their chunk; requesters self-serve.
    for o in 0..p {
        if !hot[o] {
            continue;
        }
        let chunk = comm.bcast_vec(&world, o, (me == o).then(|| src.local().to_vec()));
        if me == o {
            stats.did_broadcast = true;
        }
        for (&g, &pos) in plan.wire_ids[o].iter().zip(&plan.positions[o]) {
            results[pos as usize] = Some(chunk[layout.offset_of(o, g.idx())]);
        }
        comm.charge_compute(plan.positions[o].len() as u64 + 1);
    }

    // The remaining requests go to their owners; hot owners get empty
    // buckets.
    let send: Vec<Vec<I>> = (0..p)
        .map(|o| {
            if hot[o] {
                Vec::new()
            } else {
                plan.wire_ids[o].clone()
            }
        })
        .collect();

    // In-flight combining: request ids ride the combining hypercube as
    // delta-encoded key streams, merging duplicates at the hop where
    // their routes first meet; replies scatter back along the recorded
    // reverse route. Keys stay at the narrow index width `I` — the delta
    // streams encode identically, but the pairwise fallbacks and reply
    // tuples are charged at `I`'s true size.
    if opts.combine_in_flight {
        let route = comm.combining_requests(&world, send);
        stats.received_requests = route.delivered_keys().len() as u64;
        let values: Vec<T> = route
            .delivered_keys()
            .iter()
            .map(|&k| src.get_local(k.idx()))
            .collect();
        comm.charge_compute(stats.received_requests + 1);
        let reply = comm.combining_replies(&world, &route, &values);
        scatter_keyed_replies(plan, &reply, &hot, &mut results);
        for o in (0..p).filter(|&o| !hot[o]) {
            comm.charge_compute(plan.positions[o].len() as u64 + 1);
        }
        return (
            results
                .into_iter()
                .map(|r| r.expect("every request answered"))
                .collect(),
            stats,
        );
    }

    let incoming = comm.alltoallv(&world, send, opts.alltoall);
    let replies: Vec<Vec<T>> = incoming
        .into_iter()
        .map(|ids| {
            // Adopt the id list so its allocation recycles after the
            // reply is built.
            let ids = comm.adopt_buf(ids);
            stats.received_requests += ids.len() as u64;
            ids.iter().map(|&g| src.get_local(g.idx())).collect()
        })
        .collect();
    comm.charge_compute(stats.received_requests + 1);
    let reply_back = comm.alltoallv(&world, replies, opts.alltoall);
    for o in 0..p {
        if hot[o] {
            continue;
        }
        for (&v, &pos) in reply_back[o].iter().zip(&plan.positions[o]) {
            results[pos as usize] = Some(v);
        }
    }
    (
        results
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect(),
        stats,
    )
}

/// A combining request route paid for once and replayed for several
/// extract phases against the same request list.
///
/// Starcheck issues two extracts with identical requests (grandparent,
/// then parent starness) separated by an assign. `FusedExtract` sends the
/// ids through the combining hypercube once ([`FusedExtract::begin`]) and
/// scatters each phase's replies back along the recorded reverse route
/// ([`FusedExtract::extract`]). Values are read at reply time, so a phase
/// observes assigns applied after `begin` — exactly the ordering the
/// unfused pair of extracts had. This path never takes the hot-rank
/// broadcast: the combining tree already collapses the duplicate traffic
/// that made owners hot. Keys stay at the plan's index width `I`.
pub struct FusedExtract<I: Idx = Vid> {
    route: CombineRoute<I>,
}

impl<I: Idx + WireWord> FusedExtract<I> {
    /// Sends the plan's per-owner request ids through the combining
    /// hypercube and records the route for later reply phases.
    pub fn begin(comm: &mut Comm, plan: &RequestPlan<I>) -> FusedExtract<I> {
        let world = comm.world();
        let route = comm.combining_requests(&world, plan.wire_ids.clone());
        FusedExtract { route }
    }

    /// Unique request ids the route delivered to this rank — what this
    /// rank serves per reply phase.
    pub fn received(&self) -> u64 {
        self.route.delivered_keys().len() as u64
    }

    /// One reply phase: serves the delivered ids from `src` as of *now*
    /// and returns `src[requests[k]]` for each planned request, in order.
    pub fn extract<T>(&self, comm: &mut Comm, src: &DistVec<T>, plan: &RequestPlan<I>) -> Vec<T>
    where
        T: Copy + Send + 'static,
    {
        let span = comm.span_open(SpanKind::Extract);
        let world = comm.world();
        assert_eq!(
            src.layout(),
            plan.layout,
            "plan built for a different layout"
        );
        let values: Vec<T> = self
            .route
            .delivered_keys()
            .iter()
            .map(|&k| src.get_local(k.idx()))
            .collect();
        comm.charge_compute(values.len() as u64 + 1);
        let reply = comm.combining_replies(&world, &self.route, &values);
        let mut results: Vec<Option<T>> = vec![None; plan.n_requests];
        scatter_keyed_replies(plan, &reply, &vec![false; reply.len()], &mut results);
        comm.charge_compute(plan.n_requests as u64 + 1);
        comm.span_close(span);
        results
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }
}

/// Distributed scatter (`GrB_assign` by index list): applies
/// `dst[g] = v` for every locally supplied update `(g, v)`. Duplicate
/// targets (across all ranks) are resolved deterministically through the
/// monoid, mirroring [`crate::serial::assign`].
///
/// `accum` is the GraphBLAS accumulator: [`Accum::Replace`] writes the
/// merged update as is, so it can raise a stored value; [`Accum::Fold`]
/// makes the owner fold it into the stored value through the same monoid
/// (`dst[g] = dst[g] ⊕ v`), so under `min` nothing ever rises.
///
/// Returns the number of *locally owned* elements whose value changed
/// (callers allreduce this for the global convergence test) and the
/// per-rank [`AssignStats`].
pub fn dist_assign<T, M, I>(
    comm: &mut Comm,
    dst: &mut DistVec<T>,
    updates: &[(I, T)],
    monoid: M,
    accum: Accum,
    opts: &DistOpts,
) -> (usize, AssignStats)
where
    T: Copy + Send + PartialEq + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let span = comm.span_open(SpanKind::Assign);
    let out = assign_impl(comm, dst, updates, monoid, accum, opts);
    comm.span_close(span);
    out
}

fn assign_impl<T, M, I>(
    comm: &mut Comm,
    dst: &mut DistVec<T>,
    updates: &[(I, T)],
    monoid: M,
    accum: Accum,
    opts: &DistOpts,
) -> (usize, AssignStats)
where
    T: Copy + Send + PartialEq + 'static,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    // The owner's write of one merged update; returns whether it changed
    // the stored value.
    let write = |dst: &mut DistVec<T>, g: Vid, v: T| {
        let old = dst.get_local(g);
        let new = match accum {
            Accum::Replace => v,
            Accum::Fold => monoid.combine(old, v),
        };
        if old != new {
            dst.set_local(g, new);
        }
        old != new
    };
    let layout = dst.layout();
    let world = comm.world();
    let mut stats = AssignStats::default();
    let buckets: Vec<Vec<(I, T)>> = layout
        .bucket_by_owner(comm, updates.iter().copied())
        .into_iter()
        .map(PooledBuf::detach)
        .collect();
    comm.charge_compute(updates.len() as u64 + 1);

    // In-flight combining: updates ride the combining hypercube keyed by
    // target id, folding through the monoid wherever two origins' routes
    // meet — each target reaches its owner at most once per arrival
    // branch instead of once per sender. LACC's monoids (min-hook,
    // and-fold) are commutative, so the merge-tree order is immaterial.
    // Keys ride at the narrow index width `I`, so the per-entry tuples
    // are charged at their true size.
    if opts.combine_in_flight {
        let merged = comm.reduce_scatter_by_key(&world, buckets, |acc: &mut T, v| {
            *acc = monoid.combine(*acc, v)
        });
        stats.received_updates = merged.len() as u64;
        comm.charge_compute(stats.received_updates + 1);
        let changed = merged
            .into_iter()
            .filter(|&(k, v)| write(dst, k.idx(), v))
            .count();
        return (changed, stats);
    }

    let mut combined: HashMap<Vid, T> = HashMap::new();
    let mut nops = 0u64;
    let incoming = comm.alltoallv(&world, buckets, opts.alltoall);
    for part in incoming {
        let part = comm.adopt_buf(part);
        nops += part.len() as u64;
        for &(g, v) in part.iter() {
            combined
                .entry(g.idx())
                .and_modify(|acc| *acc = monoid.combine(*acc, v))
                .or_insert(v);
        }
    }
    stats.received_updates = nops;
    comm.charge_compute(nops + 1);
    let changed = combined
        .into_iter()
        .filter(|&(g, v)| write(dst, g, v))
        .count();
    (changed, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::dvec::VecLayout;
    use crate::serial::{self, Pattern, SparseVec};
    use crate::types::{Mask, MinUsize};
    use dmsim::{run_spmd, Grid2d};
    use lacc_graph::generators::{erdos_renyi_gnm, path_graph, rmat, RmatParams};
    use lacc_graph::CsrGraph;
    use rand::{Rng, SeedableRng};

    const GRIDS: [usize; 4] = [1, 4, 9, 16];

    fn random_dense(n: usize, seed: u64) -> Vec<usize> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0..n.max(1))).collect()
    }

    fn check_mxv_dense(g: &CsrGraph, x_global: &[usize], mask_global: Option<&[bool]>) {
        let a_serial = Pattern::from_graph(g);
        let n = g.num_vertices();
        for p in GRIDS {
            let expected = match mask_global {
                None => serial::mxv_dense(&a_serial, x_global, Mask::None, MinUsize),
                Some(m) => serial::mxv_dense(&a_serial, x_global, Mask::Keep(m), MinUsize),
            };
            let out = run_spmd(p, |c| {
                let grid = Grid2d::square(p);
                let layout = VecLayout::new(n, grid);
                let a = DistMat::from_graph(g, grid, c.rank());
                let x = DistVec::from_global(layout, c.rank(), x_global);
                let mv = mask_global.map(|m| DistVec::from_global(layout, c.rank(), m));
                let mask = match &mv {
                    None => DistMask::None,
                    Some(m) => DistMask::Keep(m),
                };
                let y = dist_mxv_dense(c, &a, &x, mask, MinUsize, &DistOpts::default());
                y.to_serial(c)
            })
            .unwrap();
            for y in out {
                assert_eq!(y, expected, "p={p}");
            }
        }
    }

    #[test]
    fn mxv_dense_matches_serial_er() {
        let g = erdos_renyi_gnm(60, 150, 1);
        let x = random_dense(60, 2);
        check_mxv_dense(&g, &x, None);
    }

    #[test]
    fn mxv_dense_matches_serial_masked() {
        let g = rmat(6, 4, RmatParams::graph500(), 3);
        let n = g.num_vertices();
        let x = random_dense(n, 5);
        let mask: Vec<bool> = (0..n).map(|v| v % 3 != 0).collect();
        check_mxv_dense(&g, &x, Some(&mask));
    }

    #[test]
    fn mxv_dense_path_small_n_large_p() {
        // n=10 with p=16 ranks: some chunks are empty.
        let g = path_graph(10);
        let x = random_dense(10, 7);
        check_mxv_dense(&g, &x, None);
    }

    fn check_mxv_sparse(g: &CsrGraph, x_serial: &SparseVec<usize>, opts: DistOpts) {
        let a_serial = Pattern::from_graph(g);
        let n = g.num_vertices();
        let expected = serial::mxv_sparse(&a_serial, x_serial, Mask::None, MinUsize);
        for p in GRIDS {
            let out = run_spmd(p, |c| {
                let grid = Grid2d::square(p);
                let layout = VecLayout::new(n, grid);
                let a = DistMat::from_graph(g, grid, c.rank());
                let (s, e) = layout.range_of_rank(c.rank());
                let local: Vec<(usize, usize)> = x_serial
                    .entries()
                    .iter()
                    .copied()
                    .filter(|&(g, _)| g >= s && g < e)
                    .collect();
                let x = DistSpVec::from_local_entries(layout, c.rank(), local);
                let y = dist_mxv_sparse(c, &a, &x, DistMask::None, MinUsize, &opts);
                y.to_serial(c)
            })
            .unwrap();
            for y in out {
                assert_eq!(y, expected, "p={p}");
            }
        }
    }

    #[test]
    fn mxv_sparse_matches_serial_all_algorithms() {
        let g = erdos_renyi_gnm(50, 120, 11);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let mut entries: Vec<(usize, usize)> = Vec::new();
        for i in 0..50 {
            if rng.random_bool(0.3) {
                entries.push((i, rng.random_range(0..50)));
            }
        }
        let x = SparseVec::from_entries(50, entries);
        for algo in [
            AllToAll::Direct,
            AllToAll::Pairwise,
            AllToAll::Hypercube,
            AllToAll::Sparse,
        ] {
            check_mxv_sparse(
                &g,
                &x,
                DistOpts {
                    alltoall: algo,
                    ..DistOpts::default()
                },
            );
        }
    }

    #[test]
    fn adaptive_mxv_both_branches_match_sparse_bitwise() {
        // A ~60% fill input: threshold 0.9 forces the SpMSpV branch,
        // threshold 0.1 forces the SpMV-style branch. Both must equal the
        // pure sparse path bit-for-bit, threaded or not, and the counted
        // entry point (known entry count, no fill allreduce) must agree
        // and report the branch it took.
        let g = erdos_renyi_gnm(48, 140, 17);
        let n = g.num_vertices();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(19);
        let mut entries: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            if rng.random_bool(0.6) {
                entries.push((i, rng.random_range(0..n)));
            }
        }
        let x_serial = SparseVec::from_entries(n, entries);
        let a_serial = Pattern::from_graph(&g);
        let expected = serial::mxv_sparse(&a_serial, &x_serial, Mask::None, MinUsize);
        for p in [1usize, 4, 9] {
            for threshold in [0.1f64, 0.9] {
                for threads in [1usize, 4] {
                    let opts = DistOpts {
                        spmv_threshold: threshold,
                        kernel_threads: threads,
                        ..DistOpts::default()
                    };
                    let out = run_spmd(p, |c| {
                        let grid = Grid2d::square(p);
                        let layout = VecLayout::new(n, grid);
                        let a = DistMat::from_graph(&g, grid, c.rank());
                        let (s, e) = layout.range_of_rank(c.rank());
                        let local: Vec<(usize, usize)> = x_serial
                            .entries()
                            .iter()
                            .copied()
                            .filter(|&(g, _)| g >= s && g < e)
                            .collect();
                        let x = DistSpVec::from_local_entries(layout, c.rank(), local);
                        let y = dist_mxv(c, &a, &x, DistMask::None, MinUsize, &opts);
                        let nvals = x_serial.nvals();
                        let (z, dense) =
                            dist_mxv_counted(c, &a, &x, nvals, DistMask::None, MinUsize, &opts);
                        (y.to_serial(c), z.to_serial(c), dense)
                    })
                    .unwrap();
                    for (y, z, dense) in out {
                        let at = format!("p={p} threshold={threshold} threads={threads}");
                        assert_eq!(y, expected, "{at}");
                        assert_eq!(z, expected, "{at}");
                        assert_eq!(dense, threshold < 0.5, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn mxv_sparse_empty_input() {
        let g = path_graph(20);
        let x = SparseVec::empty(20);
        check_mxv_sparse(&g, &x, DistOpts::default());
    }

    #[test]
    fn mxv_sparse_single_entry() {
        let g = path_graph(20);
        let x = SparseVec::from_entries(20, vec![(10, 3)]);
        check_mxv_sparse(&g, &x, DistOpts::default());
    }

    #[test]
    fn extract_matches_serial() {
        let n = 80;
        let src_global: Vec<usize> = (0..n).map(|g| g * 7 % 64).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        // Skewed request pattern: most requests hit low indices (as parent
        // pointers do after conditional hooking).
        let all_requests: Vec<Vec<usize>> = (0..16)
            .map(|_| (0..30).map(|_| rng.random_range(0..n) / 3).collect())
            .collect();
        for p in GRIDS {
            for opts in [DistOpts::default(), DistOpts::naive()] {
                let out = run_spmd(p, |c| {
                    let layout = VecLayout::new(n, Grid2d::square(p));
                    let src = DistVec::from_global(layout, c.rank(), &src_global);
                    let (vals, _) = dist_extract(c, &src, &all_requests[c.rank()], &opts);
                    vals
                })
                .unwrap();
                for (r, vals) in out.iter().enumerate() {
                    let expected = serial::extract(&src_global, &all_requests[r]);
                    assert_eq!(vals, &expected, "p={p} rank={r}");
                }
            }
        }
    }

    #[test]
    fn extract_hot_rank_broadcasts() {
        let n = 64;
        let p = 16;
        let src_global: Vec<usize> = (0..n).collect();
        let out = run_spmd(p, |c| {
            let layout = VecLayout::new(n, Grid2d::square(p));
            let src = DistVec::from_global(layout, c.rank(), &src_global);
            // Everyone hammers index 0 — its owner becomes hot.
            let reqs = vec![0usize; 40];
            let opts = DistOpts {
                hot_threshold: 2.0,
                ..DistOpts::default()
            };
            let (vals, stats) = dist_extract(c, &src, &reqs, &opts);
            assert!(vals.iter().all(|&v| v == 0));
            stats
        })
        .unwrap();
        let owner0 = out.iter().filter(|s| s.did_broadcast).count();
        assert_eq!(owner0, 1, "exactly the owner of index 0 broadcasts");
        // The broadcasting owner answers no point-to-point requests.
        assert!(out
            .iter()
            .all(|s| !s.did_broadcast || s.received_requests == 0));
    }

    #[test]
    fn assign_matches_serial_with_duplicates() {
        let n = 60;
        let init: Vec<usize> = vec![usize::MAX; n];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        let all_updates: Vec<Vec<(usize, usize)>> = (0..16)
            .map(|_| {
                (0..25)
                    .map(|_| (rng.random_range(0..n), rng.random_range(0..1000)))
                    .collect()
            })
            .collect();
        for p in GRIDS {
            // Serial reference: the first p ranks' updates, min-combined.
            let mut expected = init.clone();
            let flat: Vec<(usize, usize)> = all_updates[..p].iter().flatten().copied().collect();
            serial::assign(&mut expected, &flat, MinUsize);
            let out = run_spmd(p, |c| {
                let layout = VecLayout::new(n, Grid2d::square(p));
                let mut dst = DistVec::from_global(layout, c.rank(), &init);
                dist_assign(
                    c,
                    &mut dst,
                    &all_updates[c.rank()],
                    MinUsize,
                    Accum::Replace,
                    &DistOpts::default(),
                );
                dst.to_global(c)
            })
            .unwrap();
            for got in out {
                assert_eq!(got, expected, "p={p}");
            }
        }
    }

    #[test]
    fn fold_accum_never_raises_while_replace_can() {
        // Every update targets a value it exceeds. Folding through `min`
        // keeps the stored values; replace writes the merged update, which
        // raises them (LACC's unconditional hook relies on that). Both the
        // combining and the naive exchange fold at the owner.
        let n = 40;
        let init: Vec<usize> = (0..n).map(|g| g / 2).collect();
        for opts in [DistOpts::default(), DistOpts::naive()] {
            for p in GRIDS {
                for (accum, raised) in [(Accum::Fold, false), (Accum::Replace, true)] {
                    let out = run_spmd(p, |c| {
                        let layout = VecLayout::new(n, Grid2d::square(p));
                        let mut dst = DistVec::from_global(layout, c.rank(), &init);
                        let upds: Vec<(usize, usize)> =
                            (0..n).map(|g| (g, g + 1 + c.rank())).collect();
                        let (changed, _) = dist_assign(c, &mut dst, &upds, MinUsize, accum, &opts);
                        (changed, dst.to_global(c))
                    })
                    .unwrap();
                    let changed: usize = out.iter().map(|o| o.0).sum();
                    let want: Vec<usize> = if raised {
                        (0..n).map(|g| g + 1).collect()
                    } else {
                        init.clone()
                    };
                    assert_eq!(out[0].1, want, "p={p} {accum:?}");
                    assert_eq!(changed, if raised { n } else { 0 }, "p={p} {accum:?}");
                }
            }
        }
    }

    #[test]
    fn assign_empty_updates_is_noop() {
        let n = 10;
        let init: Vec<usize> = (0..n).collect();
        let out = run_spmd(4, |c| {
            let layout = VecLayout::new(n, Grid2d::square(4));
            let mut dst = DistVec::from_global(layout, c.rank(), &init);
            let none: &[(usize, usize)] = &[];
            dist_assign(
                c,
                &mut dst,
                none,
                MinUsize,
                Accum::Replace,
                &DistOpts::default(),
            );
            dst.to_global(c)
        })
        .unwrap();
        assert_eq!(out[0], init);
    }

    #[test]
    fn combined_words_zero_when_off_and_monotone_when_on() {
        // The in-flight counter stays zero on every non-combining path
        // and grows with cross-rank duplication when combining is on:
        // every rank requesting the same ids gives the hypercube hops
        // more to merge.
        let combined = |copies: usize, opts: DistOpts| -> Vec<u64> {
            let n = 64;
            let p = 4;
            run_spmd(p, move |c| {
                let layout = VecLayout::new(n, Grid2d::square(p));
                let src = DistVec::from_fn(layout, c.rank(), |g| g * 3 % n);
                let reqs: Vec<usize> = (0..n)
                    .step_by(2)
                    .flat_map(|g| std::iter::repeat_n(g, copies))
                    .collect();
                let opts = DistOpts {
                    hot_bcast: false,
                    ..opts
                };
                let _ = dist_extract(c, &src, &reqs, &opts);
                let mut dst = DistVec::from_fn(layout, c.rank(), |_| usize::MAX);
                let upds: Vec<(usize, usize)> = reqs.iter().map(|&g| (g, g + c.rank())).collect();
                dist_assign(c, &mut dst, &upds, MinUsize, Accum::Replace, &opts);
                c.snapshot().combined_words
            })
            .unwrap()
        };
        for w in combined(4, DistOpts::naive()) {
            assert_eq!(w, 0, "naive path never combines");
        }
        let off = DistOpts {
            combine_in_flight: false,
            ..DistOpts::optimized()
        };
        for w in combined(4, off) {
            assert_eq!(w, 0, "flag off pins the counter at zero");
        }
        let once = combined(1, DistOpts::optimized());
        for (rank, &w) in once.iter().enumerate() {
            assert!(w > 0, "rank {rank}: identical cross-rank requests merge");
        }
    }

    #[test]
    fn posted_ops_match_blocking_and_refund_overlap() {
        // dist_mxv_start / dist_extract_start run eagerly: bit-identical
        // results to the blocking calls, and with overlap on the compute
        // charged between post and wait earns a positive clock refund.
        let g = erdos_renyi_gnm(48, 140, 23);
        let n = g.num_vertices();
        let p = 4;
        let out = dmsim::run_spmd_with_model(p, dmsim::EDISON.lacc_model(), |c| {
            let grid = Grid2d::square(p);
            let layout = VecLayout::new(n, grid);
            let a = DistMat::from_graph(&g, grid, c.rank());
            let (s, e) = layout.range_of_rank(c.rank());
            let local: Vec<(usize, usize)> =
                (s..e).filter(|v| v % 2 == 0).map(|v| (v, v)).collect();
            let x = DistSpVec::from_local_entries(layout, c.rank(), local);
            let opts = DistOpts::optimized();
            let blocking = dist_mxv(c, &a, &x, DistMask::None, MinUsize, &opts);
            let h = dist_mxv_start(c, &a, &x, DistMask::None, MinUsize, &opts);
            c.charge_compute(10_000_000);
            let posted = h.wait(c);
            assert_eq!(posted.entries(), blocking.entries());

            let src = DistVec::from_fn(layout, c.rank(), |g| g * 3 % n);
            let reqs: Vec<usize> = (s..e).map(|v| v * 7 % n).collect();
            let (vb, _) = dist_extract(c, &src, &reqs, &opts);
            let h2 = dist_extract_start(c, &src, &reqs, &opts);
            c.charge_compute(10_000_000);
            let (vp, _) = h2.wait(c);
            assert_eq!(vp, vb);
            c.snapshot().overlap_hidden_s
        })
        .unwrap();
        for hidden in out {
            assert!(hidden > 0.0, "posted exchanges refund against compute");
        }
    }

    #[test]
    fn posted_ops_inert_when_overlap_off() {
        // With DistOpts::overlap off the handles still deliver identical
        // values but never refund the clock.
        let p = 4;
        let n = 64;
        let out = dmsim::run_spmd_with_model(p, dmsim::EDISON.lacc_model(), |c| {
            let layout = VecLayout::new(n, Grid2d::square(p));
            let opts = DistOpts {
                overlap: false,
                ..DistOpts::optimized()
            };
            let src = DistVec::from_fn(layout, c.rank(), |g| g * 3 % n);
            let reqs: Vec<usize> = (0..32).map(|k| (k * 5 + c.rank()) % n).collect();
            let (vb, _) = dist_extract(c, &src, &reqs, &opts);
            let h = dist_extract_start(c, &src, &reqs, &opts);
            c.charge_compute(10_000_000);
            let (vp, _) = h.wait(c);
            assert_eq!(vp, vb);
            c.snapshot().overlap_hidden_s
        })
        .unwrap();
        for hidden in out {
            assert_eq!(hidden, 0.0, "flag off keeps the clock uncredited");
        }
    }

    #[test]
    fn planned_extract_matches_unplanned() {
        // starcheck reuses one request plan for two extracts; both must
        // match independent dist_extract calls on the same requests.
        let n = 72;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(47);
        let all_requests: Vec<Vec<usize>> = (0..16)
            .map(|_| (0..40).map(|_| rng.random_range(0..n) / 2).collect())
            .collect();
        for p in GRIDS {
            for opts in [DistOpts::optimized(), DistOpts::naive()] {
                let out = run_spmd(p, |c| {
                    let layout = VecLayout::new(n, Grid2d::square(p));
                    let a = DistVec::from_fn(layout, c.rank(), |g| g * 5 % n);
                    let b = DistVec::from_fn(layout, c.rank(), |g| (g % 7 == 0) as usize);
                    let reqs = &all_requests[c.rank()];
                    let plan = plan_requests(c, a.layout(), reqs);
                    let (pa, _) = dist_extract_planned(c, &a, &plan, &opts);
                    let (pb, _) = dist_extract_planned(c, &b, &plan, &opts);
                    let (ua, _) = dist_extract(c, &a, reqs, &opts);
                    let (ub, _) = dist_extract(c, &b, reqs, &opts);
                    (pa, pb, ua, ub)
                })
                .unwrap();
                for (r, (pa, pb, ua, ub)) in out.into_iter().enumerate() {
                    assert_eq!(pa, ua, "p={p} rank={r}");
                    assert_eq!(pb, ub, "p={p} rank={r}");
                }
            }
        }
    }

    /// Packs a bool slice into bitmap words.
    fn pack(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (k, &b) in bits.iter().enumerate() {
            words[k / 64] |= (b as u64) << (k % 64);
        }
        words
    }

    #[test]
    fn set_bits_respects_range_and_word_edges() {
        let flags: Vec<bool> = (0..200).map(|k| k % 7 == 0 || k == 63 || k == 64).collect();
        let words = pack(&flags);
        for (lo, hi) in [(0, 200), (5, 5), (63, 65), (64, 128), (1, 199), (70, 130)] {
            let got: Vec<usize> = set_bits(&words, lo, hi).collect();
            let want: Vec<usize> = (lo..hi).filter(|&k| flags[k]).collect();
            assert_eq!(got, want, "{lo}..{hi}");
            assert!(words_spanned(lo, hi) <= (hi - lo).div_ceil(64) as u64 + 1);
        }
        assert_eq!(words_spanned(5, 5), 0);
    }

    #[test]
    fn pull_and_push_kernels_agree_bitwise() {
        // Both directions of a masked multiply, threaded or not, with and
        // without a presence bitmap, must produce the unmasked kernel's
        // values on the masked rows and touch nothing else; each
        // direction's op count must not depend on the thread count.
        let g = rmat(9, 4, RmatParams::graph500(), 5);
        let n = g.num_vertices();
        let x = random_dense(n, 9);
        let grid = Grid2d::square(9);
        for rank in 0..9 {
            let a = DistMat::<usize>::from_graph(&g, grid, rank);
            let (cs, ce) = a.col_range();
            let (rs, re) = a.row_range();
            let h = re - rs;
            let x_block = &x[cs..ce];
            let present: Vec<bool> = (0..ce - cs).map(|c| c % 3 != 0).collect();
            let masked: Vec<bool> = (0..h).map(|lr| lr % 5 == 0 || lr > h * 3 / 4).collect();
            let bits = pack(&masked);
            for pres in [None, Some(&present[..])] {
                let mut ops_at_one = (0, 0);
                for threads in [1usize, 2, 4] {
                    let all =
                        local_multiply_block(&a, x_block, pres, RowSel::All, MinUsize, threads);
                    let push = local_multiply_block(
                        &a,
                        x_block,
                        pres,
                        RowSel::Push(&bits),
                        MinUsize,
                        threads,
                    );
                    let pull = local_multiply_block(
                        &a,
                        x_block,
                        pres,
                        RowSel::Pull(&bits),
                        MinUsize,
                        threads,
                    );
                    for (lr, &kept) in masked.iter().enumerate() {
                        let want = if kept {
                            (all.0[lr], all.1[lr])
                        } else {
                            (usize::MAX, false)
                        };
                        assert_eq!((push.0[lr], push.1[lr]), want, "push rank={rank} row={lr}");
                        assert_eq!((pull.0[lr], pull.1[lr]), want, "pull rank={rank} row={lr}");
                    }
                    if threads == 1 {
                        ops_at_one = (push.2, pull.2);
                    }
                    assert_eq!((push.2, pull.2), ops_at_one, "threads={threads}");
                }
            }
            // The per-entry kernel's push agrees with the densified pull.
            let gathered: Vec<(usize, usize)> = (cs..ce).step_by(2).map(|c| (c, x[c])).collect();
            for threads in [1usize, 4] {
                let push = local_multiply_entries(
                    a.local(),
                    cs,
                    &gathered,
                    RowSel::Push(&bits),
                    MinUsize,
                    threads,
                );
                let pull =
                    multiply_densified(&a, &gathered, RowSel::Pull(&bits), MinUsize, threads);
                let mut push_rows = push.1.clone();
                push_rows.sort_unstable();
                assert_eq!(push_rows, pull.1, "rank={rank} threads={threads}");
                assert!(push_rows.iter().all(|&lr| masked[lr]));
                for &lr in &push_rows {
                    assert_eq!(push.0[lr], pull.0[lr]);
                }
            }
        }
    }

    /// One traced `dist_mxv_dense` at `p` ranks: per rank, the number of
    /// `reduce_scatter` spans it opened, the messages it sent, and the
    /// assembled result.
    fn traced_dense_mxv(
        g: &CsrGraph,
        p: usize,
        mask_global: Option<&[bool]>,
    ) -> Vec<(usize, u64, SparseVec<usize>)> {
        let n = g.num_vertices();
        let x_global = random_dense(n, 3);
        let sink = dmsim::TraceSink::new(dmsim::TraceLevel::Collectives);
        let out = dmsim::run_spmd_traced(p, dmsim::MachineModel::free(), Some(&sink), |c| {
            let grid = Grid2d::square(p);
            let layout = VecLayout::new(n, grid);
            let a = DistMat::from_graph(g, grid, c.rank());
            let x = DistVec::from_global(layout, c.rank(), &x_global);
            let mv = mask_global.map(|m| DistVec::from_global(layout, c.rank(), m));
            let mask = mv.as_ref().map_or(DistMask::None, DistMask::Keep);
            let before = c.snapshot().messages_sent;
            let y = dist_mxv_dense(c, &a, &x, mask, MinUsize, &DistOpts::default());
            let sent = c.snapshot().messages_sent - before;
            (sent, y.to_serial(c))
        })
        .unwrap();
        let mut reduces = vec![0usize; p];
        for t in sink.rank_traces() {
            reduces[t.rank] = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::ReduceScatter)
                .count();
        }
        out.into_iter()
            .zip(reduces)
            .map(|((sent, y), r)| (r, sent, y))
            .collect()
    }

    #[test]
    fn all_false_mask_skips_reduce_and_transpose() {
        // Against the unmasked call, an all-false mask leaves only the
        // column gather and the mask exchange on the wire: no reduce, and
        // no transpose message.
        let g = rmat(7, 4, RmatParams::graph500(), 9);
        let n = g.num_vertices();
        let none = vec![false; n];
        for p in [4usize, 9, 16] {
            let grid = Grid2d::square(p);
            let q = grid.rows() as u64;
            for (rank, (reduces, _, y)) in traced_dense_mxv(&g, p, None).into_iter().enumerate() {
                assert_eq!(reduces, 1, "p={p} rank={rank}: unmasked call reduces");
                assert!(y.nvals() > 0);
            }
            let masked = traced_dense_mxv(&g, p, Some(&none));
            for (rank, (reduces, sent, y)) in masked.into_iter().enumerate() {
                let (i, j) = grid.coords_of(rank);
                assert_eq!(reduces, 0, "p={p} rank={rank}: no reduce_scatter");
                // Column gather + mask allgather + the mask hop off the
                // diagonal; a transpose message would be one more.
                let expect = (q - 1) + (q - 1) + (i != j) as u64;
                assert_eq!(sent, expect, "p={p} rank={rank}: messages");
                assert_eq!(y.nvals(), 0);
            }
        }
    }

    #[test]
    fn mask_in_one_row_block_reduces_only_there() {
        let g = rmat(7, 4, RmatParams::graph500(), 9);
        let n = g.num_vertices();
        let a_serial = Pattern::from_graph(&g);
        let x_global = random_dense(n, 3);
        for p in [4usize, 9, 16] {
            let grid = Grid2d::square(p);
            let (s, e) = block_range(n, grid.rows(), 0);
            let mask: Vec<bool> = (0..n).map(|v| v >= s && v < e && v % 2 == 0).collect();
            let expected = serial::mxv_dense(&a_serial, &x_global, Mask::Keep(&mask), MinUsize);
            for (rank, (reduces, _, y)) in
                traced_dense_mxv(&g, p, Some(&mask)).into_iter().enumerate()
            {
                let (i, _) = grid.coords_of(rank);
                assert_eq!(reduces, (i == 0) as usize, "p={p} rank={rank}");
                assert_eq!(y, expected, "p={p} rank={rank}");
            }
        }
    }
}
