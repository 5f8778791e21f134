//! Serial vs intra-rank-parallel local kernel timings.
//!
//! Measures `mxv_dense` / `mxv_sparse` against their row-split /
//! owner-partitioned parallel variants on Graph500 RMAT matrices
//! (scales 14–16 by default), at both index widths (`u32` and the
//! default machine-word width, reported as `u64`), verifying in the
//! same run that every parallel output is bit-identical to the serial
//! one and that the narrow-width outputs match the wide-width outputs.
//! Timings go to `BENCH_kernels.json` at the workspace root.
//!
//! Each sample also records `bytes_processed`: the index bytes the
//! kernel scans (touched nonzeros × index size), which is the quantity
//! the narrow layout halves.
//!
//! The thread counts swept are 1, 2 and 4 regardless of the host — a
//! single-core machine will (honestly) show ≈1× speedups; the JSON
//! records `host_cores` so readers can tell. `LACC_BENCH_SCALES` (comma
//! separated) overrides the scale list, and `LACC_BENCH_ASSERT=1`
//! turns the ≥0.9× parallel-speedup floor into a hard assert on
//! multi-core hosts.

use gblas::serial::{self, CsrMirror, Pattern, SparseVec};
use gblas::{Mask, MinUsize};
use lacc_graph::generators::{rmat, RmatParams};
use lacc_graph::{CsrGraph, Idx};
use std::io::Write;
use std::time::Instant;

const THREADS: [usize; 3] = [1, 2, 4];

struct Sample {
    scale: u32,
    kernel: &'static str,
    width: &'static str,
    threads: usize,
    best_s: f64,
    bytes_processed: u64,
    speedup_vs_serial: f64,
}

/// Best-of-`reps` wall time of `f`, which must return something cheap to
/// compare (keeps the optimizer from deleting the work).
fn time_best<T, F: FnMut() -> T>(reps: usize, mut f: F) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 0..reps {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, out)
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

fn scales() -> Vec<u32> {
    match std::env::var("LACC_BENCH_SCALES") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("LACC_BENCH_SCALES: bad scale"))
            .collect(),
        Err(_) => vec![14, 15, 16],
    }
}

/// Width-erased sparse output, for cross-width identity asserts.
type WideEntries = Vec<(usize, usize)>;

fn widened<I: Idx>(v: &SparseVec<usize, I>) -> WideEntries {
    v.entries().iter().map(|&(i, t)| (i.idx(), t)).collect()
}

/// Times every kernel × thread-count combination at one index width and
/// returns the (widened) serial dense and sparse outputs so the caller
/// can assert they agree across widths.
fn bench_width<I: Idx>(
    scale: u32,
    reps: usize,
    g: &CsrGraph<I>,
    width: &'static str,
    samples: &mut Vec<Sample>,
) -> (WideEntries, WideEntries) {
    let n = g.num_vertices();
    let a = Pattern::from_graph(g);
    let mirror: CsrMirror<I> = a.csr_mirror();
    let idx_bytes = I::BYTES as u64;

    // Dense input: the SpMV case (early LACC iterations). Every stored
    // index is read exactly once.
    let x: Vec<usize> = (0..n).map(|v| v.wrapping_mul(2654435761) % n).collect();
    let dense_bytes = a.nnz() as u64 * idx_bytes;
    let (serial_s, y_serial) = time_best(reps, || serial::mxv_dense(&a, &x, Mask::None, MinUsize));
    for t in THREADS {
        let (par_s, y_par) = time_best(reps, || {
            serial::mxv_dense_par(&mirror, &x, Mask::None, MinUsize, t)
        });
        assert_eq!(
            y_par, y_serial,
            "mxv_dense_par(t={t}, {width}) diverged at scale {scale}"
        );
        samples.push(Sample {
            scale,
            kernel: "mxv_dense",
            width,
            threads: t,
            best_s: par_s,
            bytes_processed: dense_bytes,
            speedup_vs_serial: serial_s / par_s,
        });
        eprintln!(
            "  mxv_dense   {width} t={t}: {:.2} ms ({:.2}x vs serial {:.2} ms)",
            par_s * 1e3,
            serial_s / par_s,
            serial_s * 1e3
        );
    }

    // Sparse input at 10% fill: the SpMSpV case (late iterations). Only
    // the columns selected by the input vector are scanned.
    let entries: Vec<(I, usize)> = (0..n)
        .step_by(10)
        .map(|v| (I::from_usize(v), x[v]))
        .collect();
    let xs = SparseVec::from_entries(n, entries);
    let sparse_bytes = xs
        .entries()
        .iter()
        .map(|&(c, _)| a.col(c.idx()).len() as u64)
        .sum::<u64>()
        * idx_bytes;
    let (sp_serial_s, ys_serial) =
        time_best(reps, || serial::mxv_sparse(&a, &xs, Mask::None, MinUsize));
    for t in THREADS {
        let (par_s, ys_par) = time_best(reps, || {
            serial::mxv_sparse_par(&a, &xs, Mask::None, MinUsize, t)
        });
        assert_eq!(
            ys_par, ys_serial,
            "mxv_sparse_par(t={t}, {width}) diverged at scale {scale}"
        );
        samples.push(Sample {
            scale,
            kernel: "mxv_sparse",
            width,
            threads: t,
            best_s: par_s,
            bytes_processed: sparse_bytes,
            speedup_vs_serial: sp_serial_s / par_s,
        });
        eprintln!(
            "  mxv_sparse  {width} t={t}: {:.2} ms ({:.2}x vs serial {:.2} ms)",
            par_s * 1e3,
            sp_serial_s / par_s,
            sp_serial_s * 1e3
        );
    }

    (widened(&y_serial), widened(&ys_serial))
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut samples: Vec<Sample> = Vec::new();

    for scale in scales() {
        let g = rmat(scale, 16, RmatParams::graph500(), 7);
        eprintln!(
            "[kernels] scale {scale}: n={} nnz={}",
            g.num_vertices(),
            g.num_directed_edges()
        );
        let reps = if scale >= 16 { 5 } else { 9 };

        let (yd_wide, ys_wide) = bench_width(scale, reps, &g, "u64", &mut samples);
        let g32: CsrGraph<u32> = g.try_narrow().expect("bench scales fit in u32");
        let (yd_narrow, ys_narrow) = bench_width(scale, reps, &g32, "u32", &mut samples);
        assert_eq!(
            yd_narrow, yd_wide,
            "u32 mxv_dense output diverged from u64 at scale {scale}"
        );
        assert_eq!(
            ys_narrow, ys_wide,
            "u32 mxv_sparse output diverged from u64 at scale {scale}"
        );
    }

    // Regression floor: on a multi-core host the owner-partitioned
    // parallel SpMSpV must not be slower than ~serial. Opt-in so that
    // noisy CI machines can still regenerate the JSON without it.
    if std::env::var("LACC_BENCH_ASSERT").ok().as_deref() == Some("1") && cores >= 2 {
        for s in &samples {
            if s.kernel == "mxv_sparse" && s.threads >= 2 {
                assert!(
                    s.speedup_vs_serial >= 0.9,
                    "mxv_sparse regression: {} t={} width={} speedup {:.3} < 0.9",
                    s.scale,
                    s.threads,
                    s.width,
                    s.speedup_vs_serial
                );
            }
        }
        eprintln!("[kernels] speedup floor assert passed (cores={cores})");
    }

    // Hand-rolled JSON (the workspace carries no serde).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str("  \"verified_identical\": true,\n");
    json.push_str("  \"samples\": [\n");
    for (k, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scale\": {}, \"kernel\": \"{}\", \"width\": \"{}\", \"threads\": {}, \
             \"best_s\": {:.6}, \"bytes_processed\": {}, \"speedup_vs_serial\": {:.3}}}{}\n",
            s.scale,
            s.kernel,
            s.width,
            s.threads,
            s.best_s,
            s.bytes_processed,
            s.speedup_vs_serial,
            if k + 1 < samples.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = workspace_root().join("BENCH_kernels.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_kernels.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_kernels.json");
    println!("wrote {}", path.display());

    // Shared tracing flag (`--trace <path>` / `LACC_TRACE`): run a small
    // distributed LACC smoke whose kernels exercise the paths timed above
    // and emit its span trace alongside the timings.
    if let Some(trace) = lacc_bench::trace_config() {
        let scale = scales().iter().copied().min().unwrap_or(12).min(12);
        let g = rmat(scale, 16, RmatParams::graph500(), 7);
        let opts = lacc::LaccOpts {
            engine: lacc::EngineKind::Lacc,
            ..lacc::LaccOpts::default()
        };
        let cfg = lacc::RunConfig::new(4, lacc_bench::default_model())
            .with_opts(opts)
            .with_trace(trace.sink());
        lacc::run(&g, &cfg).expect("distributed LACC rank panicked");
        trace.finish();
    }
}
