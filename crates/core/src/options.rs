//! LACC configuration: the paper's optimizations as toggles, so the
//! ablation experiment can turn each one off.
//!
//! Construct options either directly (struct literal, for the preset
//! constructors and tests) or through [`LaccOpts::builder`], which
//! validates every numeric knob so callers such as the CLI cannot smuggle
//! out-of-range values into a run.

use dmsim::{AllToAll, EngineKind};
use gblas::dist::DistOpts;

/// Storage width for vertex indices and parent labels across the
/// distributed stack: graph blocks, parent/star vectors, and every wire
/// payload that carries an id or a label.
///
/// The narrow layout halves index memory traffic and wire bytes; it
/// requires the graph to fit in `u32` (checked up front — a too-large
/// graph is a descriptive error, never a silent truncation). The default
/// is `U32` unless the `wide-index` Cargo feature is enabled, which
/// flips the default to `U64` for deployments that routinely exceed
/// 4.29 billion vertices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexWidth {
    /// 32-bit indices and labels (graphs up to `u32::MAX` vertices).
    U32,
    /// 64-bit indices and labels (no practical size limit).
    U64,
}

impl Default for IndexWidth {
    fn default() -> Self {
        if cfg!(feature = "wide-index") {
            IndexWidth::U64
        } else {
            IndexWidth::U32
        }
    }
}

impl std::fmt::Display for IndexWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IndexWidth::U32 => "u32",
            IndexWidth::U64 => "u64",
        })
    }
}

impl std::str::FromStr for IndexWidth {
    type Err = OptsError;

    fn from_str(s: &str) -> Result<Self, OptsError> {
        match s {
            "u32" | "32" => Ok(IndexWidth::U32),
            "u64" | "64" => Ok(IndexWidth::U64),
            other => Err(OptsError::new(
                "index-width",
                format!("{other:?} is not one of u32, u64"),
            )),
        }
    }
}

/// Options controlling a LACC run.
#[derive(Clone, Copy, Debug)]
pub struct LaccOpts {
    /// Exploit Lemmas 1–2: track converged components, keep vectors sparse,
    /// and restrict each step to the Table I active subsets. Turning this
    /// off yields the "naive translation" dense-AS variant §IV-B warns
    /// about.
    pub use_sparsity: bool,
    /// When the active fraction is at least this, `mxv` takes the SpMV
    /// (dense-vector) path; below it, SpMSpV. Mirrors the internal dispatch
    /// of the paper's `GrB_mxv`.
    pub dense_threshold: f64,
    /// Communication options for the distributed primitives (§V-B).
    pub dist: DistOpts,
    /// Apply a random symmetric permutation before distributing the matrix
    /// (CombBLAS' load balancing).
    pub permute: bool,
    /// Seed for the load-balancing permutation.
    pub permute_seed: u64,
    /// Safety bound on iterations (AS converges in ≤ ~2·log₂ n).
    pub max_iters: usize,
    /// Distribute vectors cyclically instead of in blocks — the paper's
    /// §VII future-work layout. Balances the skewed `extract`/`assign`
    /// traffic at the price of world-wide gathers in `mxv`.
    pub cyclic_vectors: bool,
    /// Storage width of indices and labels (see [`IndexWidth`]).
    pub index_width: IndexWidth,
    /// Which connected-components engine runs (see [`crate::engine`]).
    /// Defaults to LACC, preserving bit-identity with the serial
    /// reference.
    pub engine: EngineKind,
}

impl Default for LaccOpts {
    fn default() -> Self {
        LaccOpts {
            use_sparsity: true,
            dense_threshold: 0.5,
            dist: DistOpts::default(),
            permute: true,
            permute_seed: 0xC0_FFEE,
            max_iters: 200,
            cyclic_vectors: false,
            index_width: IndexWidth::default(),
            engine: EngineKind::Lacc,
        }
    }
}

impl LaccOpts {
    /// A validating builder seeded with [`LaccOpts::default`].
    ///
    /// ```
    /// use lacc::LaccOpts;
    ///
    /// let opts = LaccOpts::builder()
    ///     .spmv_threshold(0.7)?
    ///     .kernel_threads(2)?
    ///     .permute(false)
    ///     .build();
    /// assert_eq!(opts.dist.spmv_threshold, 0.7);
    /// # Ok::<(), lacc::OptsError>(())
    /// ```
    pub fn builder() -> LaccOptsBuilder {
        LaccOptsBuilder {
            opts: LaccOpts::default(),
        }
    }

    /// The dense Awerbuch–Shiloach ablation: no converged-component
    /// tracking, always-dense vectors (what a direct translation of
    /// Algorithm 1 to linear algebra would do).
    pub fn dense_as() -> Self {
        LaccOpts {
            use_sparsity: false,
            dense_threshold: 0.0,
            ..Default::default()
        }
    }

    /// LACC with the naive communication stack (pairwise all-to-all, no
    /// hot-rank broadcast) — isolates the §V-B optimizations.
    pub fn naive_comm() -> Self {
        LaccOpts {
            dist: DistOpts::naive(),
            ..Default::default()
        }
    }

    /// LACC with cyclically distributed vectors (§VII future work).
    pub fn cyclic() -> Self {
        LaccOpts {
            cyclic_vectors: true,
            ..Default::default()
        }
    }

    /// The per-rank kernel thread count actually granted when `p` simulated
    /// ranks share this host: the configured
    /// [`DistOpts::kernel_threads`] request, clamped to
    /// `max(1, host_cores / p)` so the `p × threads` product never
    /// oversubscribes the machine (the simulator runs every rank
    /// concurrently).
    pub fn kernel_threads_for(&self, p: usize) -> usize {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        let cap = (cores / p.max(1)).max(1);
        self.dist.kernel_threads.max(1).min(cap)
    }
}

/// A rejected [`LaccOpts::builder`] setting: which knob, and why.
#[derive(Clone, Debug, PartialEq)]
pub struct OptsError {
    field: &'static str,
    message: String,
}

impl OptsError {
    pub(crate) fn new(field: &'static str, message: impl Into<String>) -> Self {
        OptsError {
            field,
            message: message.into(),
        }
    }

    /// The option name that failed validation (CLI flag spelling).
    pub fn field(&self) -> &'static str {
        self.field
    }
}

impl std::fmt::Display for OptsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}: {}", self.field, self.message)
    }
}

impl std::error::Error for OptsError {}

/// Validating builder for [`LaccOpts`] (see [`LaccOpts::builder`]).
///
/// Numeric setters are fallible and return [`OptsError`] on out-of-range
/// input, so they chain with `?`; boolean and seed setters cannot fail.
#[derive(Clone, Debug)]
pub struct LaccOptsBuilder {
    opts: LaccOpts,
}

impl LaccOptsBuilder {
    /// Enables or disables the Lemma 1–2 sparsity exploitation.
    pub fn use_sparsity(mut self, on: bool) -> Self {
        self.opts.use_sparsity = on;
        self
    }

    /// Active fraction at or above which conditional hooking takes the
    /// dense-vector `mxv` path. Must be a finite value in `0.0..=1.0`
    /// (`0.0` forces dense, anything above `1.0` could never trigger).
    pub fn dense_threshold(mut self, t: f64) -> Result<Self, OptsError> {
        if !t.is_finite() || !(0.0..=1.0).contains(&t) {
            return Err(OptsError::new(
                "dense-threshold",
                format!("{t} is not in 0.0..=1.0"),
            ));
        }
        self.opts.dense_threshold = t;
        Ok(self)
    }

    /// Measured-fill fraction at or above which `mxv` runs its SpMV-style
    /// local kernel. Must be a finite value in `0.0..=1.5` (above `1.0`
    /// means "never"; `1.5` is the conventional sentinel for that).
    pub fn spmv_threshold(mut self, t: f64) -> Result<Self, OptsError> {
        if !t.is_finite() || !(0.0..=1.5).contains(&t) {
            return Err(OptsError::new(
                "spmv-threshold",
                format!("{t} is not in 0.0..=1.5"),
            ));
        }
        self.opts.dist.spmv_threshold = t;
        Ok(self)
    }

    /// Worker threads for the local multiply kernels. Must be at least 1
    /// ([`crate::run`] additionally clamps to the host core budget via
    /// [`LaccOpts::kernel_threads_for`]).
    pub fn kernel_threads(mut self, t: usize) -> Result<Self, OptsError> {
        if t == 0 {
            return Err(OptsError::new("kernel-threads", "must be at least 1"));
        }
        self.opts.dist.kernel_threads = t;
        Ok(self)
    }

    /// Safety bound on AS iterations. Must be at least 1.
    pub fn max_iters(mut self, n: usize) -> Result<Self, OptsError> {
        if n == 0 {
            return Err(OptsError::new("max-iters", "must be at least 1"));
        }
        self.opts.max_iters = n;
        Ok(self)
    }

    /// Hot-rank broadcast threshold `h` (requests per chunk entry above
    /// which a rank broadcasts instead of answering point-to-point). Must
    /// be positive and not NaN; `f64::INFINITY` disables the fallback.
    pub fn hot_threshold(mut self, h: f64) -> Result<Self, OptsError> {
        if h.is_nan() || h <= 0.0 {
            return Err(OptsError::new(
                "hot-threshold",
                format!("{h} is not a positive threshold"),
            ));
        }
        self.opts.dist.hot_threshold = h;
        Ok(self)
    }

    /// Selects the all-to-all algorithm for irregular exchanges.
    pub fn alltoall(mut self, algo: AllToAll) -> Self {
        self.opts.dist.alltoall = algo;
        self
    }

    /// Enables or disables the hot-rank broadcast fallback.
    pub fn hot_bcast(mut self, on: bool) -> Self {
        self.opts.dist.hot_bcast = on;
        self
    }

    /// Applies (or skips) the load-balancing random permutation.
    pub fn permute(mut self, on: bool) -> Self {
        self.opts.permute = on;
        self
    }

    /// Seed for the load-balancing permutation.
    pub fn permute_seed(mut self, seed: u64) -> Self {
        self.opts.permute_seed = seed;
        self
    }

    /// Distributes vectors cyclically instead of in blocks.
    pub fn cyclic_vectors(mut self, on: bool) -> Self {
        self.opts.cyclic_vectors = on;
        self
    }

    /// Selects the index/label storage width. Width validation happens at
    /// run time against the actual graph (`u32` rejects graphs with more
    /// than `u32::MAX` vertices with a descriptive error).
    pub fn index_width(mut self, w: IndexWidth) -> Self {
        self.opts.index_width = w;
        self
    }

    /// Selects the connected-components engine.
    pub fn engine(mut self, e: EngineKind) -> Self {
        self.opts.engine = e;
        self
    }

    /// Enables or disables in-flight combining: `extract`/`assign`
    /// traffic merges cross-rank duplicates at the hypercube hops.
    pub fn combine_in_flight(mut self, on: bool) -> Self {
        self.opts.dist.combine_in_flight = on;
        self
    }

    /// Enables or disables fusing starcheck's two extracts into one
    /// combining exchange (effective only with `combine_in_flight`).
    pub fn fuse_starcheck(mut self, on: bool) -> Self {
        self.opts.dist.fuse_starcheck = on;
        self
    }

    /// Enables or disables compute/communication overlap: hot-path
    /// exchanges are posted non-blocking and the modeled clock is refunded
    /// for exchange time hidden behind independent local compute. Results
    /// and traffic are bit-identical either way (see
    /// [`gblas::dist::DistOpts::overlap`]).
    pub fn overlap(mut self, on: bool) -> Self {
        self.opts.dist.overlap = on;
        self
    }

    /// Finishes the builder. Infallible: every fallible setter already
    /// validated its value.
    pub fn build(self) -> LaccOpts {
        self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_optimized() {
        let o = LaccOpts::default();
        assert!(o.use_sparsity);
        assert!(o.dist.hot_bcast);
    }

    #[test]
    fn dense_as_disables_sparsity() {
        let o = LaccOpts::dense_as();
        assert!(!o.use_sparsity);
        assert_eq!(o.dense_threshold, 0.0);
    }

    #[test]
    fn naive_comm_keeps_sparsity() {
        let o = LaccOpts::naive_comm();
        assert!(o.use_sparsity);
        assert!(!o.dist.hot_bcast);
    }

    #[test]
    fn thread_budget_never_oversubscribes() {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        let mut o = LaccOpts::default();
        o.dist.kernel_threads = 1024;
        assert!(o.kernel_threads_for(1) <= cores);
        // With more ranks than cores every rank degrades to one thread.
        assert_eq!(o.kernel_threads_for(cores * 2), 1);
        // A serial request stays serial regardless of the host.
        o.dist.kernel_threads = 1;
        assert_eq!(o.kernel_threads_for(1), 1);
    }

    #[test]
    fn builder_accepts_in_range_values() {
        let o = LaccOpts::builder()
            .use_sparsity(false)
            .dense_threshold(0.25)
            .unwrap()
            .spmv_threshold(1.5)
            .unwrap()
            .kernel_threads(4)
            .unwrap()
            .max_iters(10)
            .unwrap()
            .hot_threshold(2.0)
            .unwrap()
            .alltoall(AllToAll::Pairwise)
            .hot_bcast(false)
            .permute(false)
            .permute_seed(7)
            .cyclic_vectors(true)
            .engine(EngineKind::Fastsv)
            .combine_in_flight(false)
            .fuse_starcheck(false)
            .overlap(false)
            .build();
        assert!(!o.use_sparsity);
        assert_eq!(o.dense_threshold, 0.25);
        assert_eq!(o.dist.spmv_threshold, 1.5);
        assert_eq!(o.dist.kernel_threads, 4);
        assert_eq!(o.max_iters, 10);
        assert_eq!(o.dist.hot_threshold, 2.0);
        assert_eq!(o.dist.alltoall, AllToAll::Pairwise);
        assert!(!o.dist.hot_bcast);
        assert!(!o.permute);
        assert_eq!(o.permute_seed, 7);
        assert!(o.cyclic_vectors);
        assert_eq!(o.engine, EngineKind::Fastsv);
        assert!(!o.dist.combine_in_flight);
        assert!(!o.dist.fuse_starcheck);
        assert!(!o.dist.overlap);
    }

    #[test]
    fn builder_rejects_out_of_range_values() {
        assert_eq!(
            LaccOpts::builder().spmv_threshold(1.6).unwrap_err().field(),
            "spmv-threshold"
        );
        assert!(LaccOpts::builder().spmv_threshold(-0.1).is_err());
        assert!(LaccOpts::builder().spmv_threshold(f64::NAN).is_err());
        assert!(LaccOpts::builder().dense_threshold(1.01).is_err());
        assert!(LaccOpts::builder().kernel_threads(0).is_err());
        assert!(LaccOpts::builder().max_iters(0).is_err());
        assert!(LaccOpts::builder().hot_threshold(0.0).is_err());
        assert!(LaccOpts::builder().hot_threshold(f64::NAN).is_err());
        // Infinity explicitly disables the fallback, so it is accepted.
        assert!(LaccOpts::builder().hot_threshold(f64::INFINITY).is_ok());
        let err = LaccOpts::builder().max_iters(0).unwrap_err();
        assert_eq!(err.to_string(), "invalid max-iters: must be at least 1");
    }

    #[test]
    fn index_width_parses_and_displays() {
        assert_eq!("u32".parse::<IndexWidth>().unwrap(), IndexWidth::U32);
        assert_eq!("64".parse::<IndexWidth>().unwrap(), IndexWidth::U64);
        assert_eq!(IndexWidth::U32.to_string(), "u32");
        assert_eq!(IndexWidth::U64.to_string(), "u64");
        let err = "u16".parse::<IndexWidth>().unwrap_err();
        assert_eq!(err.field(), "index-width");
        // The default follows the `wide-index` feature.
        let expect = if cfg!(feature = "wide-index") {
            IndexWidth::U64
        } else {
            IndexWidth::U32
        };
        assert_eq!(LaccOpts::default().index_width, expect);
        let o = LaccOpts::builder().index_width(IndexWidth::U64).build();
        assert_eq!(o.index_width, IndexWidth::U64);
    }

    #[test]
    fn naive_comm_disables_combining_and_overlap() {
        let o = LaccOpts::naive_comm();
        assert!(!o.dist.combine_in_flight);
        assert!(!o.dist.fuse_starcheck);
        assert!(!o.dist.overlap, "naive baseline runs strictly blocking");
        let d = LaccOpts::default();
        assert!(d.dist.combine_in_flight && d.dist.fuse_starcheck);
        assert!(d.dist.overlap, "overlap is part of the optimized default");
    }
}
