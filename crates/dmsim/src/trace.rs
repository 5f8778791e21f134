//! Span-based tracing of the simulated machine.
//!
//! Every collective, every distributed GraphBLAS op, and every LACC step
//! opens a typed *span* on the simulated clock. A span records the rank it
//! ran on, its modeled start/end seconds, the 8-byte words moved while it
//! was open (sent + received, inclusive of nested spans), and the local
//! operations charged. Spans accumulate into a per-rank buffer inside
//! [`crate::Comm`] and drain into a shared [`TraceSink`] when the rank's
//! SPMD body returns; the sink can then export
//!
//! * **Chrome trace format** JSON ([`TraceSink::chrome_trace_json`]),
//!   loadable in `chrome://tracing` or Perfetto — one timeline row per
//!   rank, spans nested by modeled time, and
//! * an **aggregated report** ([`TraceSink::report`]): per-kind totals,
//!   per-rank communication volume, and the load-imbalance ratio
//!   (max / mean rank time).
//!
//! Tracing is zero-cost when disabled: with [`TraceLevel::Off`] (or no
//! sink at all) a span open/close is a clock read and an enum compare —
//! no allocation, and nothing that touches the cost accounting, so
//! results and [`CostSnapshot`]s are bit-identical with tracing on or
//! off (property-tested in `tests/trace.rs`).

use crate::collectives::AllToAll;
use crate::cost::CostSnapshot;
use std::sync::{Arc, Mutex};

/// How much detail to record. Each level includes everything the previous
/// levels record: `Steps` ⊂ `Ops` ⊂ `Collectives`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the zero-cost fast path).
    #[default]
    Off,
    /// Algorithm steps only (LACC's cond-hook, uncond-hook, shortcut,
    /// starcheck).
    Steps,
    /// Steps plus distributed GraphBLAS ops (`mxv`, `assign`, `extract`).
    Ops,
    /// Everything, down to individual collectives.
    Collectives,
}

impl std::str::FromStr for TraceLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(TraceLevel::Off),
            "steps" => Ok(TraceLevel::Steps),
            "ops" => Ok(TraceLevel::Ops),
            "collectives" => Ok(TraceLevel::Collectives),
            other => Err(format!(
                "unknown trace level: {other} (expected off|steps|ops|collectives)"
            )),
        }
    }
}

/// Why a serving-layer epoch rebuild ran a full LACC recompute. Tags the
/// [`SpanKind::Rerun`] span so the aggregate report separates rebuild
/// causes (the rerun-policy invariant: deletions *always* rebuild,
/// staleness rebuilds are tunable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RerunReason {
    /// Initial full build when a service is constructed over a graph.
    Bootstrap,
    /// An edge deletion invalidated the incremental forest.
    Deletion,
    /// The incremental-hook staleness threshold was crossed.
    Staleness,
}

/// Which connected-components engine a run executes (the `--engine`
/// vocabulary). Tags the [`SpanKind::Engine`] span wrapping every
/// distributed run, so trace consumers can attribute spans (and the
/// aggregate report rows) to the algorithm that produced them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// LACC: Awerbuch–Shiloach in GraphBLAS, with Lemma-1 retirement.
    Lacc,
    /// FastSV: stochastic + aggressive hooking, no star machinery.
    Fastsv,
    /// Min-label propagation: one closed-neighborhood min per round.
    LabelProp,
}

impl EngineKind {
    /// Stable lowercase name (`lacc`, `fastsv`, `labelprop`) used in span
    /// names, CLI flags, and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Lacc => "lacc",
            EngineKind::Fastsv => "fastsv",
            EngineKind::LabelProp => "labelprop",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "lacc" => Ok(EngineKind::Lacc),
            "fastsv" => Ok(EngineKind::Fastsv),
            "labelprop" => Ok(EngineKind::LabelProp),
            other => Err(format!(
                "unknown engine: {other} (expected lacc, fastsv, labelprop)"
            )),
        }
    }
}

/// The typed span vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Full LACC recompute triggered by the serving layer, tagged with
    /// its cause (step-level, wraps a whole epoch rebuild).
    Rerun(RerunReason),
    /// Whole-run span tagged with the engine that executed it
    /// (step-level, wraps every iteration of one distributed run).
    Engine(EngineKind),
    /// LACC conditional hooking (step).
    CondHook,
    /// LACC unconditional hooking (step).
    UncondHook,
    /// LACC shortcutting (step).
    Shortcut,
    /// LACC star recomputation (step).
    Starcheck,
    /// Exchange time hidden behind overlapped local compute: recorded
    /// retroactively when a non-blocking handle or overlap window applies
    /// its clock credit (step-level; see [`crate::CommHandle`]).
    Overlap,
    /// Distributed matrix-vector multiply (op).
    Mxv,
    /// Distributed `assign` scatter (op).
    Assign,
    /// Distributed `extract` gather (op).
    Extract,
    /// Dissemination barrier (collective).
    Barrier,
    /// Binomial-tree broadcast (collective).
    Bcast,
    /// Ring allgather (collective).
    Allgatherv,
    /// Allreduce (collective).
    Allreduce,
    /// Reduce-scatter (collective).
    ReduceScatter,
    /// Gather to a root (collective).
    Gatherv,
    /// All-to-allv, tagged with the algorithm actually executed
    /// (collective).
    Alltoallv(AllToAll),
    /// Combining all-to-allv: hypercube store-and-forward with in-flight
    /// reduce-by-key merging at every hop (collective).
    AlltoallvCombining,
}

impl SpanKind {
    /// The coarsest [`TraceLevel`] that records this kind.
    pub fn level(self) -> TraceLevel {
        use SpanKind::*;
        match self {
            Rerun(_) | Engine(_) | CondHook | UncondHook | Shortcut | Starcheck | Overlap => {
                TraceLevel::Steps
            }
            Mxv | Assign | Extract => TraceLevel::Ops,
            _ => TraceLevel::Collectives,
        }
    }

    /// Stable name used in exports (`chrome://tracing` event names).
    pub fn name(self) -> &'static str {
        use SpanKind::*;
        match self {
            Rerun(RerunReason::Bootstrap) => "rerun(bootstrap)",
            Rerun(RerunReason::Deletion) => "rerun(deletion)",
            Rerun(RerunReason::Staleness) => "rerun(staleness)",
            Engine(EngineKind::Lacc) => "engine(lacc)",
            Engine(EngineKind::Fastsv) => "engine(fastsv)",
            Engine(EngineKind::LabelProp) => "engine(labelprop)",
            CondHook => "cond_hook",
            UncondHook => "uncond_hook",
            Shortcut => "shortcut",
            Starcheck => "starcheck",
            Overlap => "overlap",
            Mxv => "mxv",
            Assign => "assign",
            Extract => "extract",
            Barrier => "barrier",
            Bcast => "bcast",
            Allgatherv => "allgatherv",
            Allreduce => "allreduce",
            ReduceScatter => "reduce_scatter",
            Gatherv => "gatherv",
            Alltoallv(AllToAll::Direct) => "alltoallv(direct)",
            Alltoallv(AllToAll::Pairwise) => "alltoallv(pairwise)",
            Alltoallv(AllToAll::Hypercube) => "alltoallv(hypercube)",
            Alltoallv(AllToAll::Sparse) => "alltoallv(sparse)",
            AlltoallvCombining => "alltoallv(combining)",
        }
    }

    /// Chrome-trace category string.
    pub fn category(self) -> &'static str {
        match self.level() {
            TraceLevel::Steps => "step",
            TraceLevel::Ops => "op",
            _ => "collective",
        }
    }
}

/// One completed (or, transiently, still-open) span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// What the span measured.
    pub kind: SpanKind,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
    /// Modeled start time in seconds.
    pub start_s: f64,
    /// Modeled end time in seconds.
    pub end_s: f64,
    /// 8-byte words moved (sent + received) while the span was open,
    /// including nested spans.
    pub words: u64,
    /// Local operations charged while the span was open.
    pub ops: u64,
}

impl SpanRecord {
    /// Modeled duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Token returned by [`crate::Comm::span_open`]; hand it back to
/// [`crate::Comm::span_close`]. Deliberately neither `Copy` nor `Clone`,
/// so a span cannot be closed twice.
#[derive(Debug)]
pub struct Span {
    pub(crate) start_clock: f64,
    pub(crate) slot: Option<usize>,
}

/// Per-rank span buffer living inside [`crate::Comm`] (not shared; drains
/// into the [`TraceSink`] when the rank finishes).
#[derive(Debug, Default)]
pub(crate) struct TraceLocal {
    pub(crate) level: TraceLevel,
    spans: Vec<SpanRecord>,
    open_stack: Vec<usize>,
}

impl TraceLocal {
    pub(crate) fn new(level: TraceLevel) -> Self {
        TraceLocal {
            level,
            spans: Vec::new(),
            open_stack: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn enabled(&self, kind: SpanKind) -> bool {
        kind.level() <= self.level
    }

    /// Opens a recorded span; `words`/`ops` are the rank's counters at
    /// open time (the close computes deltas into them).
    pub(crate) fn open(&mut self, kind: SpanKind, start_s: f64, words: u64, ops: u64) -> usize {
        let slot = self.spans.len();
        self.spans.push(SpanRecord {
            kind,
            depth: self.open_stack.len() as u32,
            start_s,
            end_s: f64::NAN,
            words,
            ops,
        });
        self.open_stack.push(slot);
        slot
    }

    pub(crate) fn close(&mut self, slot: usize, end_s: f64, words: u64, ops: u64) {
        debug_assert_eq!(
            self.open_stack.last(),
            Some(&slot),
            "spans must close in LIFO order"
        );
        self.open_stack.pop();
        let rec = &mut self.spans[slot];
        rec.end_s = end_s;
        rec.words = words - rec.words;
        rec.ops = ops - rec.ops;
    }

    /// Records an already-closed span with an explicit interval, at the
    /// current nesting depth. Used for retroactive spans — the overlap
    /// credit covers an interval that is only known after the fact, so it
    /// cannot go through the open/close protocol.
    pub(crate) fn record_closed(&mut self, kind: SpanKind, start_s: f64, end_s: f64) {
        self.spans.push(SpanRecord {
            kind,
            depth: self.open_stack.len() as u32,
            start_s,
            end_s,
            words: 0,
            ops: 0,
        });
    }

    /// Drains the buffer, force-closing any span left open (its interval
    /// extends to the rank's final clock; counter deltas stay as-is).
    pub(crate) fn drain(&mut self, final_clock_s: f64) -> Vec<SpanRecord> {
        for &slot in &self.open_stack {
            self.spans[slot].end_s = final_clock_s;
            self.spans[slot].words = 0;
            self.spans[slot].ops = 0;
        }
        self.open_stack.clear();
        std::mem::take(&mut self.spans)
    }
}

/// Everything one rank contributed to a trace.
#[derive(Clone, Debug)]
pub struct RankTrace {
    /// The rank's id.
    pub rank: usize,
    /// Its spans, in open order.
    pub spans: Vec<SpanRecord>,
    /// Its final cost snapshot.
    pub snapshot: CostSnapshot,
}

/// Shared collector ranks drain their span buffers into.
///
/// Create one with [`TraceSink::new`], pass it to
/// [`crate::run_spmd_traced`], then export with
/// [`TraceSink::chrome_trace_json`] / [`TraceSink::report`]. A sink can
/// collect multiple runs; [`TraceSink::clear`] resets it.
#[derive(Debug)]
pub struct TraceSink {
    level: TraceLevel,
    ranks: Mutex<Vec<RankTrace>>,
    metadata: Mutex<Vec<(String, String)>>,
}

impl TraceSink {
    /// A new sink recording at `level`.
    pub fn new(level: TraceLevel) -> Arc<TraceSink> {
        Arc::new(TraceSink {
            level,
            ranks: Mutex::new(Vec::new()),
            metadata: Mutex::new(Vec::new()),
        })
    }

    /// The level ranks will record at.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    pub(crate) fn submit(&self, rt: RankTrace) {
        self.ranks.lock().expect("trace sink poisoned").push(rt);
    }

    /// Attaches a run-level key/value annotation, exported as a Chrome
    /// trace metadata (`ph:"M"`) event — how a run makes the engine that
    /// executed it visible in trace viewers.
    pub fn add_metadata(&self, key: &str, value: &str) {
        self.metadata
            .lock()
            .expect("trace sink poisoned")
            .push((key.to_string(), value.to_string()));
    }

    /// All run-level annotations recorded so far, in insertion order.
    pub fn metadata(&self) -> Vec<(String, String)> {
        self.metadata.lock().expect("trace sink poisoned").clone()
    }

    /// Discards everything collected so far.
    pub fn clear(&self) {
        self.ranks.lock().expect("trace sink poisoned").clear();
        self.metadata.lock().expect("trace sink poisoned").clear();
    }

    /// All collected per-rank traces, sorted by rank.
    pub fn rank_traces(&self) -> Vec<RankTrace> {
        let mut v = self.ranks.lock().expect("trace sink poisoned").clone();
        v.sort_by_key(|rt| rt.rank);
        v
    }

    /// Exports the trace in Chrome trace format (the `traceEvents` JSON
    /// object). Timestamps are modeled **microseconds**; each rank is a
    /// `tid` under `pid` 0.
    pub fn chrome_trace_json(&self) -> String {
        let ranks = self.rank_traces();
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (key, value) in self.metadata() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"metadata\",\"ph\":\"M\",\
                 \"pid\":0,\"tid\":0,\"args\":{{\"value\":\"{}\"}}}}",
                escape_json(&key),
                escape_json(&value)
            ));
        }
        for rt in &ranks {
            for sp in &rt.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                     \"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\
                     \"args\":{{\"words\":{},\"ops\":{},\"depth\":{}}}}}",
                    sp.kind.name(),
                    sp.kind.category(),
                    sp.start_s * 1e6,
                    sp.duration_s() * 1e6,
                    rt.rank,
                    sp.words,
                    sp.ops,
                    sp.depth
                ));
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Aggregates the collected spans into a [`TraceReport`].
    pub fn report(&self) -> TraceReport {
        let ranks = self.rank_traces();
        let p = ranks.len();
        let mut per_kind: Vec<KindTotals> = Vec::new();
        let mut rank_time_s = vec![0.0f64; p];
        let mut rank_words = vec![0u64; p];
        let mut combined_words = 0u64;
        let mut reruns = 0u64;
        let mut overlap_hidden_s = 0.0f64;
        for (i, rt) in ranks.iter().enumerate() {
            rank_time_s[i] = rt.snapshot.clock_s;
            rank_words[i] = rt.snapshot.words_sent + rt.snapshot.words_received;
            combined_words += rt.snapshot.combined_words;
            reruns += rt.snapshot.reruns;
            overlap_hidden_s += rt.snapshot.overlap_hidden_s;
            for sp in &rt.spans {
                let name = sp.kind.name();
                let entry = match per_kind.iter_mut().find(|k| k.name == name) {
                    Some(e) => e,
                    None => {
                        per_kind.push(KindTotals {
                            name,
                            category: sp.kind.category(),
                            count: 0,
                            time_s: 0.0,
                            words: 0,
                            ops: 0,
                        });
                        per_kind.last_mut().expect("just pushed")
                    }
                };
                entry.count += 1;
                entry.time_s += sp.duration_s();
                entry.words += sp.words;
                entry.ops += sp.ops;
            }
        }
        let max_t = rank_time_s.iter().copied().fold(0.0f64, f64::max);
        let mean_t = if p == 0 {
            0.0
        } else {
            rank_time_s.iter().sum::<f64>() / p as f64
        };
        TraceReport {
            p,
            per_kind,
            rank_time_s,
            rank_words,
            combined_words,
            reruns,
            overlap_hidden_s,
            load_imbalance: if mean_t > 0.0 { max_t / mean_t } else { 1.0 },
        }
    }
}

/// Minimal JSON string escaping for metadata keys/values (quotes,
/// backslashes, control characters).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Aggregate totals for one span kind, summed over all ranks.
#[derive(Clone, Debug)]
pub struct KindTotals {
    /// Span name (see [`SpanKind::name`]).
    pub name: &'static str,
    /// `step`, `op`, or `collective`.
    pub category: &'static str,
    /// Number of spans.
    pub count: u64,
    /// Summed modeled duration (rank-seconds; nested spans overlap their
    /// parents, so categories are not additive across levels).
    pub time_s: f64,
    /// Summed words moved.
    pub words: u64,
    /// Summed local operations charged.
    pub ops: u64,
}

/// The aggregated metrics view of a trace: per-kind totals, per-rank
/// communication volume, and the load-imbalance ratio. The per-iteration
/// `IterStats`/`StepBreakdown` records upstream are thin views over the
/// same span durations.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Ranks that contributed.
    pub p: usize,
    /// Per-kind totals (first-seen order).
    pub per_kind: Vec<KindTotals>,
    /// Final modeled clock per rank.
    pub rank_time_s: Vec<f64>,
    /// Words sent + received per rank (the comm-volume histogram).
    pub rank_words: Vec<u64>,
    /// Total words eliminated in flight by combining collectives, summed
    /// over all ranks (see [`CostSnapshot::combined_words`]).
    pub combined_words: u64,
    /// Full LACC recomputes observed (summed over snapshots; each rebuild
    /// is noted on rank 0 only, so a p-rank rebuild counts once — see
    /// [`CostSnapshot::reruns`]). The per-cause split is visible in the
    /// `rerun(...)` span kinds.
    pub reruns: u64,
    /// Exchange seconds hidden behind overlapped local compute, summed
    /// over all ranks (see [`CostSnapshot::overlap_hidden_s`]; already
    /// subtracted from the per-rank clocks).
    pub overlap_hidden_s: f64,
    /// `max(rank time) / mean(rank time)` — 1.0 is perfectly balanced.
    pub load_imbalance: f64,
}

impl TraceReport {
    /// Summed span time for one kind name, 0 if absent.
    pub fn kind_time_s(&self, name: &str) -> f64 {
        self.per_kind
            .iter()
            .find(|k| k.name == name)
            .map_or(0.0, |k| k.time_s)
    }

    /// Renders the report as a human-readable text block.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let max_t = self.rank_time_s.iter().copied().fold(0.0f64, f64::max);
        let _ = writeln!(
            s,
            "trace report: p={}, modeled makespan {:.3} ms, load imbalance {:.2}x (max/mean rank time)",
            self.p,
            max_t * 1e3,
            self.load_imbalance
        );
        if self.combined_words > 0 {
            let _ = writeln!(
                s,
                "  in-flight combining merged {} words at hypercube hops",
                self.combined_words
            );
        }
        if self.reruns > 0 {
            let _ = writeln!(
                s,
                "  full LACC reruns: {} (causes in the rerun(...) span rows)",
                self.reruns
            );
        }
        if self.overlap_hidden_s > 0.0 {
            let _ = writeln!(
                s,
                "  overlap hid {:.6} rank-sec of exchange time behind local compute",
                self.overlap_hidden_s
            );
        }
        let mut kinds = self.per_kind.clone();
        kinds.sort_by(|a, b| b.time_s.total_cmp(&a.time_s));
        if !kinds.is_empty() {
            let _ = writeln!(
                s,
                "  {:<22} {:>7} {:>12} {:>12} {:>12}",
                "span", "count", "rank-sec", "words", "ops"
            );
            for k in &kinds {
                let _ = writeln!(
                    s,
                    "  {:<22} {:>7} {:>12.6} {:>12} {:>12}",
                    k.name, k.count, k.time_s, k.words, k.ops
                );
            }
        }
        let max_w = self.rank_words.iter().copied().max().unwrap_or(0).max(1);
        let _ = writeln!(s, "  per-rank comm volume (words sent+received):");
        for (r, &w) in self.rank_words.iter().enumerate() {
            let bar = "#".repeat(((w as f64 / max_w as f64) * 40.0).round() as usize);
            let _ = writeln!(s, "    rank {r:>4}: {w:>12} |{bar}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_parse() {
        assert!(TraceLevel::Off < TraceLevel::Steps);
        assert!(TraceLevel::Steps < TraceLevel::Ops);
        assert!(TraceLevel::Ops < TraceLevel::Collectives);
        assert_eq!("steps".parse::<TraceLevel>().unwrap(), TraceLevel::Steps);
        assert_eq!(
            "collectives".parse::<TraceLevel>().unwrap(),
            TraceLevel::Collectives
        );
        assert!("verbose".parse::<TraceLevel>().is_err());
    }

    #[test]
    fn engine_kind_parses_and_displays() {
        for kind in [EngineKind::Lacc, EngineKind::Fastsv, EngineKind::LabelProp] {
            assert_eq!(kind.to_string().parse::<EngineKind>().unwrap(), kind);
        }
        assert_eq!(
            "labelprop".parse::<EngineKind>().unwrap(),
            EngineKind::LabelProp
        );
        for bad in ["auto", "dijkstra", ""] {
            let err = bad.parse::<EngineKind>().unwrap_err();
            assert!(err.contains("lacc, fastsv, labelprop"), "{err}");
        }
    }

    #[test]
    fn kind_levels_gate_recording() {
        let off = TraceLocal::new(TraceLevel::Off);
        assert!(!off.enabled(SpanKind::CondHook));
        assert!(!off.enabled(SpanKind::Bcast));
        let steps = TraceLocal::new(TraceLevel::Steps);
        assert!(steps.enabled(SpanKind::Starcheck));
        assert!(steps.enabled(SpanKind::Rerun(RerunReason::Deletion)));
        assert!(!steps.enabled(SpanKind::Extract));
        let all = TraceLocal::new(TraceLevel::Collectives);
        assert!(all.enabled(SpanKind::Alltoallv(AllToAll::Sparse)));
    }

    #[test]
    fn local_open_close_records_deltas() {
        let mut t = TraceLocal::new(TraceLevel::Collectives);
        let a = t.open(SpanKind::Extract, 1.0, 100, 10);
        let b = t.open(SpanKind::Bcast, 1.5, 120, 12);
        t.close(b, 2.0, 150, 15);
        t.close(a, 3.0, 200, 30);
        let spans = t.drain(3.0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].words, 30);
        assert_eq!(spans[0].words, 100);
        assert_eq!(spans[0].ops, 20);
        assert!((spans[0].duration_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn report_aggregates_and_imbalance() {
        let sink = TraceSink::new(TraceLevel::Collectives);
        for rank in 0..2 {
            sink.submit(RankTrace {
                rank,
                spans: vec![SpanRecord {
                    kind: SpanKind::Bcast,
                    depth: 0,
                    start_s: 0.0,
                    end_s: 1.0 + rank as f64,
                    words: 10,
                    ops: 1,
                }],
                snapshot: CostSnapshot {
                    clock_s: 1.0 + rank as f64,
                    words_sent: 10,
                    combined_words: 5,
                    // Rebuilds are noted on rank 0 only; the sum still
                    // reports both of them.
                    reruns: if rank == 0 { 2 } else { 0 },
                    ..Default::default()
                },
            });
        }
        let rep = sink.report();
        assert_eq!(rep.p, 2);
        assert_eq!(rep.per_kind.len(), 1);
        assert_eq!(rep.per_kind[0].count, 2);
        assert!((rep.per_kind[0].time_s - 3.0).abs() < 1e-12);
        // max 2.0 / mean 1.5
        assert!((rep.load_imbalance - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(rep.combined_words, 10);
        assert_eq!(rep.reruns, 2);
        assert!(rep.render().contains("bcast"));
        assert!(rep.render().contains("in-flight combining merged 10 words"));
        assert!(rep.render().contains("full LACC reruns: 2"));
        sink.clear();
        assert!(sink.rank_traces().is_empty());
    }
}
