//! The benchmark's workloads: which graph, on how many ranks, and (for
//! serving) which update/query stream.

use lacc_graph::generators::{metagenome_graph, rmat, RmatParams};
use lacc_graph::CsrGraph;
use lacc_serving::WorkloadCfg;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Graph500 RMAT, scale 16, edge factor 16, p = 16: `mxv`-heavy.
    RmatS16,
    /// 300 K-vertex metagenome path graph, p = 16: `extract`/`assign`-heavy.
    Metagenome300k,
    /// Incremental service over RMAT scale 15, edge factor 4, p = 4.
    ServeRmatS15,
}

impl std::str::FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "rmat-s16" => Ok(Workload::RmatS16),
            "metagenome-300k" => Ok(Workload::Metagenome300k),
            "serve-rmat-s15" => Ok(Workload::ServeRmatS15),
            other => Err(format!("unknown workload {other}")),
        }
    }
}

impl Workload {
    /// Simulated ranks of every `lacc::run` in the workload.
    pub fn ranks(self) -> usize {
        match self {
            Workload::RmatS16 | Workload::Metagenome300k => 16,
            Workload::ServeRmatS15 => lacc_serving::ServeOpts::default().ranks,
        }
    }

    pub fn is_serving(self) -> bool {
        self == Workload::ServeRmatS15
    }

    /// The input graph for `seed` (the bootstrap graph when serving).
    pub fn generate(self, seed: u64) -> CsrGraph {
        match self {
            Workload::RmatS16 => rmat(16, 16, RmatParams::graph500(), seed),
            Workload::Metagenome300k => metagenome_graph(300_000, 7, 0.005, seed),
            Workload::ServeRmatS15 => rmat(15, 4, RmatParams::graph500(), seed),
        }
    }
}

/// The serving client: one closed-loop client sending 96 insert batches,
/// each followed by a query burst; every 16th batch also deletes an edge,
/// which forces a full rebuild.
pub fn serve_cfg(seed: u64) -> WorkloadCfg {
    WorkloadCfg {
        batches: 96,
        batch_size: 1024,
        queries_per_batch: 4096,
        delete_every: 16,
        seed,
    }
}
