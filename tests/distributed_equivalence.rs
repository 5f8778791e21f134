//! Distributed-vs-serial equivalence across the configuration matrix.
//!
//! The strongest correctness statement in the workspace: with the
//! load-balancing permutation disabled, distributed LACC must produce a
//! parent vector *bit-identical* to serial LACC — for every grid size,
//! every all-to-all algorithm, and with the hot-rank broadcast on or off.

use dmsim::AllToAll;
use gblas::dist::DistOpts;
use lacc_suite::dmsim::{CORI_KNL, EDISON};
use lacc_suite::graph::generators::*;
use lacc_suite::graph::CsrGraph;
use lacc_suite::lacc::{lacc_serial, EngineKind, LaccOpts, RunConfig, RunOutput};

/// `lacc::run` in the positional shape the configuration matrix below
/// reads naturally in.
fn run_with(
    g: &CsrGraph,
    p: usize,
    model: lacc_suite::dmsim::MachineModel,
    opts: &LaccOpts,
) -> Result<RunOutput, lacc_suite::dmsim::DmsimError> {
    lacc_suite::lacc::run(g, &RunConfig::new(p, model).with_opts(*opts))
}

#[test]
fn bit_identical_across_comm_configs() {
    let g = community_graph(900, 45, 3.0, 1.4, 21);
    let base = LaccOpts {
        permute: false,
        engine: EngineKind::Lacc,
        ..LaccOpts::default()
    };
    let serial = lacc_serial(&g, &base);
    for p in [1, 4, 9, 16, 25] {
        for algo in [
            AllToAll::Direct,
            AllToAll::Pairwise,
            AllToAll::Hypercube,
            AllToAll::Sparse,
        ] {
            for hot in [false, true] {
                let opts = LaccOpts {
                    dist: DistOpts {
                        alltoall: algo,
                        hot_bcast: hot,
                        hot_threshold: 2.0,
                        ..DistOpts::default()
                    },
                    ..base
                };
                let run = run_with(&g, p, EDISON.lacc_model(), &opts).unwrap();
                assert_eq!(run.labels, serial.labels, "p={p} algo={algo:?} hot={hot}");
            }
        }
    }
}

#[test]
fn machine_model_does_not_change_results() {
    let g = rmat(8, 5, RmatParams::web(), 6);
    for engine in [EngineKind::Lacc, EngineKind::Fastsv] {
        let opts = LaccOpts {
            permute: false,
            engine,
            ..LaccOpts::default()
        };
        let a = run_with(&g, 9, EDISON.lacc_model(), &opts).unwrap();
        let b = run_with(&g, 9, CORI_KNL.flat_model(), &opts).unwrap();
        assert_eq!(a.labels, b.labels, "{engine}");
        // Modeled time must differ (KNL flat is slower per the model).
        assert!(b.modeled_total_s > a.modeled_total_s, "{engine}");
    }
}

#[test]
fn permutation_changes_work_not_answer() {
    let g = metagenome_graph(1500, 6, 0.01, 8);
    use lacc_suite::graph::unionfind::canonicalize_labels;
    for engine in [EngineKind::Lacc, EngineKind::Fastsv] {
        let opts = LaccOpts {
            engine,
            ..LaccOpts::default()
        };
        let with = run_with(&g, 16, EDISON.lacc_model(), &opts).unwrap();
        let without = run_with(
            &g,
            16,
            EDISON.lacc_model(),
            &LaccOpts {
                permute: false,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(
            canonicalize_labels(&with.labels),
            canonicalize_labels(&without.labels),
            "{engine}"
        );
    }
}

#[test]
fn dense_as_and_lacc_agree_distributed() {
    let g = erdos_renyi_gnm(700, 900, 17);
    let lacc = LaccOpts {
        engine: EngineKind::Lacc,
        ..LaccOpts::default()
    };
    let a = run_with(&g, 4, EDISON.lacc_model(), &lacc).unwrap();
    let d = run_with(&g, 4, EDISON.lacc_model(), &LaccOpts::dense_as()).unwrap();
    use lacc_suite::graph::unionfind::canonicalize_labels;
    assert_eq!(
        canonicalize_labels(&a.labels),
        canonicalize_labels(&d.labels)
    );
    // Sparsity must reduce modeled work on a many-component graph. The
    // comparison runs with in-flight combining off: the dense active set's
    // extra traffic is so redundant that combining erases most of the
    // gap, and this assertion is about active-set sparsity.
    let no_combining = DistOpts {
        combine_in_flight: false,
        fuse_starcheck: false,
        ..DistOpts::default()
    };
    let g = community_graph(4000, 200, 3.0, 1.4, 3);
    let a = run_with(
        &g,
        16,
        EDISON.lacc_model(),
        &LaccOpts {
            dist: no_combining,
            ..lacc
        },
    )
    .unwrap();
    let d = run_with(
        &g,
        16,
        EDISON.lacc_model(),
        &LaccOpts {
            dist: no_combining,
            ..LaccOpts::dense_as()
        },
    )
    .unwrap();
    assert!(
        a.modeled_total_s < d.modeled_total_s,
        "sparsity should win: {} vs {}",
        a.modeled_total_s,
        d.modeled_total_s
    );
}
