//! Ablation study — each §IV-B / §V-B optimization toggled independently.
//!
//! Not a paper figure, but the paper's conclusions attribute LACC's
//! performance to three mechanisms; this experiment isolates them:
//!
//! 1. **Vector sparsity** (Lemmas 1–2): LACC vs the dense-AS translation.
//! 2. **All-to-all algorithm**: pairwise-exchange vs hypercube vs sparse.
//! 3. **Hot-rank broadcast**: on vs off, plus a sweep of the threshold h.
//!
//! One comm-layer extension is ablated the same way: the in-flight
//! combining stack (combining hypercube, fused starcheck).

use dmsim::{AllToAll, EDISON};
use gblas::dist::DistOpts;
use lacc::LaccOpts;
use lacc_bench::*;
use lacc_graph::generators::suite::by_name;

fn main() {
    let shrink = shrink();
    let p = if full_mode() { 256 } else { 64 };
    let model = EDISON.lacc_model();
    let prob = by_name("archaea").expect("known problem");
    let g = if shrink == 1 {
        prob.build()
    } else {
        prob.build_small(shrink)
    };
    eprintln!(
        "[ablation] {} at p={p}: n={} m={}",
        prob.name,
        g.num_vertices(),
        g.num_directed_edges()
    );

    let mut rows = Vec::new();
    let trace = trace_config();
    let mut run_cfg = |label: &str, opts: LaccOpts| {
        // Cleared per configuration: an exported trace covers the last one.
        if let Some(t) = &trace {
            t.clear();
        }
        let cfg = lacc::RunConfig::new(p, model)
            .with_opts(opts)
            .with_trace_opt(trace.as_ref().map(TraceConfig::sink));
        let run = lacc::run(&g, &cfg)
            .expect("distributed LACC rank panicked")
            .run;
        rows.push(vec![
            label.to_string(),
            fmt_s(run.modeled_total_s),
            format!("{}", run.num_iterations()),
            fmt_s(run.wall_s),
        ]);
    };

    // 1. Sparsity.
    run_cfg("LACC (all optimizations)", LaccOpts::default());
    run_cfg("dense AS (no sparsity)", LaccOpts::dense_as());

    // 2. All-to-all algorithms (sparsity on).
    for (name, algo) in [
        ("alltoall = pairwise", AllToAll::Pairwise),
        ("alltoall = hypercube", AllToAll::Hypercube),
        ("alltoall = direct", AllToAll::Direct),
        ("alltoall = sparse", AllToAll::Sparse),
    ] {
        let opts = LaccOpts {
            dist: DistOpts {
                alltoall: algo,
                ..DistOpts::default()
            },
            ..LaccOpts::default()
        };
        run_cfg(name, opts);
    }

    // 3. Hot-rank broadcast.
    run_cfg(
        "hot-rank broadcast off",
        LaccOpts {
            dist: DistOpts {
                hot_bcast: false,
                ..DistOpts::default()
            },
            ..LaccOpts::default()
        },
    );
    for h in [1.0, 2.0, 4.0, 16.0] {
        let opts = LaccOpts {
            dist: DistOpts {
                hot_threshold: h,
                ..DistOpts::default()
            },
            ..LaccOpts::default()
        };
        run_cfg(&format!("hot threshold h = {h}"), opts);
    }

    // 4. In-flight combining: off, then the combining stack layered back
    // in. Fused starcheck rides on the combining route, so it only exists
    // with `combine_in_flight`.
    for (name, in_flight, fuse) in [
        ("combining off", false, false),
        ("combining = in-flight only", true, false),
        ("combining = fused starcheck", true, true),
    ] {
        let opts = LaccOpts {
            dist: DistOpts {
                combine_in_flight: in_flight,
                fuse_starcheck: fuse,
                ..DistOpts::default()
            },
            ..LaccOpts::default()
        };
        run_cfg(name, opts);
    }

    // 5. Index width at the fully optimized point: the modeled time is
    // word-based and so identical; the rows make the iteration/label
    // equivalence visible next to every other knob.
    for (name, width) in [
        ("index width = u32", lacc::IndexWidth::U32),
        ("index width = u64", lacc::IndexWidth::U64),
    ] {
        let opts = LaccOpts {
            index_width: width,
            ..LaccOpts::default()
        };
        run_cfg(name, opts);
    }

    // Fully naive stack for reference.
    run_cfg("naive comm (pairwise, no bcast)", LaccOpts::naive_comm());

    // Extension: the first-class distributed FastSV engine (the LAGraph
    // successor) on the same substrate and machine model.
    let fsv_opts = LaccOpts::builder().engine(lacc::EngineKind::Fastsv).build();
    run_cfg("FastSV engine (extension)", fsv_opts);

    let header = ["configuration", "modeled s", "iterations", "sim wall s"];
    print_table(
        &format!("Ablation on {} (p = {p}, Edison model)", prob.name),
        &header,
        &rows,
    );
    write_csv("ablation", &header, &rows);
    if let Some(t) = &trace {
        t.finish();
    }
}
