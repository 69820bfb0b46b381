//! End-to-end integration of the full stack: workload generators ->
//! GPU trace replay -> egress paths -> fabric -> reports, for every
//! application and paradigm on a scaled-down system.

use system::{
    geomean_speedup, iteration_unique_bytes, single_gpu_time, speedup_row, Paradigm,
    PreparedWorkload, Runner, SystemConfig,
};
use workloads::{suite, RunSpec, Workload};

fn tiny() -> (SystemConfig, RunSpec) {
    (SystemConfig::paper(2), RunSpec::tiny())
}

#[test]
fn every_app_runs_under_every_paradigm() {
    let (cfg, spec) = tiny();
    let paradigms = [
        Paradigm::BulkDma,
        Paradigm::P2pStores,
        Paradigm::FinePack,
        Paradigm::WriteCombining,
        Paradigm::Gps,
        Paradigm::InfiniteBw,
    ];
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        let mut unique = None;
        for p in paradigms {
            let report = prep.run(&cfg, p);
            assert!(
                report.total_time.as_ps() > 0,
                "{} under {p} took zero time",
                app.name()
            );
            // Unique bytes are a property of the program, not the paradigm.
            let u = unique.get_or_insert(report.unique_bytes);
            assert_eq!(*u, report.unique_bytes, "{} under {p}", app.name());
            if p.uses_stores() && p != Paradigm::Gps {
                assert!(report.egress.packets > 0, "{} under {p}", app.name());
                assert!(report.traffic.total() > 0);
            }
            if p == Paradigm::InfiniteBw {
                assert_eq!(report.traffic.total(), 0);
            }
        }
    }
}

#[test]
fn finepack_never_moves_more_bytes_than_raw_p2p() {
    let (cfg, spec) = tiny();
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        let fp = prep.run(&cfg, Paradigm::FinePack);
        let p2p = prep.run(&cfg, Paradigm::P2pStores);
        assert!(
            fp.traffic.total() <= p2p.traffic.total(),
            "{}: fp {} > p2p {}",
            app.name(),
            fp.traffic.total(),
            p2p.traffic.total()
        );
        // FinePack buffers stores until a window fills, so its final
        // flush can trail the kernel end by one packet time; on
        // compute-bound regular apps that leaves it within a whisker of
        // raw P2P rather than strictly faster.
        let fp_t = fp.total_time.as_secs_f64();
        let p2p_t = p2p.total_time.as_secs_f64();
        assert!(
            fp_t <= p2p_t * 1.05,
            "{}: fp {fp_t} vs p2p {p2p_t}",
            app.name()
        );
    }
}

#[test]
fn infinite_bandwidth_bounds_every_paradigm() {
    let (cfg, spec) = tiny();
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        let inf = prep.run(&cfg, Paradigm::InfiniteBw).total_time;
        for p in [Paradigm::BulkDma, Paradigm::P2pStores, Paradigm::FinePack] {
            let t = prep.run(&cfg, p).total_time;
            assert!(t >= inf, "{} under {p}: {t} < {inf}", app.name());
        }
    }
}

#[test]
fn speedups_are_positive_and_bounded_by_gpu_count() {
    let (cfg, spec) = tiny();
    let rows: Vec<_> = suite()
        .iter()
        .map(|a| speedup_row(a.as_ref(), &cfg, &spec, &Paradigm::FIG9))
        .collect();
    for row in &rows {
        for (p, s) in &row.speedups {
            assert!(*s > 0.0, "{} {p}", row.app);
            assert!(*s < f64::from(spec.num_gpus) + 0.5, "{} {p}: {s}", row.app);
        }
    }
    let inf = geomean_speedup(&rows, Paradigm::InfiniteBw).expect("rows");
    let fp = geomean_speedup(&rows, Paradigm::FinePack).expect("rows");
    assert!(inf >= fp);
}

#[test]
fn single_gpu_baseline_exceeds_per_iteration_multi_gpu_compute() {
    let (cfg, spec) = tiny();
    for app in suite() {
        let t1 = single_gpu_time(app.as_ref(), &cfg, &spec);
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        let kernel_max = prep.runs()[0]
            .iter()
            .map(|r| r.kernel_time)
            .max()
            .expect("gpus");
        assert!(t1 > kernel_max, "{}", app.name());
    }
}

#[test]
fn memory_images_match_between_finepack_and_p2p_for_full_suite() {
    let (cfg, spec) = tiny();
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        let image_for = |p: Paradigm| {
            let mut runner = Runner::new(cfg, p, 0.0, true);
            for iter_runs in prep.runs() {
                runner
                    .try_run_iteration(iter_runs, &[], iteration_unique_bytes(iter_runs))
                    .expect("fault-free run");
            }
            runner.images().expect("tracking").to_vec()
        };
        let fp = image_for(Paradigm::FinePack);
        let p2p = image_for(Paradigm::P2pStores);
        for g in 0..fp.len() {
            assert!(
                fp[g].same_contents(&p2p[g]),
                "{}: image mismatch on GPU{g}",
                app.name()
            );
        }
    }
}

#[test]
fn four_gpu_suite_matches_paper_orderings() {
    // A single, slightly larger smoke test at 4 GPUs with reduced scale:
    // the qualitative Fig 9 orderings must hold.
    let cfg = SystemConfig::paper(4);
    let mut spec = RunSpec::paper(4);
    spec.scale_down = 8;
    spec.iterations = 1;

    let apps = suite();
    let rows: Vec<_> = apps
        .iter()
        .map(|a| speedup_row(a.as_ref(), &cfg, &spec, &Paradigm::FIG9))
        .collect();
    let geo = |p| geomean_speedup(&rows, p).expect("rows");
    let (dma, p2p, fp, inf) = (
        geo(Paradigm::BulkDma),
        geo(Paradigm::P2pStores),
        geo(Paradigm::FinePack),
        geo(Paradigm::InfiniteBw),
    );
    assert!(fp > dma, "finepack {fp} must beat dma {dma}");
    assert!(fp > p2p, "finepack {fp} must beat p2p {p2p}");
    assert!(inf > fp, "infinite {inf} must bound finepack {fp}");

    // Regular apps: P2P does well; irregular: P2P trails FinePack badly.
    let by_name = |n: &str| rows.iter().find(|r| r.app == n).expect("present");
    let jac = by_name("jacobi");
    assert!(jac.speedup(Paradigm::P2pStores).expect("p2p") > 1.0);
    let pr = by_name("pagerank");
    let pr_fp = pr.speedup(Paradigm::FinePack).expect("fp");
    let pr_p2p = pr.speedup(Paradigm::P2pStores).expect("p2p");
    assert!(pr_fp > 1.5 * pr_p2p, "pagerank fp {pr_fp} vs p2p {pr_p2p}");
}

#[test]
fn workload_knobs_are_mutable_for_what_if_studies() {
    // The public workload structs expose their knobs so downstream users
    // can run their own sweeps.
    let (cfg, spec) = tiny();
    let mut app = workloads::Jacobi::default();
    app.halo_bytes_per_gpu *= 4;
    let big = PreparedWorkload::new(&app, &cfg, &spec);
    let small = PreparedWorkload::new(&workloads::Jacobi::default(), &cfg, &spec);
    let wire = |p: &PreparedWorkload| p.run(&cfg, Paradigm::P2pStores).traffic.total();
    assert!(wire(&big) > 2 * wire(&small));
    assert_eq!(app.pattern(), workloads::CommPattern::Neighbors);
}
