//! Golden report pin: the full `RunReport::canonical_json` of a
//! reduced-scale (app x paradigm x flow control) matrix, plus one
//! fault-injected run and one starved-credit run, each reduced to a
//! 64-bit FNV-1a digest.
//!
//! A host-side rewrite that keeps the science must reproduce every
//! digest: they cover simulated time, wire accounting, flush reasons,
//! credit stalls, DLL replays and the processed-event count. On a
//! mismatch the test prints the whole actual table; only a deliberate
//! change to the science may paste it back in, with a note in
//! CHANGES.md.

use system::{
    CreditConfig, FaultProfile, FlowControlMode, Paradigm, PreparedWorkload, RunReport,
    SystemConfig,
};
use workloads::{collective, CollectiveTuning, Jacobi, MsgDist, Pagerank, RunSpec, Workload};

use sim_engine::SimTime;

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn spec() -> RunSpec {
    let mut spec = RunSpec::paper(4);
    spec.iterations = 2;
    spec.scale_down = 64;
    spec
}

/// A pool that holds one maximum-size FinePack TLP and almost nothing
/// else, so admission blocks and credit retries fire constantly.
fn starved() -> CreditConfig {
    CreditConfig {
        ph: 2,
        pd: 260,
        return_latency: SimTime::from_ns(500),
        buffer_packets: 2,
    }
}

fn ring_allreduce_16b() -> Box<dyn Workload> {
    let tuning = CollectiveTuning {
        msg: MsgDist::Fixed(16),
        ..CollectiveTuning::default()
    };
    collective("ring-allreduce", &tuning).expect("registered collective")
}

/// Every pinned run as `(label, report)`, in a fixed order.
fn golden_runs() -> Vec<(String, RunReport)> {
    let spec = spec();
    let base = SystemConfig::paper(spec.num_gpus);
    let apps: Vec<Box<dyn Workload>> = vec![
        Box::new(Pagerank::default()),
        Box::new(Jacobi::default()),
        ring_allreduce_16b(),
    ];
    let flows = [("credited", base), ("open", base.open_loop())];
    let paradigms = [
        Paradigm::P2pStores,
        Paradigm::FinePack,
        Paradigm::WriteCombining,
        Paradigm::Gps,
    ];
    let mut out = Vec::new();
    for app in &apps {
        let prep = PreparedWorkload::new(app.as_ref(), &base, &spec);
        for (flow, cfg) in &flows {
            for p in paradigms {
                let label = format!("{}/{p}/{flow}", prep.name());
                out.push((label, prep.run(cfg, p)));
            }
        }
    }
    let pagerank = PreparedWorkload::new(&Pagerank::default(), &base, &spec);
    let noisy = base.with_faults(FaultProfile::new(1e-6));
    let report = pagerank
        .try_run(&noisy, Paradigm::FinePack)
        .expect("BER run");
    out.push(("pagerank/finepack/ber-1e-6".into(), report));
    let starved_cfg = base.with_flow_control(FlowControlMode::Credited(starved()));
    let report = pagerank.run(&starved_cfg, Paradigm::FinePack);
    out.push(("pagerank/finepack/starved".into(), report));
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("pagerank/p2p-stores/credited", 0xcad8b3f878bbd271),
    ("pagerank/finepack/credited", 0x71c0ac285c3e9bd3),
    ("pagerank/write-combining/credited", 0xf1e84f350d8daaf3),
    ("pagerank/gps/credited", 0xac36256e34fbf7f9),
    ("pagerank/p2p-stores/open", 0x0c5ce5c9721cd6d8),
    ("pagerank/finepack/open", 0xac97707835f47aac),
    ("pagerank/write-combining/open", 0xfa05724a78a02e65),
    ("pagerank/gps/open", 0x75be93095753aec5),
    ("jacobi/p2p-stores/credited", 0x48bd53e3ea72c29c),
    ("jacobi/finepack/credited", 0xf27d25962e2bdd6a),
    ("jacobi/write-combining/credited", 0xf72f16e3a018e247),
    ("jacobi/gps/credited", 0x0f785474c0749c00),
    ("jacobi/p2p-stores/open", 0x0af88534c4507848),
    ("jacobi/finepack/open", 0xfc0d7c2ef9524cf0),
    ("jacobi/write-combining/open", 0x7b712cddcca7c4ab),
    ("jacobi/gps/open", 0xa595f9f1d625a5d1),
    ("ring-allreduce/p2p-stores/credited", 0x76e03246d75c6e56),
    ("ring-allreduce/finepack/credited", 0x4c763e5d6bee4518),
    (
        "ring-allreduce/write-combining/credited",
        0x8043b2dbe9094959,
    ),
    ("ring-allreduce/gps/credited", 0xe929a21a622d012c),
    ("ring-allreduce/p2p-stores/open", 0x683bee03eaa56ca5),
    ("ring-allreduce/finepack/open", 0xe6079170d86928b5),
    ("ring-allreduce/write-combining/open", 0xf1f328a229ab7b1e),
    ("ring-allreduce/gps/open", 0x94b39226a3cf9433),
    ("pagerank/finepack/ber-1e-6", 0xdfd334fd4b51b685),
    ("pagerank/finepack/starved", 0xa489e812b24af879),
];

#[test]
fn canonical_reports_match_the_golden_digests() {
    let runs = golden_runs();
    let actual: Vec<(String, u64)> = runs
        .iter()
        .map(|(label, r)| (label.clone(), fnv1a(&r.canonical_json())))
        .collect();
    let table: String = actual
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|(l, d)| (l.to_string(), *d)).collect();
    assert_eq!(actual, expected, "actual golden table:\n{table}");
}

/// The pinned matrix really exercises the paths it is meant to guard.
#[test]
fn golden_matrix_exercises_replays_and_credit_retries() {
    let runs = golden_runs();
    let find = |label: &str| {
        &runs
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("{label} missing"))
            .1
    };
    assert!(find("pagerank/finepack/ber-1e-6").replayed_bytes > 0);
    let starved = find("pagerank/finepack/starved");
    assert!(starved.fc_blocked_attempts > 0);
    assert!(starved.stall_time > SimTime::ZERO);
}
