//! The benchmark's workloads: each is one whole pass, on one thread,
//! through the same public functions the `suite`, `collectives` and
//! `audit` commands call.
//!
//! A pass covers everything a user of those commands waits for: trace
//! generation, GPU replay, workload preparation, the single-GPU
//! baseline, every paradigm run (and audit), and rendering. Only the
//! construction of configs and workload objects precedes the first
//! `Workload::trace` call: that is the benchmark's set-up work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use finepack::FlushReason;
use gpu_model::{GpuId, KernelTrace};
use sim_engine::{geomean, SimTime, Table};
use system::{
    audit_run, geomean_speedup, single_gpu_time, FaultProfile, Paradigm, PreparedWorkload,
    RunReport, SpeedupRow, SystemConfig,
};
use workloads::{CollectiveTuning, CommPattern, MsgDist, RingAllReduce, RunSpec, Workload};

use crate::reference::Headline;
use crate::spans::Recorder;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// The Fig 9 suite: 8 apps x 4 paradigms on 4 GPUs.
    Fig9Suite,
    /// Ring all-reduce on 8 GPUs at three message-size rungs.
    AllreduceLadder,
    /// PageRank and SSSP at BER 1e-6, each run plain and audited.
    FaultyAudit,
}

impl BenchWorkload {
    /// Every workload, in report order.
    pub const ALL: [BenchWorkload; 3] = [
        BenchWorkload::Fig9Suite,
        BenchWorkload::AllreduceLadder,
        BenchWorkload::FaultyAudit,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::Fig9Suite => "fig9-suite",
            BenchWorkload::AllreduceLadder => "allreduce-ladder",
            BenchWorkload::FaultyAudit => "faulty-audit",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn gpus(self) -> u8 {
        match self {
            BenchWorkload::AllreduceLadder => 8,
            _ => 4,
        }
    }

    /// Paradigms each point runs under, in report order.
    pub fn paradigms(self) -> &'static [Paradigm] {
        match self {
            BenchWorkload::Fig9Suite => &Paradigm::FIG9,
            BenchWorkload::AllreduceLadder => {
                &[Paradigm::BulkDma, Paradigm::P2pStores, Paradigm::FinePack]
            }
            BenchWorkload::FaultyAudit => &[Paradigm::P2pStores, Paradigm::FinePack],
        }
    }

    /// Whether the pass computes the single-GPU baseline (speedups).
    fn has_baseline(self) -> bool {
        self != BenchWorkload::FaultyAudit
    }

    /// Whether every run is repeated under the conservation auditor.
    pub fn audits(self) -> bool {
        self == BenchWorkload::FaultyAudit
    }

    /// Builds the pass's inputs: one point per app or rung.
    pub fn points(self, seed: u64, scale: Scale) -> Vec<Point> {
        let mut spec = RunSpec::paper(self.gpus());
        spec.seed = seed;
        spec.scale_down = scale.scale_down;
        spec.iterations = scale.iterations;
        let mut cfg = SystemConfig::paper(self.gpus());
        cfg.seed = seed;
        let point = |label: String, app: Box<dyn Workload>, cfg: SystemConfig| Point {
            label,
            app,
            spec,
            cfg,
        };
        match self {
            BenchWorkload::Fig9Suite => workloads::suite()
                .into_iter()
                .map(|app| point(app.name().to_string(), app, cfg))
                .collect(),
            BenchWorkload::AllreduceLadder => LADDER
                .iter()
                .map(|&msg| {
                    let tuning = CollectiveTuning {
                        payload_bytes: LADDER_PAYLOAD,
                        msg,
                        ..CollectiveTuning::default()
                    };
                    point(rung_name(msg), Box::new(RingAllReduce::new(tuning)), cfg)
                })
                .collect(),
            BenchWorkload::FaultyAudit => {
                let cfg = cfg.with_faults(FaultProfile::new(FAULTY_BER));
                workloads::SUITE_REGISTRY
                    .iter()
                    .filter(|(name, _)| FAULTY_APPS.contains(name))
                    .map(|(name, make)| point((*name).to_string(), make(), cfg))
                    .collect()
            }
        }
    }
}

/// Times stand-alone constructions of a pass's inputs (configs and
/// workload objects), the work that precedes a pass's first
/// `Workload::trace` call: `samples` batches of `batch` constructions,
/// each sample the mean seconds per construction in its batch.
pub fn setup_samples(
    workload: BenchWorkload,
    seed: u64,
    scale: Scale,
    samples: usize,
    batch: usize,
) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(workload.points(seed, scale));
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect()
}

/// Per-GPU payload of the ladder's ring all-reduce.
pub const LADDER_PAYLOAD: u64 = 1 << 20;

/// The ladder's message-size rungs: the finest fixed size, the bulk
/// fixed size, and the collectives' default training mix.
pub const LADDER: [MsgDist; 3] = [
    MsgDist::Fixed(16),
    MsgDist::Fixed(65536),
    MsgDist::Bimodal {
        fine: 64,
        bulk: 65536,
        bulk_pct: 30,
    },
];

/// Bit-error rate of the faulty-audit links.
pub const FAULTY_BER: f64 = 1e-6;

/// Apps of the faulty-audit workload.
pub const FAULTY_APPS: [&str; 2] = ["pagerank", "sssp"];

/// A rung's name as used in metric names (`fixed-16`).
pub fn rung_name(msg: MsgDist) -> String {
    msg.to_string().replace(':', "-")
}

/// Problem size of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Problem-size divisor (1 = the paper's evaluation size).
    pub scale_down: u32,
    /// Bulk-synchronous iterations.
    pub iterations: u32,
}

impl Scale {
    /// The paper's evaluation size, as `suite` and `collectives` run it.
    pub const PAPER: Scale = Scale {
        scale_down: 1,
        iterations: 2,
    };
}

/// One app or rung of a pass, with the system it runs on.
#[derive(Debug)]
pub struct Point {
    /// App name or rung name.
    pub label: String,
    /// The workload object.
    pub app: Box<dyn Workload>,
    /// Run parameters (GPUs, iterations, seed, scale).
    pub spec: RunSpec,
    /// System configuration.
    pub cfg: SystemConfig,
}

/// The result of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds for the whole pass, set-up included.
    pub wall_s: f64,
    /// Warp-level trace ops simulated: each point's multi-GPU trace ops,
    /// counted once per paradigm run (and once per audited run).
    pub ops: u64,
    /// Operations attempted: simulations plus audits.
    pub attempted: u64,
    /// Why operations failed (empty when all succeeded).
    pub failures: Vec<String>,
    /// Exact simulated counts; identical for identical inputs.
    pub counts: BTreeMap<String, f64>,
    /// The live model's paper headline figures (fig9-suite only).
    pub headline: Option<Headline>,
    /// The rendered report text.
    pub rendered: String,
}

/// Delegating [`Workload`] that counts the trace ops it generates and
/// records each call as a span. The simulator receives exactly the
/// inner workload's traces.
#[derive(Debug)]
struct Observed<'a> {
    inner: &'a dyn Workload,
    rec: &'a Recorder,
    ops: AtomicU64,
    multi_gpu_ops: AtomicU64,
}

impl<'a> Observed<'a> {
    fn new(inner: &'a dyn Workload, rec: &'a Recorder) -> Self {
        Observed {
            inner,
            rec,
            ops: AtomicU64::new(0),
            multi_gpu_ops: AtomicU64::new(0),
        }
    }
}

impl Workload for Observed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pattern(&self) -> CommPattern {
        self.inner.pattern()
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        let trace = self.rec.span(
            "workloads",
            "Workload::trace",
            None,
            || {
                format!(
                    "{} gpus={} iter={iter} gpu={}",
                    self.name(),
                    spec.num_gpus,
                    gpu.index()
                )
            },
            || self.inner.trace(spec, iter, gpu),
        );
        let n = trace.ops.len() as u64;
        self.ops.fetch_add(n, Ordering::Relaxed);
        if spec.num_gpus > 1 {
            self.multi_gpu_ops.fetch_add(n, Ordering::Relaxed);
        }
        trace
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        self.inner.dma_bytes_per_gpu(spec)
    }

    fn read_fraction(&self) -> f64 {
        self.inner.read_fraction()
    }

    fn gps_unsubscribed_fraction(&self) -> f64 {
        self.inner.gps_unsubscribed_fraction()
    }
}

fn add(counts: &mut BTreeMap<String, f64>, key: String, v: f64) {
    *counts.entry(key).or_insert(0.0) += v;
}

/// Folds one run report into the exact per-layer counts.
fn count_report(counts: &mut BTreeMap<String, f64>, r: &RunReport) {
    let p = r.paradigm;
    let us = |t: SimTime| t.as_ps() as f64 / 1e6;
    add(counts, format!("system.events.{p}"), r.sim_events as f64);
    add(counts, format!("system.sim_time_us.{p}"), us(r.total_time));
    add(
        counts,
        format!("system.gpu_time_us.{p}"),
        us(r.total_time) * f64::from(r.num_gpus),
    );
    add(counts, format!("system.stall_us.{p}"), us(r.stall_time));
    add(
        counts,
        format!("protocol.wire_bytes.{p}"),
        r.traffic.total() as f64,
    );
    add(
        counts,
        format!("protocol.fc_blocked_attempts.{p}"),
        r.fc_blocked_attempts as f64,
    );
    add(
        counts,
        format!("protocol.replayed_bytes.{p}"),
        r.replayed_bytes as f64,
    );
    add(
        counts,
        "protocol.link_retrains".into(),
        r.link_retrains as f64,
    );
    if p == Paradigm::FinePack {
        let e = &r.egress;
        add(counts, "core.packets".into(), e.packets as f64);
        let hist = &e.stores_per_packet;
        add(
            counts,
            "core.stores_aggregated".into(),
            hist.mean().unwrap_or(0.0) * hist.total() as f64,
        );
        add(
            counts,
            "core.overwritten_bytes".into(),
            e.overwritten_bytes as f64,
        );
        for (reason, n) in FlushReason::ALL.iter().zip(e.flushes_by_reason) {
            add(counts, format!("core.flushes.{}", reason.label()), n as f64);
        }
    }
}

/// One paradigm run of a point.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    paradigm: Paradigm,
    total_time: SimTime,
    wire_bytes: u64,
    stores_per_packet: Option<f64>,
}

/// Everything a pass's checks need about one point.
#[derive(Debug)]
struct PointResult {
    label: String,
    single_gpu: Option<SimTime>,
    outcomes: Vec<Outcome>,
}

impl PointResult {
    fn get(&self, p: Paradigm) -> Option<&Outcome> {
        self.outcomes.iter().find(|o| o.paradigm == p)
    }

    fn speedup_row(&self) -> Option<SpeedupRow> {
        let t1 = self.single_gpu?.as_secs_f64();
        Some(SpeedupRow {
            app: self.label.clone(),
            speedups: self
                .outcomes
                .iter()
                .map(|o| (o.paradigm, t1 / o.total_time.as_secs_f64()))
                .collect(),
        })
    }
}

/// Runs one whole pass of `workload`, recording spans through `rec`.
pub fn run_pass(workload: BenchWorkload, seed: u64, scale: Scale, rec: &Recorder) -> Pass {
    let start = Instant::now();
    let mut pass = rec.span(
        "bench",
        "pass",
        None,
        || workload.name().into(),
        || pass_body(workload, seed, scale, rec),
    );
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

fn pass_body(workload: BenchWorkload, seed: u64, scale: Scale, rec: &Recorder) -> Pass {
    let points = workload.points(seed, scale);
    let mut pass = Pass {
        wall_s: 0.0,
        ops: 0,
        attempted: 0,
        failures: Vec::new(),
        counts: BTreeMap::new(),
        headline: None,
        rendered: String::new(),
    };
    let mut results = Vec::with_capacity(points.len());
    let mut remote_bytes = 0u64;
    for point in &points {
        let app = Observed::new(point.app.as_ref(), rec);
        let (spec, cfg) = (&point.spec, &point.cfg);
        let label = || point.label.clone();
        let single_gpu = workload.has_baseline().then(|| {
            rec.span("system", "single_gpu_time", None, label, || {
                single_gpu_time(&app, cfg, spec)
            })
        });
        let prep = rec.span("system", "PreparedWorkload::new", None, label, || {
            PreparedWorkload::new(&app, cfg, spec)
        });
        let stats = prep.merged_stats();
        remote_bytes += stats.remote_bytes;
        add(
            &mut pass.counts,
            "gpu_model.remote_stores".into(),
            stats.remote_stores as f64,
        );
        let point_ops = app.multi_gpu_ops.load(Ordering::Relaxed);
        let mut result = PointResult {
            label: point.label.clone(),
            single_gpu,
            outcomes: Vec::new(),
        };
        for &p in workload.paradigms() {
            let what = || format!("{} {p}", point.label);
            pass.attempted += 1;
            let run = rec.span("system", "PreparedWorkload::try_run", Some(p), what, || {
                prep.try_run(cfg, p)
            });
            let report = match run {
                Ok(report) => report,
                Err(e) => {
                    pass.failures.push(format!("{}: run died: {e}", what()));
                    continue;
                }
            };
            pass.ops += point_ops;
            count_report(&mut pass.counts, &report);
            let json = rec.span("system", "RunReport::canonical_json", Some(p), what, || {
                report.canonical_json()
            });
            let _ = writeln!(pass.rendered, "{json}");
            result.outcomes.push(Outcome {
                paradigm: p,
                total_time: report.total_time,
                wire_bytes: report.traffic.total(),
                stores_per_packet: report.mean_stores_per_packet(),
            });
            if workload.audits() {
                pass.attempted += 1;
                let audited = rec.span("telemetry", "audit_run", Some(p), what, || {
                    audit_run(&prep, cfg, p)
                });
                match audited {
                    Ok(outcome) => {
                        pass.ops += point_ops;
                        let violations: u64 = outcome.law_counts.iter().sum();
                        add(
                            &mut pass.counts,
                            "telemetry.violations".into(),
                            violations as f64,
                        );
                        if !outcome.is_clean() {
                            pass.failures.push(format!(
                                "{}: unclean audit\n{}",
                                what(),
                                outcome.rendered
                            ));
                        } else if outcome.report.canonical_json() != json {
                            pass.failures.push(format!(
                                "{}: audited report differs from the plain run",
                                what()
                            ));
                        }
                        pass.rendered.push_str(&outcome.rendered);
                    }
                    Err(e) => pass
                        .failures
                        .push(format!("{}: audited run died: {e}", what())),
                }
            }
        }
        add(
            &mut pass.counts,
            "workloads.trace_ops".into(),
            app.ops.load(Ordering::Relaxed) as f64,
        );
        results.push(result);
    }
    let stores = pass.counts["gpu_model.remote_stores"];
    pass.counts.insert(
        "gpu_model.mean_remote_bytes".into(),
        remote_bytes as f64 / stores.max(1.0),
    );
    match workload {
        BenchWorkload::Fig9Suite => fig9_checks(&mut pass, &results),
        BenchWorkload::AllreduceLadder => ladder_checks(&mut pass, &results),
        BenchWorkload::FaultyAudit => {}
    }
    if workload.has_baseline() {
        let table = rec.span("bench", "render", None, String::new, || {
            speedup_table(workload, &results)
        });
        pass.rendered.push_str(&table);
    }
    pass
}

/// The speedup table the `suite` and `collectives` commands print.
fn speedup_table(workload: BenchWorkload, results: &[PointResult]) -> String {
    let paradigms = workload.paradigms();
    let names: Vec<String> = paradigms.iter().map(Paradigm::to_string).collect();
    let mut headers = vec!["point"];
    headers.extend(names.iter().map(String::as_str));
    let mut t = Table::new(format!("{} speedups", workload.name()), &headers);
    for row in results.iter().filter_map(PointResult::speedup_row) {
        let mut cells = vec![row.app.clone()];
        cells.extend(paradigms.iter().map(|p| {
            row.speedup(*p)
                .map_or_else(|| "dead".into(), |s| format!("{s:.2}x"))
        }));
        t.row(&cells);
    }
    t.render()
}

/// The Fig 9-11 headline figures and the orderings
/// `tests/end_to_end.rs` pins: FinePack beats bulk DMA and raw P2P,
/// infinite bandwidth bounds FinePack, P2P speeds Jacobi up, and
/// FinePack beats P2P by 1.5x on PageRank.
fn fig9_checks(pass: &mut Pass, results: &[PointResult]) {
    let rows: Vec<SpeedupRow> = results
        .iter()
        .filter_map(PointResult::speedup_row)
        .collect();
    let geo = |p| geomean_speedup(&rows, p).unwrap_or(0.0);
    let (dma, p2p, fp, inf) = (
        geo(Paradigm::BulkDma),
        geo(Paradigm::P2pStores),
        geo(Paradigm::FinePack),
        geo(Paradigm::InfiniteBw),
    );
    let wire_ratios: Vec<f64> = results
        .iter()
        .filter_map(|r| {
            let p2p = r.get(Paradigm::P2pStores)?.wire_bytes as f64;
            let fp = r.get(Paradigm::FinePack)?.wire_bytes as f64;
            Some(p2p / fp)
        })
        .collect();
    let spp: Vec<f64> = results
        .iter()
        .filter_map(|r| r.get(Paradigm::FinePack)?.stores_per_packet)
        .collect();
    pass.headline = Some(Headline {
        dma,
        p2p,
        fp,
        inf,
        p2p_over_fp_wire: geomean(&wire_ratios).unwrap_or(0.0),
        stores_per_packet: spp.iter().sum::<f64>() / spp.len().max(1) as f64,
    });
    let speedup = |app: &str, p| {
        rows.iter()
            .find(|r| r.app == app)
            .and_then(|r| r.speedup(p))
            .unwrap_or(0.0)
    };
    let jac = speedup("jacobi", Paradigm::P2pStores);
    let (pr_fp, pr_p2p) = (
        speedup("pagerank", Paradigm::FinePack),
        speedup("pagerank", Paradigm::P2pStores),
    );
    let orderings = [
        (fp > dma, format!("finepack {fp} must beat bulk-dma {dma}")),
        (
            fp > p2p,
            format!("finepack {fp} must beat p2p-stores {p2p}"),
        ),
        (
            inf > fp,
            format!("infinite-bw {inf} must bound finepack {fp}"),
        ),
        (
            jac > 1.0,
            format!("jacobi p2p-stores {jac} must exceed 1.0"),
        ),
        (
            pr_fp > 1.5 * pr_p2p,
            format!("pagerank finepack {pr_fp} must beat 1.5x p2p-stores {pr_p2p}"),
        ),
    ];
    for (ok, what) in orderings {
        if !ok {
            pass.failures.push(format!("ordering broken: {what}"));
        }
    }
}

/// Records bulk-DMA over FinePack completion time per rung (3
/// significant digits); FinePack must beat bulk DMA at `fixed:16`.
fn ladder_checks(pass: &mut Pass, results: &[PointResult]) {
    for r in results {
        let t = |p| r.get(p).map(|o| o.total_time);
        let (Some(dma), Some(fp)) = (t(Paradigm::BulkDma), t(Paradigm::FinePack)) else {
            continue;
        };
        let ratio = dma.as_secs_f64() / fp.as_secs_f64();
        pass.counts
            .insert(format!("sim.fp_over_dma.{}", r.label), round_sig(ratio, 3));
        if r.label == rung_name(MsgDist::Fixed(16)) && fp >= dma {
            pass.failures.push(format!(
                "ordering broken: finepack ({fp}) must beat bulk-dma ({dma}) at {}",
                r.label
            ));
        }
    }
}

/// Rounds `x` to `digits` significant digits.
pub fn round_sig(x: f64, digits: i32) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let scale = 10f64.powi(digits - 1 - x.abs().log10().floor() as i32);
    (x * scale).round() / scale
}
