//! High-level experiment drivers: everything the paper's figures need,
//! expressed as reusable functions over (workload, system, paradigm).
//!
//! Every sweep point — one (workload, paradigm, parameter) simulation —
//! is an independent deterministic computation, so the drivers here fan
//! out over a [`WorkerPool`] and return results in input order: output
//! is byte-identical for any worker count. Kernel traces are replayed
//! once per app into a [`PreparedWorkload`] and shared (by `Arc` in
//! [`PreparedApp`]) across paradigms and sweep points.

use std::sync::Arc;

use finepack::{FinePackConfig, SubheaderFormat};
use gpu_model::{AddressMap, Gpu, GpuId, KernelRun, KernelStats};
use protocol::PcieGen;
use sim_engine::{geomean, ChaosConfig, RetryPolicy, SimTime, TaskFailure, WorkerPool};
use telemetry::{EventKind, TraceEvent, TraceHandle};
use workloads::{CommPattern, RunSpec, Workload};

use crate::config::SystemConfig;
use crate::fault::RunError;
use crate::paradigm::Paradigm;
use crate::report::{iteration_unique_bytes, RunReport};
use crate::runner::{DmaPlan, Runner};

/// Bytes of physical memory per GPU in the node address map (Table III).
const GPU_MEMORY: u64 = 16 << 30;

/// A workload with its kernel traces replayed once, reusable across all
/// paradigms (the egress stream is paradigm-independent).
#[derive(Debug)]
pub struct PreparedWorkload {
    name: String,
    read_fraction: f64,
    gps_unsubscribed: f64,
    /// `[iteration][gpu]`.
    runs: Vec<Vec<KernelRun>>,
    dma_plan: DmaPlan,
    /// Stats merged across GPUs and iterations, computed once at
    /// preparation time (sweeps used to re-merge on every call).
    merged: KernelStats,
    /// Unique bytes written per iteration, computed once at preparation
    /// time. The store stream is paradigm-independent, so every run of
    /// this workload would otherwise replay the same line-map
    /// aggregation.
    unique_per_iter: Vec<u64>,
}

impl PreparedWorkload {
    /// Replays `app`'s traces on the configured GPUs for every iteration
    /// of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.num_gpus != cfg.num_gpus`.
    pub fn new(app: &dyn Workload, cfg: &SystemConfig, spec: &RunSpec) -> Self {
        assert_eq!(
            spec.num_gpus, cfg.num_gpus,
            "spec/system GPU count mismatch"
        );
        let map = AddressMap::new(cfg.num_gpus, GPU_MEMORY);
        let gpus: Vec<Gpu> = (0..cfg.num_gpus)
            .map(|g| Gpu::new(cfg.gpu, GpuId::new(g), map))
            .collect();
        let runs: Vec<Vec<KernelRun>> = (0..spec.iterations)
            .map(|iter| {
                gpus.iter()
                    .map(|gpu| gpu.execute_kernel(&app.trace(spec, iter, gpu.id())))
                    .collect()
            })
            .collect();
        let merged = merge_stats(&runs);
        let unique_per_iter = runs.iter().map(|r| iteration_unique_bytes(r)).collect();
        PreparedWorkload {
            name: app.name().to_string(),
            read_fraction: app.read_fraction(),
            gps_unsubscribed: app.gps_unsubscribed_fraction(),
            runs,
            dma_plan: dma_plan(app, spec),
            merged,
            unique_per_iter,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-iteration, per-GPU kernel replays.
    pub fn runs(&self) -> &[Vec<KernelRun>] {
        &self.runs
    }

    /// The workload's read fraction (drives the useful/wasted split).
    pub fn read_fraction(&self) -> f64 {
        self.read_fraction
    }

    /// The workload's fraction of stores GPS's subscription filter drops.
    pub fn gps_unsubscribed(&self) -> f64 {
        self.gps_unsubscribed
    }

    /// The memcpy paradigm's per-iteration transfer legs.
    pub fn dma_plan(&self) -> &DmaPlan {
        &self.dma_plan
    }

    /// Merged replay statistics across GPUs and iterations (Fig 4 data),
    /// cached at preparation time.
    pub fn merged_stats(&self) -> &KernelStats {
        &self.merged
    }

    /// Unique bytes written per iteration (see
    /// [`iteration_unique_bytes`]), cached at preparation time.
    pub(crate) fn unique_per_iter(&self) -> &[u64] {
        &self.unique_per_iter
    }

    /// Simulates this workload under `paradigm` on `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if injected faults kill the run; fault experiments should
    /// use [`PreparedWorkload::try_run`].
    pub fn run(&self, cfg: &SystemConfig, paradigm: Paradigm) -> RunReport {
        self.try_run(cfg, paradigm)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PreparedWorkload::run`], surfacing link death and watchdog
    /// trips as diagnostics instead of panicking.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the first failing iteration.
    pub fn try_run(&self, cfg: &SystemConfig, paradigm: Paradigm) -> Result<RunReport, RunError> {
        self.try_run_traced(cfg, paradigm, TraceHandle::off(), None)
    }

    /// [`PreparedWorkload::try_run`] with a trace attached: lifecycle
    /// events (and, with `sample_every` set, periodic occupancy/credit
    /// samples) are recorded through `trace` for the whole run.
    ///
    /// Tracing is observational: the returned report is byte-identical
    /// to [`PreparedWorkload::try_run`]'s.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the first failing iteration.
    pub fn try_run_traced(
        &self,
        cfg: &SystemConfig,
        paradigm: Paradigm,
        trace: TraceHandle,
        sample_every: Option<SimTime>,
    ) -> Result<RunReport, RunError> {
        let mut runner = Runner::new(*cfg, paradigm, self.gps_unsubscribed, false);
        runner.attach_trace(trace, sample_every);
        for (iter_runs, &unique) in self.runs.iter().zip(&self.unique_per_iter) {
            runner.try_run_iteration(iter_runs, &self.dma_plan, unique)?;
        }
        Ok(runner.finish(&self.name, self.read_fraction))
    }
}

/// Merges replay statistics across `[iteration][gpu]` kernel runs.
fn merge_stats(runs: &[Vec<KernelRun>]) -> KernelStats {
    let mut merged: Option<KernelStats> = None;
    for iter in runs {
        for run in iter {
            match &mut merged {
                None => merged = Some(run.stats.clone()),
                Some(m) => {
                    m.remote_size_hist.merge(&run.stats.remote_size_hist);
                    m.remote_bytes += run.stats.remote_bytes;
                    m.remote_stores += run.stats.remote_stores;
                    m.local_bytes += run.stats.local_bytes;
                    m.local_stores += run.stats.local_stores;
                    m.compute_cycles += run.stats.compute_cycles;
                }
            }
        }
    }
    merged.expect("at least one kernel run")
}

/// One point of a bit-error-rate sweep: how fault injection at `ber`
/// changed the run relative to the fault-free baseline.
#[derive(Debug, Clone)]
pub struct FaultSweepPoint {
    /// Injected bit-error rate.
    pub ber: f64,
    /// The run's outcome: a report, or the diagnostic that killed it.
    pub outcome: Result<RunReport, RunError>,
    /// Slowdown relative to the fault-free run (1.0 = no impact);
    /// `None` when the run died.
    pub slowdown: Option<f64>,
}

/// Sweeps bit-error rates for one workload under `paradigm`, reusing
/// the fault-free run at index 0 as the slowdown baseline. Replay
/// parameters beyond BER (outages, degradation) come from `base_cfg`'s
/// profile when set, else [`crate::FaultProfile::new`] defaults.
///
/// The traces replay once; the per-BER runs fan out over `pool` (each
/// run's fault RNG is seeded from its own config, so results are
/// identical for any worker count).
pub fn fault_sweep(
    app: &dyn Workload,
    base_cfg: &SystemConfig,
    spec: &RunSpec,
    paradigm: Paradigm,
    bers: &[f64],
    pool: &WorkerPool,
) -> Vec<FaultSweepPoint> {
    let prepared = PreparedWorkload::new(app, base_cfg, spec);
    let mut clean_cfg = *base_cfg;
    clean_cfg.fault = None;
    let baseline = prepared.run(&clean_cfg, paradigm).total_time.as_secs_f64();
    pool.map(bers.to_vec(), |ber| {
        let mut profile = base_cfg
            .fault
            .unwrap_or_else(|| crate::FaultProfile::new(ber));
        profile.ber = ber;
        let cfg = base_cfg.with_faults(profile);
        let outcome = prepared.try_run(&cfg, paradigm);
        let slowdown = outcome
            .as_ref()
            .ok()
            .map(|r| r.total_time.as_secs_f64() / baseline.max(f64::MIN_POSITIVE));
        FaultSweepPoint {
            ber,
            outcome,
            slowdown,
        }
    })
}

/// The memcpy paradigm's transfer legs for one iteration: each GPU ships
/// its replica updates to every communication target.
pub fn dma_plan(app: &dyn Workload, spec: &RunSpec) -> DmaPlan {
    let mut plan = Vec::new();
    if spec.num_gpus < 2 {
        return plan;
    }
    for g in 0..spec.num_gpus {
        let src = GpuId::new(g);
        let dsts: Vec<GpuId> = match app.pattern() {
            CommPattern::Neighbors => [i32::from(g) - 1, i32::from(g) + 1]
                .into_iter()
                .filter(|j| *j >= 0 && *j < i32::from(spec.num_gpus))
                .map(|j| GpuId::new(j as u8))
                .collect(),
            CommPattern::ManyToMany | CommPattern::AllToAll => (0..spec.num_gpus)
                .map(GpuId::new)
                .filter(|d| *d != src)
                .collect(),
            CommPattern::Ring => vec![workloads::collectives::ring_next(src, spec.num_gpus)],
            CommPattern::Grid2d => workloads::collectives::grid_neighbors(src, spec.num_gpus),
            CommPattern::Tree => workloads::collectives::tree_parent(src)
                .into_iter()
                .chain(workloads::collectives::tree_children(src, spec.num_gpus))
                .collect(),
        };
        // For halo patterns the knob names an interior GPU's outbound
        // total (two boundaries); each leg carries one boundary's worth.
        let per_dst = match app.pattern() {
            CommPattern::Neighbors => app.dma_bytes_per_gpu(spec) / 2,
            _ => app.dma_bytes_per_gpu(spec) / dsts.len().max(1) as u64,
        };
        for dst in dsts {
            plan.push((src, dst, per_dst));
        }
    }
    plan
}

/// Simulated wall time of the single-GPU baseline: the whole problem on
/// one GPU, no inter-GPU communication.
pub fn single_gpu_time(app: &dyn Workload, cfg: &SystemConfig, spec: &RunSpec) -> SimTime {
    let mut one = *spec;
    one.num_gpus = 1;
    let map = AddressMap::new(1, GPU_MEMORY);
    let gpu = Gpu::new(cfg.gpu, GpuId::new(0), map);
    let mut total = SimTime::ZERO;
    for iter in 0..one.iterations {
        let run = gpu.execute_kernel(&app.trace(&one, iter, GpuId::new(0)));
        debug_assert!(run.egress.is_empty(), "single-GPU run must be local-only");
        total += run.kernel_time + cfg.barrier_overhead;
    }
    total
}

/// One application's Fig 9 row: speedups over the single-GPU baseline.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Application name.
    pub app: String,
    /// `(paradigm, speedup)` pairs in [`Paradigm::FIG9`] order.
    pub speedups: Vec<(Paradigm, f64)>,
}

impl SpeedupRow {
    /// The speedup for `paradigm`, if measured.
    pub fn speedup(&self, paradigm: Paradigm) -> Option<f64> {
        self.speedups
            .iter()
            .find(|(p, _)| *p == paradigm)
            .map(|(_, s)| *s)
    }
}

/// Computes one application's speedups for the given paradigms.
pub fn speedup_row(
    app: &dyn Workload,
    cfg: &SystemConfig,
    spec: &RunSpec,
    paradigms: &[Paradigm],
) -> SpeedupRow {
    let t1 = single_gpu_time(app, cfg, spec);
    let prepared = PreparedWorkload::new(app, cfg, spec);
    let speedups = paradigms
        .iter()
        .map(|p| {
            let tn = prepared.run(cfg, *p).total_time;
            (*p, t1.as_secs_f64() / tn.as_secs_f64())
        })
        .collect();
    SpeedupRow {
        app: app.name().to_string(),
        speedups,
    }
}

/// A workload prepared for sweeping: its traces (shared, replayed once)
/// plus its single-GPU baseline time. Both are independent of the
/// sweep parameters — sub-header format, PCIe generation, paradigm —
/// so one `PreparedApp` serves every point of a sweep.
#[derive(Debug, Clone)]
pub struct PreparedApp {
    /// The replayed traces, shared across sweep points.
    pub prepared: Arc<PreparedWorkload>,
    /// Simulated single-GPU baseline time (speedup denominator).
    pub single_gpu: SimTime,
}

/// Prepares every app exactly once (trace replay + single-GPU baseline),
/// fanning the preparation itself out over `pool`.
pub fn prepare_apps(
    apps: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    spec: &RunSpec,
    pool: &WorkerPool,
) -> Vec<PreparedApp> {
    pool.map((0..apps.len()).collect(), |i| {
        let app = apps[i].as_ref();
        PreparedApp {
            prepared: Arc::new(PreparedWorkload::new(app, cfg, spec)),
            single_gpu: single_gpu_time(app, cfg, spec),
        }
    })
}

/// [`speedup_row`] over an already-prepared app: no trace replay, no
/// baseline re-simulation.
pub fn speedup_row_prepared(
    app: &PreparedApp,
    cfg: &SystemConfig,
    paradigms: &[Paradigm],
) -> SpeedupRow {
    let t1 = app.single_gpu;
    let speedups = paradigms
        .iter()
        .map(|p| {
            let tn = app.prepared.run(cfg, *p).total_time;
            (*p, t1.as_secs_f64() / tn.as_secs_f64())
        })
        .collect();
    SpeedupRow {
        app: app.prepared.name().to_string(),
        speedups,
    }
}

/// The Fig 9 suite's result: per-app speedup rows plus harness
/// self-measurement inputs (total events processed, total simulated
/// time) for throughput reporting.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// One speedup row per app, in input order.
    pub rows: Vec<SpeedupRow>,
    /// Discrete events processed across every run of the suite.
    pub sim_events: u64,
    /// Simulated time covered across every run of the suite.
    pub sim_time: SimTime,
}

/// Runs the Fig 9 suite — every app under every paradigm — fanning one
/// task per app (preparation + baseline + all paradigm runs) over
/// `pool`. Rows come back in app order regardless of worker count.
pub fn run_suite(
    apps: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    spec: &RunSpec,
    paradigms: &[Paradigm],
    pool: &WorkerPool,
) -> SuiteResult {
    let results = pool.map((0..apps.len()).collect(), |i| {
        let app = apps[i].as_ref();
        let t1 = single_gpu_time(app, cfg, spec);
        let prepared = PreparedWorkload::new(app, cfg, spec);
        let mut events = 0u64;
        let mut sim_time = SimTime::ZERO;
        let speedups = paradigms
            .iter()
            .map(|p| {
                let report = prepared.run(cfg, *p);
                events += report.sim_events;
                sim_time += report.total_time;
                (*p, t1.as_secs_f64() / report.total_time.as_secs_f64())
            })
            .collect();
        let row = SpeedupRow {
            app: app.name().to_string(),
            speedups,
        };
        (row, events, sim_time)
    });
    let mut suite = SuiteResult {
        rows: Vec::with_capacity(results.len()),
        sim_events: 0,
        sim_time: SimTime::ZERO,
    };
    for (row, events, sim_time) in results {
        suite.rows.push(row);
        suite.sim_events += events;
        suite.sim_time += sim_time;
    }
    suite
}

/// [`run_suite`] over already-prepared apps: no trace replay and no
/// single-GPU baseline re-simulation inside the measured region, so a
/// timed pass over this function measures the event core alone. Rows
/// are byte-identical to [`run_suite`]'s on the same inputs.
pub fn run_suite_prepared(
    apps: &[PreparedApp],
    cfg: &SystemConfig,
    paradigms: &[Paradigm],
    pool: &WorkerPool,
) -> SuiteResult {
    let results = pool.map((0..apps.len()).collect(), |i| {
        let app = &apps[i];
        let t1 = app.single_gpu;
        let mut events = 0u64;
        let mut sim_time = SimTime::ZERO;
        let speedups = paradigms
            .iter()
            .map(|p| {
                let report = app.prepared.run(cfg, *p);
                events += report.sim_events;
                sim_time += report.total_time;
                (*p, t1.as_secs_f64() / report.total_time.as_secs_f64())
            })
            .collect();
        let row = SpeedupRow {
            app: app.prepared.name().to_string(),
            speedups,
        };
        (row, events, sim_time)
    });
    let mut suite = SuiteResult {
        rows: Vec::with_capacity(results.len()),
        sim_events: 0,
        sim_time: SimTime::ZERO,
    };
    for (row, events, sim_time) in results {
        suite.rows.push(row);
        suite.sim_events += events;
        suite.sim_time += sim_time;
    }
    suite
}

/// One GPU-count point of a scaling curve.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// GPUs at this point.
    pub num_gpus: u8,
    /// Per-app speedup rows at this count, in input order.
    pub rows: Vec<SpeedupRow>,
    /// Discrete events processed across the point's runs.
    pub sim_events: u64,
    /// Simulated time covered across the point's runs.
    pub sim_time: SimTime,
}

/// Sweeps the given apps across GPU counts — the weak-scaling curves of
/// the collectives study, or strong-scaling curves when `base_spec`
/// says so. `make_cfg` maps each GPU count to its system configuration
/// (the topology grows with the cluster). Each point goes through the
/// prepared path, so rows are pool-invariant and byte-stable.
pub fn scaling_curve(
    apps: &[Box<dyn Workload>],
    base_spec: &RunSpec,
    gpu_counts: &[u8],
    make_cfg: &dyn Fn(u8) -> SystemConfig,
    paradigms: &[Paradigm],
    pool: &WorkerPool,
) -> Vec<ScalingPoint> {
    gpu_counts
        .iter()
        .map(|&n| {
            let mut spec = *base_spec;
            spec.num_gpus = n;
            let cfg = make_cfg(n);
            let prepared = prepare_apps(apps, &cfg, &spec, pool);
            let res = run_suite_prepared(&prepared, &cfg, paradigms, pool);
            ScalingPoint {
                num_gpus: n,
                rows: res.rows,
                sim_events: res.sim_events,
                sim_time: res.sim_time,
            }
        })
        .collect()
}

/// Converts a runner error into the supervised harness's failure
/// taxonomy: budget trips keep their structured identity, everything
/// else (link death, stall watchdog) collapses to a generic failure
/// carrying the full rendered diagnostic.
fn task_failure_from(err: RunError) -> TaskFailure {
    match err {
        RunError::BudgetExceeded(trip) => TaskFailure::BudgetExceeded {
            detail: trip.to_string(),
        },
        other => TaskFailure::Failed {
            detail: other.to_string(),
        },
    }
}

/// One app's outcome under [`run_suite_supervised`]: its speedup row,
/// or the per-attempt failures that exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct SuitePoint {
    /// Application name.
    pub app: String,
    /// Attempts executed (1 = first try succeeded).
    pub attempts: u32,
    /// Failures from attempts that produced no row, in attempt order.
    /// When the point ultimately failed, the last entry is terminal.
    pub failures: Vec<TaskFailure>,
    /// The speedup row, when some attempt succeeded.
    pub row: Option<SpeedupRow>,
}

impl SuitePoint {
    /// Whether some attempt produced a row.
    pub fn is_ok(&self) -> bool {
        self.row.is_some()
    }

    /// Whether the point ran more than one attempt.
    pub fn retried(&self) -> bool {
        self.attempts > 1
    }

    /// The terminal failure, when every attempt failed.
    pub fn final_failure(&self) -> Option<&TaskFailure> {
        if self.row.is_some() {
            None
        } else {
            self.failures.last()
        }
    }
}

/// The Fig 9 suite under supervision: per-app outcomes (some possibly
/// failed) plus harness self-measurement totals over the runs that
/// completed.
#[derive(Debug, Clone)]
pub struct SupervisedSuite {
    /// One outcome per app, in input order.
    pub points: Vec<SuitePoint>,
    /// Discrete events processed across every *successful* point.
    pub sim_events: u64,
    /// Simulated time covered across every *successful* point.
    pub sim_time: SimTime,
}

impl SupervisedSuite {
    /// True when every app produced a row.
    pub fn all_ok(&self) -> bool {
        self.points.iter().all(SuitePoint::is_ok)
    }

    /// The successful rows, in app order.
    pub fn rows(&self) -> Vec<SpeedupRow> {
        self.points.iter().filter_map(|p| p.row.clone()).collect()
    }

    /// Points whose every attempt failed, in app order.
    pub fn failed(&self) -> impl Iterator<Item = &SuitePoint> {
        self.points.iter().filter(|p| !p.is_ok())
    }

    /// Points that needed more than one attempt (successful or not).
    pub fn retried(&self) -> impl Iterator<Item = &SuitePoint> {
        self.points.iter().filter(|p| p.retried())
    }

    /// Collapses to the unsupervised [`SuiteResult`] when every point
    /// succeeded — byte-identical to [`run_suite`] on the same inputs.
    pub fn to_result(&self) -> Option<SuiteResult> {
        if !self.all_ok() {
            return None;
        }
        Some(SuiteResult {
            rows: self.rows(),
            sim_events: self.sim_events,
            sim_time: self.sim_time,
        })
    }
}

/// How a supervised sweep handles failure: the retry budget plus
/// optional deterministic chaos injection. [`Supervision::default`] is
/// "no retries, no chaos" — supervision then only adds panic isolation
/// and structured failure capture.
#[derive(Debug, Clone, Copy, Default)]
pub struct Supervision {
    /// Bounded deterministic retry budget per point.
    pub policy: RetryPolicy,
    /// Deterministic fault injection, for testing the harness itself.
    pub chaos: Option<ChaosConfig>,
}

impl Supervision {
    /// Supervision with a retry budget and no chaos.
    pub fn with_retries(retries: u32) -> Self {
        Supervision {
            policy: RetryPolicy::retries(retries),
            chaos: None,
        }
    }

    /// Adds chaos injection.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// [`run_suite`] under supervision: each app's task runs behind panic
/// isolation with bounded deterministic retries and optional chaos
/// injection, and runner errors (link death, stall watchdog,
/// [`RunError::BudgetExceeded`]) surface as structured per-point
/// failures instead of killing the whole sweep.
///
/// Determinism: per-task supervision seeds derive from `cfg.seed` and
/// the app *index*, retries reuse the seed with only the attempt index
/// bumped, and chaos strikes are keyed by `(seed, attempt)` — so the
/// full result, including which points failed and after how many
/// retries, is byte-identical at every `pool` size. With no failures
/// the rows and totals match [`run_suite`] exactly.
///
/// Harness lifecycle telemetry (`TaskStart`, `TaskRetry`, `TaskFailed`)
/// is recorded through `trace` post-hoc in input order, timestamped at
/// [`SimTime::ZERO`] with the task index in the `gpu` field (truncated
/// to `u8` for display grouping); pass [`TraceHandle::off`] to skip it.
pub fn run_suite_supervised(
    apps: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    spec: &RunSpec,
    paradigms: &[Paradigm],
    pool: &WorkerPool,
    sup: Supervision,
    trace: &TraceHandle,
) -> SupervisedSuite {
    let reports = pool.map_supervised(
        cfg.seed,
        (0..apps.len()).collect(),
        sup.policy,
        sup.chaos,
        |_ctx, &i| {
            let app = apps[i].as_ref();
            let t1 = single_gpu_time(app, cfg, spec);
            let prepared = PreparedWorkload::new(app, cfg, spec);
            let mut events = 0u64;
            let mut sim_time = SimTime::ZERO;
            let mut speedups = Vec::with_capacity(paradigms.len());
            for p in paradigms {
                let report = prepared.try_run(cfg, *p).map_err(task_failure_from)?;
                events += report.sim_events;
                sim_time += report.total_time;
                speedups.push((*p, t1.as_secs_f64() / report.total_time.as_secs_f64()));
            }
            let row = SpeedupRow {
                app: app.name().to_string(),
                speedups,
            };
            Ok((row, events, sim_time))
        },
    );
    let mut suite = SupervisedSuite {
        points: Vec::with_capacity(reports.len()),
        sim_events: 0,
        sim_time: SimTime::ZERO,
    };
    for (i, report) in reports.into_iter().enumerate() {
        let attempts = report.attempts();
        if trace.is_on() {
            let task = i as u32;
            let gpu = i as u8;
            let at = |kind| TraceEvent {
                time: SimTime::ZERO,
                gpu,
                kind,
            };
            trace.record(at(EventKind::TaskStart { task }));
            for attempt in 1..attempts {
                trace.record(at(EventKind::TaskRetry { task, attempt }));
            }
            if !report.is_ok() {
                trace.record(at(EventKind::TaskFailed { task, attempts }));
            }
        }
        let row = match report.result {
            Some((row, events, sim_time)) => {
                suite.sim_events += events;
                suite.sim_time += sim_time;
                Some(row)
            }
            None => None,
        };
        suite.points.push(SuitePoint {
            app: apps[i].name().to_string(),
            attempts,
            failures: report.failures,
            row,
        });
    }
    suite
}

/// Geometric-mean speedup across rows for `paradigm`.
pub fn geomean_speedup(rows: &[SpeedupRow], paradigm: Paradigm) -> Option<f64> {
    let vals: Vec<f64> = rows.iter().filter_map(|r| r.speedup(paradigm)).collect();
    geomean(&vals)
}

/// Fig 12: geomean FinePack speedup for each sub-header size (2–6 bytes).
///
/// Trace replay is sub-header-independent, so each app is prepared once
/// and every (sub-header, app) run fans out over `pool`.
///
/// # Panics
///
/// Panics if `apps` is empty.
pub fn subheader_sweep(
    apps: &[Box<dyn Workload>],
    base_cfg: &SystemConfig,
    spec: &RunSpec,
    pool: &WorkerPool,
) -> Vec<(u32, f64)> {
    assert!(!apps.is_empty(), "subheader sweep needs at least one app");
    let prepared = prepare_apps(apps, base_cfg, spec, pool);
    let sizes: Vec<u32> = (2..=6).collect();
    let tasks: Vec<(u32, usize)> = sizes
        .iter()
        .flat_map(|b| (0..prepared.len()).map(move |i| (*b, i)))
        .collect();
    let rows = pool.map(tasks, |(bytes, i)| {
        let sub = SubheaderFormat::new(bytes).expect("2..=6 valid");
        let fp = FinePackConfig::paper(u32::from(base_cfg.num_gpus)).with_subheader(sub);
        let cfg = base_cfg.with_finepack(fp);
        speedup_row_prepared(&prepared[i], &cfg, &[Paradigm::FinePack])
    });
    rows.chunks(prepared.len())
        .zip(sizes)
        .map(|(rows, bytes)| {
            (
                bytes,
                geomean_speedup(rows, Paradigm::FinePack).expect("non-empty"),
            )
        })
        .collect()
}

/// Fig 13: geomean speedups per interconnect generation for the given
/// paradigms.
///
/// Trace replay and the single-GPU baseline are PCIe-generation-
/// independent, so each app is prepared once and every (generation,
/// app) run fans out over `pool`.
///
/// # Panics
///
/// Panics if `apps` is empty.
pub fn bandwidth_sweep(
    apps: &[Box<dyn Workload>],
    base_cfg: &SystemConfig,
    spec: &RunSpec,
    paradigms: &[Paradigm],
    pool: &WorkerPool,
) -> Vec<(PcieGen, Vec<(Paradigm, f64)>)> {
    assert!(!apps.is_empty(), "bandwidth sweep needs at least one app");
    let prepared = prepare_apps(apps, base_cfg, spec, pool);
    let tasks: Vec<(PcieGen, usize)> = PcieGen::ALL
        .into_iter()
        .flat_map(|gen| (0..prepared.len()).map(move |i| (gen, i)))
        .collect();
    let rows = pool.map(tasks, |(gen, i)| {
        let cfg = base_cfg.with_pcie_gen(gen);
        speedup_row_prepared(&prepared[i], &cfg, paradigms)
    });
    rows.chunks(prepared.len())
        .zip(PcieGen::ALL)
        .map(|(rows, gen)| {
            let means = paradigms
                .iter()
                .map(|p| (*p, geomean_speedup(rows, *p).expect("non-empty")))
                .collect();
            (gen, means)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Jacobi, Pagerank};

    fn tiny_cfg() -> (SystemConfig, RunSpec) {
        (SystemConfig::paper(2), RunSpec::tiny())
    }

    #[test]
    fn prepared_workload_reuses_traces_across_paradigms() {
        let (cfg, spec) = tiny_cfg();
        let app = Pagerank::default();
        let prep = PreparedWorkload::new(&app, &cfg, &spec);
        let a = prep.run(&cfg, Paradigm::FinePack);
        let b = prep.run(&cfg, Paradigm::P2pStores);
        assert_eq!(a.unique_bytes, b.unique_bytes);
        assert!(a.total_time < b.total_time);
    }

    #[test]
    fn unique_bytes_are_counted_per_iteration() {
        let (cfg, mut spec) = tiny_cfg();
        spec.iterations = 2;
        let prep = PreparedWorkload::new(&Jacobi::default(), &cfg, &spec);
        let per_iter = prep.unique_per_iter();
        assert!(per_iter.iter().all(|&b| b > 0), "{per_iter:?}");
        // Within one iteration a rewritten byte counts once...
        let iter0 = &prep.runs()[0];
        let twice: Vec<KernelRun> = iter0.iter().chain(iter0).cloned().collect();
        assert_eq!(iteration_unique_bytes(&twice), per_iter[0]);
        // ...while every iteration's values count again in the report.
        let report = prep.run(&cfg, Paradigm::FinePack);
        assert_eq!(report.unique_bytes, per_iter.iter().sum::<u64>());
    }

    #[test]
    fn speedup_ordering_matches_paper_for_irregular_app() {
        let (cfg, spec) = tiny_cfg();
        let row = speedup_row(&Pagerank::default(), &cfg, &spec, &Paradigm::FIG9);
        let inf = row.speedup(Paradigm::InfiniteBw).unwrap();
        let fp = row.speedup(Paradigm::FinePack).unwrap();
        let p2p = row.speedup(Paradigm::P2pStores).unwrap();
        assert!(inf >= fp, "inf {inf} >= fp {fp}");
        assert!(fp > p2p, "fp {fp} > p2p {p2p}");
    }

    #[test]
    fn dma_plan_respects_pattern() {
        let spec = RunSpec::paper(4);
        let halo = dma_plan(&Jacobi::default(), &spec);
        // Ring without wraparound: GPUs 0 and 3 have one leg, 1 and 2 two.
        assert_eq!(halo.len(), 6);
        let a2a = dma_plan(&Pagerank::default(), &spec); // neighbors too
        assert_eq!(a2a.len(), 6);
    }

    #[test]
    fn dma_plan_covers_collective_topologies() {
        use workloads::{Halo2d, RingAllReduce, TreeAllReduce};
        let spec = RunSpec::paper(4);
        // Ring: exactly one leg per GPU, to its successor, carrying the
        // app's full per-GPU DMA budget.
        let ring_app = RingAllReduce::default();
        let ring = dma_plan(&ring_app, &spec);
        assert_eq!(ring.len(), 4);
        assert!(ring.contains(&(
            GpuId::new(3),
            GpuId::new(0),
            ring_app.dma_bytes_per_gpu(&spec)
        )));
        // 2x2 grid: every GPU has two neighbors.
        assert_eq!(dma_plan(&Halo2d::default(), &spec).len(), 8);
        // Binomial tree over 4 GPUs: 3 edges, each walked twice
        // (parent link + child link per GPU) = 6 legs.
        assert_eq!(dma_plan(&TreeAllReduce::default(), &spec).len(), 6);
    }

    #[test]
    fn scaling_curve_is_pool_invariant_and_ordered() {
        use workloads::collectives::{CollectiveTuning, MsgDist};
        use workloads::{RingAllReduce, ScalingMode};
        let tuning = CollectiveTuning {
            payload_bytes: 1 << 20,
            msg: MsgDist::Fixed(512),
            compute_wall_us: 8.0,
        };
        let apps: Vec<Box<dyn Workload>> = vec![Box::new(RingAllReduce::new(tuning))];
        let mut spec = RunSpec::tiny();
        spec.scaling = ScalingMode::Weak;
        let counts = [2u8, 4, 8];
        let paradigms = [Paradigm::FinePack, Paradigm::BulkDma];
        let make_cfg = SystemConfig::paper;
        let serial = scaling_curve(
            &apps,
            &spec,
            &counts,
            &make_cfg,
            &paradigms,
            &WorkerPool::serial(),
        );
        let par = scaling_curve(
            &apps,
            &spec,
            &counts,
            &make_cfg,
            &paradigms,
            &WorkerPool::new(4),
        );
        assert_eq!(serial.len(), 3);
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.num_gpus, b.num_gpus);
            assert_eq!(a.sim_events, b.sim_events);
            for (ra, rb) in a.rows.iter().zip(&b.rows) {
                assert_eq!(ra.speedups, rb.speedups);
            }
        }
        // Weak scaling to more GPUs means more aggregate traffic: the
        // curve's simulated event count must grow monotonically.
        assert!(serial[2].sim_events > serial[1].sim_events);
    }

    #[test]
    fn single_gpu_time_scales_with_iterations() {
        let (cfg, mut spec) = tiny_cfg();
        let app = Jacobi::default();
        spec.iterations = 1;
        let t1 = single_gpu_time(&app, &cfg, &spec);
        spec.iterations = 2;
        let t2 = single_gpu_time(&app, &cfg, &spec);
        assert!(t2 > t1);
        assert!(t2 <= t1 * 3);
    }

    #[test]
    fn merged_stats_accumulate() {
        let (cfg, spec) = tiny_cfg();
        let prep = PreparedWorkload::new(&Jacobi::default(), &cfg, &spec);
        let stats = prep.merged_stats();
        assert!(stats.remote_stores > 0);
        assert_eq!(stats.mean_remote_size(), Some(128.0));
    }

    fn two_apps() -> Vec<Box<dyn Workload>> {
        vec![Box::new(Jacobi::default()), Box::new(Pagerank::default())]
    }

    #[test]
    fn run_suite_is_pool_invariant() {
        let (cfg, spec) = tiny_cfg();
        let paradigms = [Paradigm::FinePack, Paradigm::P2pStores];
        let serial = run_suite(&two_apps(), &cfg, &spec, &paradigms, &WorkerPool::serial());
        let par = run_suite(&two_apps(), &cfg, &spec, &paradigms, &WorkerPool::new(4));
        assert_eq!(serial.sim_events, par.sim_events);
        assert_eq!(serial.sim_time, par.sim_time);
        for (a, b) in serial.rows.iter().zip(&par.rows) {
            assert_eq!(a.app, b.app);
            assert_eq!(a.speedups, b.speedups);
        }
        assert!(serial.sim_events > 0);
    }

    #[test]
    fn subheader_sweep_is_pool_invariant() {
        let (cfg, spec) = tiny_cfg();
        let serial = subheader_sweep(&two_apps(), &cfg, &spec, &WorkerPool::serial());
        let par = subheader_sweep(&two_apps(), &cfg, &spec, &WorkerPool::new(4));
        assert_eq!(serial, par);
        assert_eq!(serial.len(), 5);
    }

    #[test]
    fn fault_sweep_is_pool_invariant() {
        let (mut cfg, spec) = tiny_cfg();
        cfg = cfg.with_faults(crate::FaultProfile::new(1e-9));
        let bers = [0.0, 1e-10, 1e-9];
        let sweep = |pool: &WorkerPool| {
            fault_sweep(
                &Jacobi::default(),
                &cfg,
                &spec,
                Paradigm::FinePack,
                &bers,
                pool,
            )
        };
        let serial = sweep(&WorkerPool::serial());
        let par = sweep(&WorkerPool::new(4));
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.ber, b.ber);
            assert_eq!(a.slowdown, b.slowdown);
            assert_eq!(a.outcome.is_ok(), b.outcome.is_ok());
        }
    }

    #[test]
    fn supervised_suite_matches_unsupervised_when_clean() {
        let (cfg, spec) = tiny_cfg();
        let paradigms = [Paradigm::FinePack, Paradigm::P2pStores];
        let plain = run_suite(&two_apps(), &cfg, &spec, &paradigms, &WorkerPool::new(2));
        let sup = run_suite_supervised(
            &two_apps(),
            &cfg,
            &spec,
            &paradigms,
            &WorkerPool::new(2),
            Supervision::with_retries(2),
            &TraceHandle::off(),
        );
        assert!(sup.all_ok());
        assert!(sup.failed().next().is_none());
        assert!(sup.retried().next().is_none());
        let collapsed = sup.to_result().expect("all ok collapses");
        assert_eq!(collapsed.sim_events, plain.sim_events);
        assert_eq!(collapsed.sim_time, plain.sim_time);
        for (a, b) in collapsed.rows.iter().zip(&plain.rows) {
            assert_eq!(a.app, b.app);
            assert_eq!(a.speedups, b.speedups);
        }
        for p in &sup.points {
            assert_eq!(p.attempts, 1);
        }
    }

    #[test]
    fn supervised_suite_chaos_is_pool_invariant() {
        let (mut cfg, spec) = tiny_cfg();
        cfg.seed = 0x5EED_CAFE;
        let paradigms = [Paradigm::FinePack];
        let chaos = ChaosConfig::uniform(0.4);
        let run = |jobs| {
            run_suite_supervised(
                &two_apps(),
                &cfg,
                &spec,
                &paradigms,
                &WorkerPool::new(jobs),
                Supervision::with_retries(1).with_chaos(chaos),
                &TraceHandle::off(),
            )
        };
        let serial = run(1);
        let (par2, par4) = (run(2), run(4));
        for other in [&par2, &par4] {
            assert_eq!(serial.sim_events, other.sim_events);
            assert_eq!(serial.sim_time, other.sim_time);
            assert_eq!(serial.points.len(), other.points.len());
            for (a, b) in serial.points.iter().zip(&other.points) {
                assert_eq!(a.app, b.app);
                assert_eq!(a.attempts, b.attempts);
                assert_eq!(a.failures, b.failures);
                assert_eq!(a.row.is_some(), b.row.is_some());
                if let (Some(ra), Some(rb)) = (&a.row, &b.row) {
                    assert_eq!(ra.speedups, rb.speedups);
                }
            }
        }
    }

    #[test]
    fn budget_trip_surfaces_as_structured_point_failure() {
        let (cfg, spec) = tiny_cfg();
        let cfg = cfg.with_run_budget(crate::RunBudget::unlimited().with_max_events(3));
        let sup = run_suite_supervised(
            &two_apps(),
            &cfg,
            &spec,
            &[Paradigm::FinePack],
            &WorkerPool::serial(),
            Supervision::default(),
            &TraceHandle::off(),
        );
        assert!(!sup.all_ok());
        assert!(sup.to_result().is_none());
        for p in &sup.points {
            let failure = p.final_failure().expect("budget must trip");
            assert_eq!(failure.kind(), "budget");
            let msg = failure.to_string();
            assert!(msg.contains("event ceiling"), "{msg}");
        }
        assert_eq!(sup.sim_events, 0);
    }

    #[test]
    fn supervised_suite_records_harness_lifecycle_events() {
        let (mut cfg, spec) = tiny_cfg();
        cfg.seed = 0x5EED_CAFE;
        let (trace, ring) = TraceHandle::ring(256, 8);
        let sup = run_suite_supervised(
            &two_apps(),
            &cfg,
            &spec,
            &[Paradigm::FinePack],
            &WorkerPool::new(2),
            Supervision::with_retries(1).with_chaos(ChaosConfig::uniform(0.4)),
            &trace,
        );
        let ring = ring.lock().unwrap();
        let events: Vec<_> = ring.events().cloned().collect();
        let starts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskStart { .. }))
            .count();
        assert_eq!(starts, sup.points.len());
        let retries = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskRetry { .. }))
            .count();
        let expected: usize = sup
            .points
            .iter()
            .map(|p| p.attempts.saturating_sub(1) as usize)
            .sum();
        assert_eq!(retries, expected);
        let failed = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskFailed { .. }))
            .count();
        assert_eq!(failed, sup.failed().count());
    }

    #[test]
    fn prepared_apps_share_traces_across_sweep_points() {
        let (cfg, spec) = tiny_cfg();
        let apps = two_apps();
        let prepared = prepare_apps(&apps, &cfg, &spec, &WorkerPool::serial());
        let direct = speedup_row(apps[0].as_ref(), &cfg, &spec, &[Paradigm::FinePack]);
        let shared = speedup_row_prepared(&prepared[0], &cfg, &[Paradigm::FinePack]);
        assert_eq!(direct.app, shared.app);
        assert_eq!(direct.speedups, shared.speedups);
        // The Arc really is shared, not recloned per use.
        assert_eq!(Arc::strong_count(&prepared[0].prepared), 1);
    }
}
