//! Whole-pass host-time benchmark of the FinePack simulator.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one named workload in-process on one thread, through the same
//! public functions the `suite`, `collectives` and `audit` commands
//! call, and prints a JSON result object as its last line of output.
//! See `perfbench/README.md` for the workloads and metrics.

pub mod metrics;
pub mod passes;
pub mod probes;
pub mod reference;
pub mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use passes::{run_pass, BenchWorkload, Pass, Scale};
use spans::Recorder;

/// Passes never start after this much of a run has gone, so a run ends
/// well inside the 180 s a single run is allowed.
const HARD_STOP: Duration = Duration::from_secs(120);

/// Stand-alone set-ups are timed in a window of `SETUP_SAMPLES` batches
/// of `SETUP_BATCH` before every pass and once after the last, so the
/// samples spread over the whole run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 9;
const SETUP_BATCH: usize = 100;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: BenchWorkload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measuring time; passes repeat while another one fits.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem size: the paper's on the command line, reduced only by
    /// smoke tests.
    pub scale: Scale,
}

impl Args {
    /// Parses `--key value` pairs.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut kv = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            kv.insert(key.to_string(), value.clone());
        }
        fn num<T: std::str::FromStr>(
            kv: &mut BTreeMap<String, String>,
            key: &str,
            default: Option<T>,
        ) -> Result<T, String> {
            match kv.remove(key) {
                Some(v) => v.parse().map_err(|_| format!("bad --{key} `{v}`")),
                None => default.ok_or_else(|| format!("--{key} is required")),
            }
        }
        let name = kv.remove("workload").ok_or("--workload is required")?;
        let workload = BenchWorkload::parse(&name).ok_or_else(|| {
            let names: Vec<_> = BenchWorkload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (one of {})", names.join(", "))
        })?;
        let parsed = Args {
            workload,
            seed: num(&mut kv, "seed", Some(reference::DEFAULT_SEED))?,
            seconds: num(&mut kv, "seconds", Some(10.0))?,
            trace: match num::<u8>(&mut kv, "trace", Some(0))? {
                0 => false,
                1 => true,
                _ => return Err("--trace takes 0 or 1".into()),
            },
            scale: Scale::PAPER,
        };
        if let Some(key) = kv.keys().next() {
            return Err(format!("unknown option --{key}"));
        }
        if parsed.seconds.is_nan() || parsed.seconds < 0.0 {
            return Err("--seconds must be a non-negative number".into());
        }
        Ok(parsed)
    }
}

/// What a run prints and how it exits.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Human-readable report lines, then the JSON result line last.
    pub stdout: String,
    /// Spans and the per-layer table (traced mode).
    pub stderr: String,
    /// Whether every operation succeeded and every check held.
    pub correct: bool,
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Differences between two passes' exact outputs, for the determinism
/// and trace-transparency checks.
fn mismatch(a: &Pass, b: &Pass, what: &str) -> Option<String> {
    if a.counts != b.counts {
        let keys: Vec<_> = a
            .counts
            .iter()
            .filter(|(k, v)| b.counts.get(*k) != Some(v))
            .map(|(k, _)| k.as_str())
            .collect();
        return Some(format!("{what}: exact counts differ ({})", keys.join(", ")));
    }
    if a.rendered != b.rendered || a.headline != b.headline {
        return Some(format!("{what}: rendered reports differ"));
    }
    None
}

fn summary_line(out: &mut String, i: usize, p: &Pass) {
    let _ = writeln!(
        out,
        "pass {i}: wall_s={:.4} ops={} ops_per_s={:.0} attempted={} failed={}",
        p.wall_s,
        p.ops,
        p.ops as f64 / p.wall_s,
        p.attempted,
        p.failures.len()
    );
}

/// Runs the benchmark as the command line asks.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        run_traced(args)
    } else {
        run_plain(args)
    }
}

fn run_plain(args: &Args) -> Outcome {
    let start = Instant::now();
    let mut out = String::new();
    let setup_window = || {
        passes::setup_samples(
            args.workload,
            args.seed,
            args.scale,
            SETUP_SAMPLES,
            SETUP_BATCH,
        )
    };
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    // Peak memory of one pass from a fresh process: later passes reuse
    // freed memory in an allocator-dependent way.
    let mut peak_rss = None;
    loop {
        setups.extend(setup_window());
        let pass = run_pass(args.workload, args.seed, args.scale, &Recorder::off());
        summary_line(&mut out, passes.len(), &pass);
        passes.push(pass);
        if passes.len() == 1 {
            peak_rss = peak_rss_mib();
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let next_end = start.elapsed() + Duration::from_secs_f64(metrics::median(&walls));
        if next_end.as_secs_f64() > args.seconds || next_end > HARD_STOP {
            break;
        }
    }
    setups.extend(setup_window());
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    for (i, p) in passes.iter().enumerate().skip(1) {
        failures.extend(mismatch(&passes[0], p, &format!("pass {i} vs pass 0")));
    }
    if peak_rss.is_none() {
        failures.push("VmHWM unavailable in /proc/self/status".into());
    }
    // The paper-fidelity errors are end-to-end metrics of every
    // workload. Other workloads take them from one untimed Fig 9 pass
    // on the same seed.
    let headline = match passes[0].headline {
        Some(h) => Some(h),
        None => {
            let fig9 = run_pass(
                BenchWorkload::Fig9Suite,
                args.seed,
                args.scale,
                &Recorder::off(),
            );
            attempted += fig9.attempted;
            failures.extend(fig9.failures.iter().map(|f| format!("fidelity pass: {f}")));
            fig9.headline
        }
    };
    let median_of =
        |f: &dyn Fn(&Pass) -> f64| metrics::median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut values = BTreeMap::new();
    values.insert("wall_s".to_string(), median_of(&|p| p.wall_s));
    values.insert("setup_s".to_string(), metrics::median(&setups));
    values.insert(
        "ops_per_s".to_string(),
        median_of(&|p| p.ops as f64 / p.wall_s),
    );
    values.insert("peak_rss_mb".to_string(), peak_rss.unwrap_or(0.0));
    if let Some(h) = headline {
        let _ = writeln!(
            out,
            "fig9 geomeans: bulk-dma {:.3}x (paper {}), p2p-stores {:.3}x (paper {}), \
             finepack {:.3}x (paper {}), infinite-bw {:.3}x (paper {}); fig10 p2p/finepack wire {:.3}x (paper {}); \
             fig11 stores/packet {:.2} (paper {})",
            h.dma,
            reference::FIG9_DMA,
            h.p2p,
            reference::FIG9_P2P,
            h.fp,
            reference::FIG9_FP,
            h.inf,
            reference::FIG9_INF,
            h.p2p_over_fp_wire,
            reference::FIG10_P2P_OVER_FP_WIRE,
            h.stores_per_packet,
            reference::FIG11_STORES_PER_PACKET,
        );
        for (name, err) in reference::FIDELITY_METRICS.iter().zip(h.errors()) {
            values.insert((*name).to_string(), err);
        }
    }
    finish(
        out,
        String::new(),
        attempted,
        failures,
        &metrics::end_to_end(),
        &values,
    )
}

fn run_traced(args: &Args) -> Outcome {
    let mut out = String::new();
    let plain = run_pass(args.workload, args.seed, args.scale, &Recorder::off());
    summary_line(&mut out, 0, &plain);
    let rec = Recorder::on();
    let traced = run_pass(args.workload, args.seed, args.scale, &rec);
    summary_line(&mut out, 1, &traced);
    let probes = probes::run_probes(args.workload, args.seed, args.scale);
    let spans = rec.spans();
    let mut failures: Vec<String> = plain.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    failures.extend(mismatch(&plain, &traced, "traced pass vs plain pass"));
    let attempted = plain.attempted + traced.attempted;
    let values = metrics::per_layer_values(&plain, &traced, &spans, &probes);
    finish(
        out,
        spans::render(&spans),
        attempted,
        failures,
        &metrics::per_layer(),
        &values,
    )
}

fn finish(
    mut out: String,
    stderr: String,
    attempted: u64,
    failures: Vec<String>,
    catalogue: &[(String, &'static str)],
    values: &BTreeMap<String, f64>,
) -> Outcome {
    for f in &failures {
        let _ = writeln!(out, "FAILED: {f}");
    }
    let failed = (failures.len() as u64).min(attempted);
    let correct = failures.is_empty();
    let _ = writeln!(out, "attempted={attempted} failed={failed}");
    let _ = writeln!(
        out,
        "{}",
        metrics::result_json(correct, attempted.max(1), failed, catalogue, values)
    );
    Outcome {
        stdout: out,
        stderr,
        correct,
    }
}
