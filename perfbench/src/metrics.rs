//! The metric catalogue (names and units, matching `BENCHMARK.json`) and
//! the assembly of each run's values.

use std::collections::BTreeMap;

use finepack::FlushReason;
use system::Paradigm;

use crate::passes::{rung_name, Pass, LADDER};
use crate::probes::Probes;
use crate::reference::FIDELITY_METRICS;
use crate::spans::{total_secs, Span};

/// Paradigms every per-paradigm metric is reported for.
pub const PARADIGMS: [Paradigm; 4] = Paradigm::FIG9;

/// Paradigms of the faulty-audit workload, which alone replays on the
/// data link layer and audits.
pub const AUDITED: [Paradigm; 2] = [Paradigm::P2pStores, Paradigm::FinePack];

/// End-to-end metrics: `(name, unit)`, printed with tracing off.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("wall_s".into(), "s"),
        ("setup_s".into(), "s"),
        ("ops_per_s".into(), "1/s"),
        ("peak_rss_mb".into(), "MiB"),
    ];
    m.extend(FIDELITY_METRICS.iter().map(|n| ((*n).to_string(), "%")));
    m
}

/// Per-layer metrics: `(name, unit)`, printed by the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit| m.push((name, unit));
    push("gpu_model.replay_s".into(), "s");
    push("gpu_model.replay_ops_per_s".into(), "1/s");
    push("gpu_model.remote_stores".into(), "count");
    push("gpu_model.mean_remote_bytes".into(), "B");
    push("gpu_model.single_gpu_s".into(), "s");
    push("workloads.trace_s".into(), "s");
    push("workloads.trace_ops".into(), "count");
    push("system.prepare_s".into(), "s");
    for (stem, unit) in [
        ("system.run_s", "s"),
        ("system.events", "count"),
        ("system.events_per_s", "1/s"),
        ("system.sim_time_us", "us"),
        ("system.stall_frac", "ratio"),
    ] {
        for p in PARADIGMS {
            push(format!("{stem}.{p}"), unit);
        }
    }
    push("system.report_s".into(), "s");
    push("core.egress_replay_s".into(), "s");
    push("core.packets".into(), "count");
    push("core.stores_per_packet".into(), "stores/packet");
    for reason in FlushReason::ALL {
        push(format!("core.flushes.{}", reason.label()), "count");
    }
    push("core.overwritten_bytes".into(), "B");
    for p in PARADIGMS {
        push(format!("protocol.wire_bytes.{p}"), "B");
    }
    for p in PARADIGMS {
        push(format!("protocol.fc_blocked_attempts.{p}"), "count");
    }
    for p in AUDITED {
        push(format!("protocol.replayed_bytes.{p}"), "B");
    }
    push("protocol.link_retrains".into(), "count");
    for p in AUDITED {
        push(format!("protocol.dll_s.{p}"), "s");
    }
    for p in AUDITED {
        push(format!("telemetry.audit_s.{p}"), "s");
    }
    push("telemetry.audit_over_run".into(), "ratio");
    push("telemetry.violations".into(), "count");
    for msg in LADDER {
        push(format!("sim.fp_over_dma.{}", rung_name(msg)), "ratio");
    }
    push("bench.trace_overhead_s".into(), "s");
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer values of a traced run: exact counts from the traced
/// pass, host times from its spans and from the probes, and the tracing
/// overhead against the plain pass. Metrics a workload does not
/// exercise read 0.
pub fn per_layer_values(
    plain: &Pass,
    traced: &Pass,
    spans: &[Span],
    probes: &Probes,
) -> BTreeMap<String, f64> {
    let c = |k: &str| traced.counts.get(k).copied().unwrap_or(0.0);
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    v.insert("gpu_model.replay_s".into(), probes.replay_s);
    v.insert(
        "gpu_model.replay_ops_per_s".into(),
        ratio(probes.replay_ops as f64, probes.replay_s),
    );
    for k in [
        "gpu_model.remote_stores",
        "gpu_model.mean_remote_bytes",
        "workloads.trace_ops",
        "core.packets",
        "core.overwritten_bytes",
        "protocol.link_retrains",
        "telemetry.violations",
    ] {
        v.insert(k.into(), c(k));
    }
    v.insert(
        "gpu_model.single_gpu_s".into(),
        total_secs(spans, "single_gpu_time", None),
    );
    v.insert(
        "workloads.trace_s".into(),
        total_secs(spans, "Workload::trace", None),
    );
    v.insert(
        "system.prepare_s".into(),
        total_secs(spans, "PreparedWorkload::new", None),
    );
    v.insert(
        "system.report_s".into(),
        total_secs(spans, "RunReport::canonical_json", None) + total_secs(spans, "render", None),
    );
    let (mut run_audited, mut audit_all) = (0.0, 0.0);
    for p in PARADIGMS {
        let run_s = total_secs(spans, "PreparedWorkload::try_run", Some(p));
        let events = c(&format!("system.events.{p}"));
        v.insert(format!("system.run_s.{p}"), run_s);
        v.insert(format!("system.events.{p}"), events);
        v.insert(format!("system.events_per_s.{p}"), ratio(events, run_s));
        v.insert(
            format!("system.sim_time_us.{p}"),
            c(&format!("system.sim_time_us.{p}")),
        );
        v.insert(
            format!("system.stall_frac.{p}"),
            ratio(
                c(&format!("system.stall_us.{p}")),
                c(&format!("system.gpu_time_us.{p}")),
            ),
        );
        for stem in ["protocol.wire_bytes", "protocol.fc_blocked_attempts"] {
            v.insert(format!("{stem}.{p}"), c(&format!("{stem}.{p}")));
        }
        if AUDITED.contains(&p) {
            let key = format!("protocol.replayed_bytes.{p}");
            v.insert(key.clone(), c(&key));
            let clean = probes.clean_run_s.get(&p.to_string()).copied();
            v.insert(
                format!("protocol.dll_s.{p}"),
                clean.map_or(0.0, |clean| run_s - clean),
            );
            let audit_s = total_secs(spans, "audit_run", Some(p));
            v.insert(format!("telemetry.audit_s.{p}"), audit_s);
            if audit_s > 0.0 {
                run_audited += run_s;
                audit_all += audit_s;
            }
        }
    }
    v.insert(
        "telemetry.audit_over_run".into(),
        ratio(audit_all, run_audited),
    );
    v.insert("core.egress_replay_s".into(), probes.egress_replay_s);
    v.insert(
        "core.stores_per_packet".into(),
        ratio(c("core.stores_aggregated"), c("core.packets")),
    );
    for reason in FlushReason::ALL {
        let key = format!("core.flushes.{}", reason.label());
        v.insert(key.clone(), c(&key));
    }
    for msg in LADDER {
        let key = format!("sim.fp_over_dma.{}", rung_name(msg));
        v.insert(key.clone(), c(&key));
    }
    v.insert(
        "bench.trace_overhead_s".into(),
        traced.wall_s - plain.wall_s,
    );
    v
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The last-line result object: `correct`, `attempted`, `failed` and
/// every metric with its unit. Values print with all their digits.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(String, &'static str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_use_allowed_characters() {
        let all: Vec<_> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<_> = all.iter().map(|(n, _)| n.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        for (name, unit) in &all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_json_prints_every_metric_with_its_unit() {
        let cat = vec![("a_s".to_string(), "s"), ("b".to_string(), "count")];
        let mut vals = BTreeMap::new();
        vals.insert("a_s".to_string(), 1.25);
        let line = result_json(true, 3, 0, &cat, &vals);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
