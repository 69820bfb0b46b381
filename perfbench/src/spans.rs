//! In-memory span recording around calls into the simulator's layers.
//!
//! A [`Recorder`] wraps each call the benchmark makes in a span (layer,
//! call name, label, start, end, parent). Spans stay in memory and are
//! written out when the benchmark ends. A disabled recorder calls
//! straight through, so the untraced pass pays one branch per call.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use system::Paradigm;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Crate the call enters (`system`, `workloads`, ...).
    pub layer: &'static str,
    /// The public function called.
    pub call: &'static str,
    /// What the call worked on (app, rung, paradigm).
    pub label: String,
    /// Paradigm of a per-paradigm call, for per-paradigm totals.
    pub paradigm: Option<Paradigm>,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall seconds the call took.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans when enabled; calls straight through when not.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    log: Option<Mutex<Log>>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            t0: Instant::now(),
            log: None,
        }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Recorder {
            t0: Instant::now(),
            log: Some(Mutex::new(Log::default())),
        }
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Log>> {
        self.log
            .as_ref()
            .map(|m| m.lock().expect("span log poisoned by a panicking call"))
    }

    /// Runs `f` inside a span. `label` is only evaluated when recording.
    pub fn span<T>(
        &self,
        layer: &'static str,
        call: &'static str,
        paradigm: Option<Paradigm>,
        label: impl FnOnce() -> String,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(mut log) = self.lock() else {
            return f();
        };
        let idx = log.spans.len();
        let parent = log.open.last().copied();
        log.spans.push(Span {
            layer,
            call,
            label: label(),
            paradigm,
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
            parent,
        });
        log.open.push(idx);
        drop(log);
        let out = f();
        let mut log = self.lock().expect("recording");
        log.spans[idx].end = self.t0.elapsed().as_secs_f64();
        log.open.pop();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().map(|l| l.spans.clone()).unwrap_or_default()
    }
}

/// Total inclusive seconds of spans of `call`, optionally restricted to
/// one paradigm.
pub fn total_secs(spans: &[Span], call: &str, paradigm: Option<Paradigm>) -> f64 {
    spans
        .iter()
        .filter(|s| s.call == call && (paradigm.is_none() || s.paradigm == paradigm))
        .map(Span::secs)
        .sum()
}

/// Self time per layer: each span's duration minus the part its child
/// spans cover, summed by layer, in first-seen order.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_secs = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for (s, child) in spans.iter().zip(&child_secs) {
        let own = s.secs() - child;
        match layers.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, t)) => *t += own,
            None => layers.push((s.layer, own)),
        }
    }
    layers
}

/// Renders the span tree (one line per span, indented by depth) and
/// the per-layer self-time table.
pub fn render(spans: &[Span]) -> String {
    let mut depth = vec![0usize; spans.len()];
    let mut out = String::from("spans (id parent layer call label start_s end_s):\n");
    for (i, s) in spans.iter().enumerate() {
        depth[i] = s.parent.map_or(0, |p| depth[p] + 1);
        let _ = writeln!(
            out,
            "{:indent$}{i} {} {} {} [{}] {:.6} {:.6}",
            "",
            s.parent.map_or("-".to_string(), |p| p.to_string()),
            s.layer,
            s.call,
            s.label,
            s.start,
            s.end,
            indent = 2 * depth[i],
        );
    }
    let layers = self_time_by_layer(spans);
    let total: f64 = layers.iter().map(|(_, t)| t).sum();
    let _ = writeln!(out, "self time by layer:");
    for (layer, t) in layers {
        let _ = writeln!(
            out,
            "  {layer:<10} {t:>10.4} s  {:>5.1}%",
            100.0 * t / total.max(f64::MIN_POSITIVE)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let rec = Recorder::on();
        rec.span("bench", "outer", None, String::new, || {
            rec.span("system", "inner", None, String::new, || {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            })
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].secs() >= spans[1].secs());
        let layers = self_time_by_layer(&spans);
        let sum: f64 = layers.iter().map(|(_, t)| t).sum();
        assert!((sum - spans[0].secs()).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::off();
        let v = rec.span("bench", "x", None, || unreachable!(), || 7);
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }
}
