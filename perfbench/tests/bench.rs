//! The benchmark's own tests, on reduced-scale inputs. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use finepack_perfbench::passes::{run_pass, BenchWorkload, Scale};
use finepack_perfbench::reference::{FIDELITY_METRICS, HELD_OUT};
use finepack_perfbench::spans::Recorder;
use finepack_perfbench::Args;
use gpu_model::GpuId;

const SMALL: Scale = Scale {
    scale_down: 16,
    iterations: 1,
};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, which
/// keeps one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |line: &str, key: &str| {
        let tail = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(tail[..tail.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// Runs the benchmark as `main` does, on reduced-scale inputs, and
/// returns whether it succeeded and its last line of output.
fn run_small(workload: BenchWorkload, trace: bool) -> (bool, String) {
    let out = finepack_perfbench::run(&Args {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        scale: SMALL,
    });
    let last = out
        .stdout
        .lines()
        .last()
        .expect("a result line")
        .to_string();
    (out.correct, last)
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let catalogues = [
        (
            false,
            "end_to_end",
            finepack_perfbench::metrics::end_to_end(),
        ),
        (true, "per_layer", finepack_perfbench::metrics::per_layer()),
    ];
    for (trace, section, catalogue) in catalogues {
        let declared = declared(section);
        let ours: Vec<(String, String)> = catalogue
            .iter()
            .map(|(n, u)| (n.clone(), (*u).to_string()))
            .collect();
        assert_eq!(declared, ours, "{section} differs from BENCHMARK.json");
        for w in BenchWorkload::ALL {
            let (ok, last) = run_small(w, trace);
            assert!(ok, "{} (traced: {trace}) failed: {last}", w.name());
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(last.contains("\"failed\": 0,"), "{last}");
            for (name, unit) in &declared {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{name} missing"));
                let rest = &last[at..];
                let end = rest.find('}').expect("entry closes");
                assert!(
                    rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{name} has the wrong unit: {}",
                    &rest[..end]
                );
            }
        }
    }
}

#[test]
fn traced_pass_counts_equal_plain_pass_counts() {
    for w in BenchWorkload::ALL {
        let plain = run_pass(w, 3, SMALL, &Recorder::off());
        let rec = Recorder::on();
        let traced = run_pass(w, 3, SMALL, &rec);
        assert_eq!(plain.counts, traced.counts, "{}", w.name());
        assert_eq!(plain.rendered, traced.rendered, "{}", w.name());
        assert_eq!(plain.ops, traced.ops, "{}", w.name());
        let spans = rec.spans();
        let top: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(top.len(), 1, "one top-level span per pass");
        assert_eq!(top[0].call, "pass");
        assert!(spans.iter().any(|s| s.call == "Workload::trace"));
        assert!(spans.iter().any(|s| s.call == "PreparedWorkload::try_run"));
        let covered = top[0].secs();
        assert!(covered <= traced.wall_s && covered > 0.9 * traced.wall_s);
    }
}

#[test]
fn same_seed_repeats_and_another_seed_changes_the_inputs() {
    for w in BenchWorkload::ALL {
        let a = run_pass(w, 11, SMALL, &Recorder::off());
        let b = run_pass(w, 11, SMALL, &Recorder::off());
        assert_eq!(a.counts, b.counts, "{}", w.name());
        assert_eq!(a.rendered, b.rendered, "{}", w.name());
        let trace_of = |seed| {
            w.points(seed, SMALL)
                .iter()
                .map(|p| p.app.trace(&p.spec, 0, GpuId::new(0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(trace_of(11), trace_of(11));
        assert_ne!(
            trace_of(11),
            trace_of(12),
            "{}: seed must reach the inputs",
            w.name()
        );
    }
}

#[test]
fn reduced_scale_smoke_runs_have_no_failures() {
    for w in BenchWorkload::ALL {
        let pass = run_pass(w, 1, SMALL, &Recorder::off());
        assert!(pass.attempted > 0);
        assert!(
            pass.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            pass.failures
        );
        assert!(pass.ops > 0 && pass.wall_s > 0.0);
    }
    let pass = run_pass(BenchWorkload::FaultyAudit, 1, SMALL, &Recorder::off());
    assert_eq!(
        pass.attempted, 8,
        "2 apps x 2 paradigms, each run and audited"
    );
}

#[test]
fn bad_arguments_are_rejected() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "fig9-suite", "--trace", "2"],
        vec!["--workload", "fig9-suite", "--bogus", "1"],
        vec!["--workload", "fig9-suite", "--seed"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// The recorded held-out fidelity errors, at paper scale (several
/// seconds per seed in a release build).
#[test]
#[ignore = "paper scale; run with --release -- --ignored"]
fn held_out_fidelity_errors_match_the_record() {
    for (seed, recorded) in HELD_OUT {
        let pass = run_pass(
            BenchWorkload::Fig9Suite,
            seed,
            Scale::PAPER,
            &Recorder::off(),
        );
        let errors = pass.headline.expect("fig9 headline").errors();
        for ((name, got), want) in FIDELITY_METRICS.iter().zip(errors).zip(recorded) {
            assert!(
                (got - want).abs() < 0.01,
                "seed {seed} {name}: {got:.4} vs recorded {want}"
            );
        }
    }
}
