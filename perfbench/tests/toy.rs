//! Every workload at toy size, untraced and traced: every metric the
//! benchmark declares is emitted with its declared unit, and every
//! correctness check passes.

use std::path::PathBuf;

use fdmax_perfbench::json::Json;
use fdmax_perfbench::probes::PER_LAYER;
use fdmax_perfbench::{run, Options, RunResult, Scale, Workload, END_TO_END, HELD_OUT_SEED};

fn toy(workload: Workload, seed: u64, trace: bool) -> RunResult {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("toy-{}-{seed}-{trace}", workload.name()));
    let result = run(&Options {
        workload,
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::Toy,
        out_dir: out_dir.clone(),
    })
    .expect("toy run");
    std::fs::remove_dir_all(&out_dir).expect("clean up the toy output");
    result
}

fn assert_declared(result: &RunResult, declared: &[(&str, &str)], what: &str) {
    let names: Vec<&str> = result.metrics.0.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "{what}: emitted metric names");
    for (m, (_, unit)) in result.metrics.0.iter().zip(declared) {
        assert_eq!(m.unit, *unit, "{what}: unit of {}", m.name);
        assert!(m.value.is_finite(), "{what}: {} is {}", m.name, m.value);
    }
}

fn assert_correct(result: &RunResult, what: &str) {
    assert!(result.correct, "{what}: a correctness check failed");
    assert!(result.attempted >= 1, "{what}: nothing attempted");
    assert_eq!(result.failed, 0, "{what}: unserved jobs");
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_pass_their_checks() {
    for w in Workload::ALL {
        let r = toy(w, 7, false);
        assert_declared(&r, &END_TO_END, w.name());
        assert_correct(&r, w.name());
        let served = r.metrics.get("served_frac").expect("declared");
        assert_eq!(served, 1.0, "{}", w.name());
        for (name, _) in END_TO_END {
            assert!(
                r.metrics.get(name).expect("declared") > 0.0,
                "{}: {name} must never be zero",
                w.name()
            );
        }
        let line = r.contract_line();
        assert!(
            line.starts_with(r#"{"correct":true,"attempted":"#),
            "{line}"
        );
        assert!(r.report.get("host").is_some());
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_with_balanced_self_times() {
    for w in Workload::ALL {
        let r = toy(w, 7, true);
        assert_declared(&r, &PER_LAYER, w.name());
        assert_correct(&r, w.name());
        assert!(r.tracer.self_times_balance(), "{}", w.name());
        let summary = r.report.get("trace_summary").expect("traced report");
        assert_eq!(summary.get("self_times_balance"), Some(&Json::Bool(true)));
        for layer in [
            "kernels",
            "engine",
            "session",
            "tiled",
            "sim",
            "analysis",
            "durability",
            "service",
            "frontend",
        ] {
            let v = r.metrics.get(&format!("self_s.{layer}")).expect("declared");
            assert!(v > 0.0, "{}: no time recorded in layer {layer}", w.name());
        }
    }
}

#[test]
fn held_out_seed_passes_every_check() {
    for w in Workload::ALL {
        assert_correct(&toy(w, HELD_OUT_SEED, false), w.name());
    }
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let squeezed: String = text.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(r#""name":"{name}","unit":"{unit}""#);
        assert!(squeezed.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(squeezed.contains(&format!(r#""name":"{}""#, w.name())));
    }
    let declared = squeezed.matches(r#""unit":"#).count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}
