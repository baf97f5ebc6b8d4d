//! Self-tests that drive the real runtime: the timing wrappers change
//! nothing the program writes, and a run reports exactly what
//! `BENCHMARK.json` declares.

use panda_benchmark::json::Json;
use panda_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use panda_benchmark::run::{self, Args, Scratch};
use panda_benchmark::timed::Tracer;
use panda_benchmark::workloads::{Limit, Rig, Workload, CLIENTS};

/// Run a few operations of `w` and return the fingerprint of the files
/// it left, with or without the wrappers in place.
fn files_after(w: Workload, traced: bool) -> u64 {
    let scratch = Scratch::new().unwrap();
    let tracer = traced.then(|| Tracer::new(CLIENTS));
    let mut rig = Rig::start(w, 7, scratch.path(), tracer.clone()).unwrap();
    assert_eq!(rig.warmup.failed, 0, "{:?}", rig.warmup.errors);
    if let Some(t) = &tracer {
        t.arm(true);
    }
    let ops = if w.is_sessions() { 200 } else { 4 };
    let log = rig.phase(Limit::Ops(ops));
    assert_eq!(
        (log.attempted, log.failed),
        (ops as u64, 0),
        "{:?}",
        log.errors
    );
    let fnv = rig.seal_and_check().unwrap();
    rig.stop().unwrap();
    if let Some(t) = &tracer {
        let spans = t.take_spans();
        let ops_seen = spans.iter().filter(|s| s.name.starts_with("op.")).count();
        // One op span per client per collective; one per session op.
        let per_op = if w.is_sessions() { 1 } else { CLIENTS };
        assert_eq!(ops_seen, ops * per_op);
        assert!(spans.iter().any(|s| s.name.starts_with("fs.")));
        assert!(spans.iter().any(|s| s.name.starts_with("msg.")));
    }
    fnv
}

#[test]
fn wrapped_and_bare_runs_leave_byte_identical_files() {
    for w in Workload::ALL {
        assert_eq!(files_after(w, false), files_after(w, true), "{}", w.name());
    }
}

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_declares_exactly_the_registry() {
    let doc = declared();
    let check = |key: &str, metrics: &[Metric]| {
        let listed = doc.get(key).unwrap().items();
        assert_eq!(listed.len(), metrics.len(), "{key}");
        for (j, m) in listed.iter().zip(metrics) {
            assert!(well_formed(m.name), "{}", m.name);
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                j.get("better").unwrap().as_str(),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        }
    };
    check("end_to_end", END_TO_END);
    check("per_layer", PER_LAYER);
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    let workloads = doc.get("workloads").unwrap().items();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (j, w) in workloads.iter().zip(Workload::ALL) {
        assert!(well_formed(w.name()));
        assert_eq!(j.get("name").unwrap().as_str(), Some(w.name()));
        assert_eq!(j.get("why").unwrap().as_str(), Some(w.why()));
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
    }
    let paths: Vec<_> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .map(|p| p.as_str())
        .collect();
    assert_eq!(paths, [Some("benchmark")]);
}

/// Every name a run emits is declared for that workload, and every
/// declared name is emitted — with a unit, and a number that is one.
#[test]
fn a_run_emits_exactly_the_declared_metrics() {
    for (trace, metrics) in [(false, END_TO_END), (true, PER_LAYER)] {
        let outcome = run::run(&Args {
            workload: Workload::SmallSessions,
            seed: 3,
            seconds: 0.5,
            trace,
            traced_ops: Some(400),
        })
        .unwrap();
        assert_eq!(outcome.failed, 0, "{:?}", outcome.errors);
        let line = Json::parse(&outcome.result_line().to_string()).unwrap();
        let keys: Vec<_> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let emitted = line.get("metrics").unwrap().fields();
        assert_eq!(
            emitted.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            metrics.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for ((name, value), m) in emitted.iter().zip(metrics) {
            assert_eq!(value.get("unit").unwrap().as_str(), Some(m.unit), "{name}");
            let v = value.get("value").unwrap().as_f64();
            assert!(v.is_some_and(f64::is_finite), "{name}: {value}");
        }
    }
}
