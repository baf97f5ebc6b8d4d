//! The two commands for people: `run` starts every workload, each run in
//! a child process of its own (so set-up time and peak memory are per
//! workload), and writes one result file; `compare` holds two result
//! files against the bounds.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::sorted;
use crate::workloads::Workload;

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    /// End-to-end runs per workload, each with the next seed. Their
    /// spread is what `compare` needs to tell `same` from `unresolved`.
    pub runs: usize,
    pub quick: bool,
    pub out: String,
}

/// Traced operations of a `--quick` run (bulk, sessions).
const QUICK_TRACED_OPS: (usize, usize) = (4, 2000);
const QUICK_SECONDS: f64 = 2.0;

/// The quartiles of `values`, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule).
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let rank = (i + 1) * (n + 1);
        let j = (rank / 4).clamp(1, n - 1);
        let delta = rank as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Start one run of one workload as a child of this executable and
/// return its detail line (if any) and result line.
fn child(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced_ops: Option<usize>,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(n) = traced_ops {
        cmd.args(["--traced-ops", &n.to_string()]);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{}: no output ({})", w.name(), output.status))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{}: result line: {e}", w.name())))?;
    let detail = lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|d| d.get("detail").cloned())
        .unwrap_or(Json::Null);
    Ok((detail, result))
}

/// The value a result line reports for metric `name`.
fn metric_value<'a>(result: &'a Json, w: Workload, name: &str) -> Result<&'a Json, String> {
    result
        .get("metrics")
        .and_then(|ms| ms.get(name))
        .and_then(|mv| mv.get("value"))
        .ok_or_else(|| format!("{}: no {name} in the result", w.name()))
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Run everything, print the table, write `opts.out`. `Ok(false)` when
/// any operation failed.
pub fn run_all(opts: &RunOpts) -> Result<bool, String> {
    let seconds = if opts.quick {
        QUICK_SECONDS
    } else {
        opts.seconds
    };
    let mut workloads = Json::obj();
    let mut clean = true;
    for w in Workload::ALL {
        println!("== {} — {}", w.name(), w.why());
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut details = Vec::new();
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for r in 0..opts.runs {
            let (detail, result) = child(w, opts.seed + r as u64, seconds, false, None)?;
            attempted += count(&result, "attempted");
            failed += count(&result, "failed");
            for (m, vs) in END_TO_END.iter().zip(&mut values) {
                let v = metric_value(&result, w, m.name)?;
                vs.push(v.as_f64().unwrap_or(f64::NAN));
            }
            details.push(detail);
        }
        let mut end_to_end = Json::obj();
        for (m, vs) in END_TO_END.iter().zip(&values) {
            let s = sorted(vs.clone());
            println!(
                "  {:<34} {:>14.3} {:<6} (min {:.3}, max {:.3}, {} run{})",
                m.name,
                crate::stats::median(vs),
                m.unit,
                s[0],
                s[s.len() - 1],
                vs.len(),
                if vs.len() == 1 { "" } else { "s" },
            );
            end_to_end = end_to_end.set(
                m.name,
                Json::obj().set("unit", m.unit).set(
                    "values",
                    vs.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
                ),
            );
        }
        let traced_ops = opts.quick.then_some(if w.is_sessions() {
            QUICK_TRACED_OPS.1
        } else {
            QUICK_TRACED_OPS.0
        });
        let (detail, result) = child(w, opts.seed, seconds, true, traced_ops)?;
        attempted += count(&result, "attempted");
        failed += count(&result, "failed");
        let mut per_layer = Json::obj();
        for m in PER_LAYER {
            let v = metric_value(&result, w, m.name)?.clone();
            println!(
                "  {:<34} {:>14.4} {}",
                m.name,
                v.as_f64().unwrap_or(f64::NAN),
                m.unit
            );
            per_layer = per_layer.set(m.name, Json::obj().set("unit", m.unit).set("value", v));
        }
        println!("  fail_ratio {} / {}", failed, attempted);
        println!("  end-to-end detail: {}", Json::Arr(details.clone()));
        println!("  traced detail:     {detail}");
        clean &= failed == 0.0;
        workloads = workloads.set(
            w.name(),
            Json::obj()
                .set("attempted", attempted)
                .set("failed", failed)
                .set("end_to_end", end_to_end)
                .set("per_layer", per_layer)
                .set("end_to_end_detail", details)
                .set("traced_detail", detail),
        );
    }
    let doc = Json::obj()
        .set(
            "benchmark",
            concat!("panda-benchmark ", env!("CARGO_PKG_VERSION")),
        )
        .set("seed", opts.seed)
        .set("seconds", seconds)
        .set("runs", opts.runs)
        .set("quick", opts.quick)
        .set("workloads", workloads);
    if let Some(dir) = Path::new(&opts.out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, format!("{doc}\n")).map_err(|e| format!("{}: {e}", opts.out))?;
    println!("wrote {}", opts.out);
    Ok(clean)
}

/// One row of `compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Regressed,
    /// The runs of one side spread wider than the bound, so a change
    /// of the bound's size could not be told from noise.
    Unresolved,
}

/// Judge one metric: `a` is the baseline's values, `b` the candidate's.
/// Returns the verdict, the worsening as a share of `a`'s median
/// (negative = better) and the wider of the two sides' spreads
/// (interquartile range over median).
///
/// `spread_gated` is false for `setup_s`, as in the driver's rule: a
/// set-up is a fraction of a second, its spread is reported, and only
/// its median is held to the bound.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
    spread_gated: bool,
) -> (Verdict, f64, f64) {
    let (ma, mb) = (crate::stats::median(a), crate::stats::median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = |v: &[f64], m: f64| quartiles(v).map_or(0.0, |q| (q[2] - q[0]) / m);
    let spread = spread(a, ma).max(spread(b, mb));
    let verdict = if spread > bound && spread_gated {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Same
    };
    (verdict, worse, spread)
}

/// Compare two result files. `Ok(false)` when a metric regressed or an
/// operation failed in either file.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:<15} {:<14} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "spread", "bound"
    );
    for w in Workload::ALL {
        let side = |doc: &Json, path: &str| -> Result<Json, String> {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .cloned()
                .ok_or_else(|| format!("{path}: no workload {}", w.name()))
        };
        let (wa, wb) = (side(&a, a_path)?, side(&b, b_path)?);
        for (doc, path) in [(&wa, a_path), (&wb, b_path)] {
            let failed = count(doc, "failed");
            if failed > 0.0 {
                println!("{:<15} {failed} failed operations in {path}", w.name());
                ok = false;
            }
        }
        for m in END_TO_END {
            let values = |doc: &Json, path: &str| -> Result<Vec<f64>, String> {
                let vs: Vec<f64> = doc
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get("values"))
                    .map(|vs| vs.items().iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default();
                if vs.is_empty() {
                    return Err(format!("{path}: {} has no {}", w.name(), m.name));
                }
                Ok(vs)
            };
            let (va, vb) = (values(&wa, a_path)?, values(&wb, b_path)?);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let (verdict, worse, spread) = judge(&va, &vb, m.better, bound, m.name != "setup_s");
            ok &= verdict != Verdict::Regressed;
            println!(
                "{:<15} {:<14} {:>14.3} {:>14.3} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                w.name(),
                m.name,
                crate::stats::median(&va),
                crate::stats::median(&vb),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn judge_applies_the_bound_in_the_direction_that_is_worse() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.0];
        let slower = [89.0, 88.0, 88.5, 89.0, 88.0];
        // Throughput down 11.5 %: regressed at a bound of 10 %.
        let (v, worse, _) = judge(&steady, &slower, Better::Higher, 0.10, true);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.115).abs() < 1e-9);
        // The same numbers as a latency got better, which is `same`.
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.10, true).0,
            Verdict::Same
        );
        // Within the bound.
        assert_eq!(
            judge(&steady, &[95.0], Better::Higher, 0.10, true).0,
            Verdict::Same
        );
        // One side's runs spread wider than the bound: cannot tell.
        let wild = [70.0, 100.0, 130.0, 85.0, 115.0];
        assert_eq!(
            judge(&steady, &wild, Better::Higher, 0.10, true).0,
            Verdict::Unresolved
        );
        // ... unless the metric's spread is exempt, as set-up time's is.
        assert_eq!(
            judge(&steady, &wild, Better::Higher, 0.10, false).0,
            Verdict::Same
        );
    }
}
