//! `all`: every workload, both modes, one table and one result file.
//! `compare`: two result files judged by the bounds in `BENCHMARK.json`.

use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::{stats, Args, DEFAULT_SEED};

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str).map(str::to_string);
            Some(Bound {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed `end_to_end` entry".to_string())
}

fn run_seconds(args: &Args) -> Result<f64, String> {
    let from_spec = match args.get("spec") {
        Some(path) => read_json(path)?.get("run_seconds").and_then(Json::as_f64),
        None => None,
    };
    args.number("seconds", from_spec.unwrap_or(10.0))
}

/// Values of `metric` on `workload` among a result file's runs of one mode.
fn values(runs: &[Json], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace") == Some(&Json::Bool(traced))
        })
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn print_summary(runs: &[Json]) {
    for (title, traced, metrics) in [
        ("end-to-end (untraced rounds)", false, &END_TO_END[..]),
        ("per-layer (traced run)", true, &PER_LAYER[..]),
    ] {
        println!();
        println!("== {title}: median over runs [IQR/median, n] ==");
        print!("{:<44} {:<6}", "metric", "unit");
        for w in &WORKLOADS {
            print!(" {:>26}", w.name);
        }
        println!();
        for (metric, unit) in metrics {
            print!("{metric:<44} {unit:<6}");
            for w in &WORKLOADS {
                let v = values(runs, w.name, traced, metric);
                let median = stats::median(&v).unwrap_or(f64::NAN);
                let spread =
                    stats::spread(&v).map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
                print!(" {:>26}", format!("{median:.3} [{spread}, {}]", v.len()));
            }
            println!();
        }
    }
}

pub fn all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed", DEFAULT_SEED)?;
    let repeat: u64 = args.number("repeat", 1)?;
    let seconds = run_seconds(args)?;
    let out_dir = args.out_dir();
    let mut runs = Vec::new();
    let mut incorrect = 0;
    for rep in 0..repeat {
        for workload in &WORKLOADS {
            for traced in [false, true] {
                println!();
                println!(
                    "### {} seed {} ({}) ###",
                    workload.name,
                    seed + rep,
                    if traced {
                        "traced run"
                    } else {
                        "untraced rounds"
                    }
                );
                let result = crate::run_once(workload, seed + rep, seconds, traced, &out_dir)?;
                if result.get("correct") != Some(&Json::Bool(true)) {
                    incorrect += 1;
                }
                runs.push(Json::obj([
                    ("workload", Json::str(workload.name)),
                    ("seed", Json::Num((seed + rep) as f64)),
                    ("trace", Json::Bool(traced)),
                    ("result", result),
                ]));
            }
        }
    }
    print_summary(&runs);
    let suite = Json::obj([
        ("bench", Json::str("fedra-e2e")),
        ("host_cores", Json::Num(host_cores() as f64)),
        ("seconds", Json::Num(seconds)),
        ("first_seed", Json::Num(seed as f64)),
        ("repeat", Json::Num(repeat as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = args
        .get("save")
        .map_or_else(|| out_dir.join("suite.json"), std::path::PathBuf::from);
    std::fs::write(&path, suite.encode() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!();
    println!(
        "host_cores {}, {repeat} run(s) per workload and mode, {seconds} s each; results in {}",
        host_cores(),
        path.display()
    );
    if incorrect > 0 {
        eprintln!("{incorrect} run(s) failed the correctness gate");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// How one (metric, workload) pair compares between two result files.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread inside either set is wider than the bound: the bound
    /// cannot tell a change from noise here.
    Unresolved,
}

/// `worse_by` is the share of A's median by which B is worse (negative
/// when B is better).
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return (Verdict::Unresolved, f64::NAN);
    };
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = if higher_is_better { -change } else { change };
    let noisy = [a, b]
        .iter()
        .filter_map(|set| stats::spread(set))
        .any(|spread| spread > bound);
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

fn runs_of<'a>(doc: &'a Json, path: &str) -> Result<&'a [Json], String> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no `runs` list"))
}

pub fn compare(args: &Args) -> Result<ExitCode, String> {
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("compare needs two result files: compare A.json B.json".into());
    };
    let spec = read_json(
        args.get("spec")
            .ok_or("--spec BENCHMARK.json is required")?,
    )?;
    let bounds = bounds(&spec)?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let (a_runs, b_runs) = (runs_of(&a, a_path)?, runs_of(&b, b_path)?);

    let mut regressed = 0;
    for (label, set) in [(a_path, a_runs), (b_path, b_runs)] {
        let bad = set
            .iter()
            .filter(|r| r.get("result").and_then(|x| x.get("correct")) != Some(&Json::Bool(true)))
            .count();
        if bad > 0 {
            println!("{label}: {bad} run(s) failed the correctness gate");
            regressed += bad;
        }
    }
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "metric", "workload", "median A", "median B", "worse by", "bound", "spread A", "spread B"
    );
    for bound in &bounds {
        for w in &WORKLOADS {
            let va = values(a_runs, w.name, false, &bound.name);
            let vb = values(b_runs, w.name, false, &bound.name);
            let (verdict, worse_by) = verdict(&va, &vb, bound.higher_is_better, bound.bound);
            let pct =
                |s: Option<f64>| s.map_or("n<2".to_string(), |s| format!("{:.1}%", 100.0 * s));
            println!(
                "{:<22} {:<18} {:>14.3} {:>14.3} {:>8.1}% {:>6.1}% {:>9} {:>9}  {} ({}; n={}/{})",
                bound.name,
                w.name,
                stats::median(&va).unwrap_or(f64::NAN),
                stats::median(&vb).unwrap_or(f64::NAN),
                100.0 * worse_by,
                100.0 * bound.bound,
                pct(stats::spread(&va)),
                pct(stats::spread(&vb)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                bound.unit,
                va.len(),
                vb.len(),
            );
            if verdict == Verdict::Regressed {
                regressed += 1;
            }
        }
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_applies_the_bound_in_the_metrics_direction() {
        let a = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: +20 % is a regression, −20 % is not.
        let slower = [120.0, 121.0, 119.0, 120.0];
        assert_eq!(verdict(&a, &slower, false, 0.1).0, Verdict::Regressed);
        assert_eq!(verdict(&slower, &a, false, 0.1).0, Verdict::Ok);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(verdict(&a, &slower, true, 0.1).0, Verdict::Ok);
        assert_eq!(verdict(&slower, &a, true, 0.1).0, Verdict::Regressed);
        let (v, worse_by) = verdict(&a, &[105.0; 4], false, 0.1);
        assert_eq!(v, Verdict::Ok);
        assert!((worse_by - 0.05).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        let noisy = [80.0, 130.0, 100.0, 150.0];
        assert_eq!(verdict(&steady, &noisy, false, 0.1).0, Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &steady, false, 0.1).0, Verdict::Unresolved);
        assert_eq!(verdict(&[], &steady, false, 0.1).0, Verdict::Unresolved);
        // One run per set: no spread to object to, medians decide.
        assert_eq!(
            verdict(&[100.0], &[150.0], false, 0.1).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn values_pick_one_workload_and_mode() {
        let run = |workload: &str, traced: bool, qps: f64| {
            Json::obj([
                ("workload", Json::str(workload)),
                ("trace", Json::Bool(traced)),
                (
                    "result",
                    Json::obj([(
                        "metrics",
                        Json::obj([("qps", Json::obj([("value", Json::Num(qps))]))]),
                    )]),
                ),
            ])
        };
        let runs = [
            run("a", false, 1.0),
            run("a", true, 2.0),
            run("b", false, 3.0),
            run("a", false, 4.0),
        ];
        assert_eq!(values(&runs, "a", false, "qps"), vec![1.0, 4.0]);
        assert_eq!(values(&runs, "a", true, "qps"), vec![2.0]);
        assert!(values(&runs, "a", false, "absent").is_empty());
    }
}
