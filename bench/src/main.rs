//! `fedra-e2e`: the repo's layered end-to-end benchmark. See
//! `bench/README.md`; run it through `bench/run.sh`.

mod check;
mod e2e;
mod inputs;
mod json;
mod layers;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

/// `--seed` when none is given (the `all` mode's first seed).
pub const DEFAULT_SEED: u64 = 20220509;

const USAGE: &str = "\
usage: fedra-e2e run --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
       fedra-e2e all [--seed N] [--seconds S] [--repeat K] [--out DIR] --spec BENCHMARK.json
       fedra-e2e compare A.json B.json --spec BENCHMARK.json";

/// `--flag value` pairs plus positional arguments.
pub struct Args {
    flags: Vec<(String, String)>,
    pub positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
        }
    }

    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or("bench/out"))
    }
}

/// One run of one workload, as the driver's contract defines it. Returns
/// the result line's JSON (and writes the detail file) or an error.
pub fn run_once(
    workload: &workloads::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &std::path::Path,
) -> Result<Json, String> {
    let inputs = inputs::Inputs::generate(seed);
    let outcome = if traced {
        layers::run(workload, &inputs, seconds)
    } else {
        e2e::run(workload, &inputs, seconds)
    };
    for violation in &outcome.violations {
        eprintln!("INCORRECT {}: {violation}", workload.name);
    }
    if let Some((name, _, _)) = outcome.metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!(
            "{}: metric {name} has no finite value",
            workload.name
        ));
    }
    let result = Json::obj([
        ("correct", Json::Bool(outcome.violations.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|&(name, unit, value)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    let detail = Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(traced)),
        ("host_cores", Json::Num(suite::host_cores() as f64)),
        ("result", result.clone()),
        (
            "violations",
            Json::Arr(outcome.violations.iter().map(Json::str).collect()),
        ),
        ("detail", outcome.detail),
    ]);
    let file = if traced { "trace" } else { "e2e" };
    let path = out_dir.join(format!("{file}-{}.json", workload.name));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, detail.encode() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  detail written to {}", path.display());
    Ok(result)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or(format!("unknown workload `{name}`"))?;
    let seed: u64 = args.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", 10.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: bad value `{other}`")),
    };
    let result = run_once(workload, seed, seconds, traced, &args.out_dir())?;
    // The driver reads the last line of stdout. An incorrect run still
    // reports (with "correct": false) but exits non-zero, so the same
    // command is the correctness gate.
    println!("{}", result.encode());
    let correct = result.get("correct") == Some(&Json::Bool(true));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &raw[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match command {
        "run" => run(&args),
        "all" => suite::all(&args),
        "compare" => suite::compare(&args),
        _ => Err(USAGE.to_string()),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
