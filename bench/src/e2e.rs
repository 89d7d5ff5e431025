//! The `--trace 0` run: check pass, then rounds of build → warm-up → timed
//! window with observability off. Every end-to-end metric comes from here.

use std::time::Duration;

use crate::check::{self, Evidence, Oracle};
use crate::inputs::{Inputs, CHECK_QUERIES};
use crate::json::Json;
use crate::spec::END_TO_END;
use crate::stats;
use crate::workloads::{self, CheckPass, Observe, Workload};

/// Timed windows per run, each on a fresh federation. Many short windows
/// rather than a few long ones: on a shared host a window's speed depends on
/// what the neighbours do during it and on where the fresh federation's
/// threads land, so the run samples that sixteen times.
pub const ROUNDS: usize = 16;
/// Untimed closed-loop traffic before each window, so lazy set-up (socket
/// connects, pool threads, allocator growth) is not charged to the window.
pub const WARMUP: Duration = Duration::from_millis(150);

/// What any run hands back to `main` for the final result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// `(name, unit, value)` in `spec` order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Everything else worth keeping (per-round values, sample counts, the
    /// span log): written to `bench/out/`, never parsed by the driver.
    pub detail: Json,
}

/// Judges a check pass against the oracle and returns the violations
/// along with the pass's MRE in percent.
pub fn judge(
    workload: &Workload,
    pass: &CheckPass,
    truth: &[f64],
    extra_replays: &[(String, Vec<f64>)],
    failed: u64,
) -> (Vec<String>, f64) {
    let replays: Vec<(&str, &[f64])> = pass
        .replays
        .iter()
        .chain(extra_replays)
        .map(|(what, answers)| (what.as_str(), answers.as_slice()))
        .collect();
    let mut violations = check::violations(&Evidence {
        answers: &pass.answers,
        truth,
        mre_ceiling_pct: workload.mre_ceiling_pct,
        replays: &replays,
        failed,
    });
    violations.extend(pass.violations.iter().cloned());
    let mre = if pass.answers.len() == truth.len() {
        check::mre_pct(&pass.answers, truth)
    } else {
        f64::NAN
    };
    (violations, mre)
}

/// The oracle's `(COUNT, SUM)` tallies for the check queries.
pub fn tallies(inputs: &Inputs) -> Vec<(f64, f64)> {
    Oracle::new(&inputs.partitions).tallies(
        &inputs.pool[..CHECK_QUERIES],
        workloads::generator_threads(),
    )
}

/// The true answers to the check queries, from their tallies.
pub fn truth(inputs: &Inputs, tallies: &[(f64, f64)]) -> Vec<f64> {
    inputs
        .pool
        .iter()
        .zip(tallies)
        .map(|(q, &t)| check::true_value(q, t))
        .collect()
}

/// How a metric's per-round values become the one value the run reports.
#[derive(Clone, Copy)]
enum Summary {
    /// Plain median of the rounds: counts and sizes, which no neighbour
    /// on the host can change.
    Median,
    /// Median of the better half of the rounds (see
    /// [`stats::better_half_median`]): wall-clock timings.
    BetterHalf { higher_is_better: bool },
}

impl Summary {
    fn of(self, samples: &[f64]) -> f64 {
        match self {
            Summary::Median => stats::median(samples),
            Summary::BetterHalf { higher_is_better } => {
                stats::better_half_median(samples, higher_is_better)
            }
        }
        .unwrap_or(f64::NAN)
    }
}

/// Prints one metric's reported value next to the plain median, IQR and
/// per-round values it came from.
fn describe(label: &str, unit: &str, summary: Summary, samples: &[f64]) -> f64 {
    let reported = summary.of(samples);
    let median = stats::median(samples).unwrap_or(f64::NAN);
    let iqr = stats::quartiles(samples).map_or(f64::NAN, |(q1, q3)| q3 - q1);
    let per_round: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
    println!(
        "  {label:<22} {reported:>12.4} {unit:<4} (median {median:.4}, IQR {iqr:.4}, n={})  rounds [{}]",
        samples.len(),
        per_round.join(", ")
    );
    reported
}

pub fn run(workload: &Workload, inputs: &Inputs, seconds: f64) -> Outcome {
    let truth = truth(inputs, &tallies(inputs));
    let window = Duration::from_secs_f64(seconds / ROUNDS as f64);

    // One value per round of everything the run reports.
    let mut setup_s = Vec::new();
    let mut qps = Vec::new();
    let mut p50_us = Vec::new();
    let mut comm_bytes = Vec::new();
    let mut index_mem_mb = Vec::new();
    let mut latencies_us = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut checked = None;
    for round in 0..ROUNDS {
        let (federation, built_in) = workloads::stand_up(inputs, workload.backend);
        setup_s.push(built_in);
        index_mem_mb.push(workloads::index_mem_mb(&federation));
        if round == 0 {
            let pass = workloads::check_pass(workload, inputs, &federation);
            attempted += CHECK_QUERIES as u64;
            failed += pass.failed;
            checked = Some(pass);
        }
        workloads::run_window(workload, inputs, &federation, WARMUP, 0, &Observe::Off);
        let comm_before = federation.query_comm();
        let measured = workloads::run_window(
            workload,
            inputs,
            &federation,
            window,
            round as u64,
            &Observe::Off,
        );
        let comm = federation.query_comm().since(&comm_before);
        attempted += measured.queries;
        failed += measured.failed;
        qps.push(measured.qps());
        p50_us.push(stats::median(&measured.latencies_us).unwrap_or(f64::NAN));
        comm_bytes.push(comm.total_bytes() as f64 / measured.queries.max(1) as f64);
        latencies_us.extend(measured.latencies_us);
    }
    let pass = checked.expect("round 0 ran the check pass");
    let (violations, mre_pct) = judge(workload, &pass, &truth, &[], failed);

    println!(
        "{}: {} rounds of {:.2} s after {:.2} s warm-up, check pass of {CHECK_QUERIES} queries",
        workload.name,
        ROUNDS,
        window.as_secs_f64(),
        WARMUP.as_secs_f64()
    );
    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (summary, samples) = match name {
                "setup_s" => (
                    Summary::BetterHalf {
                        higher_is_better: false,
                    },
                    &setup_s,
                ),
                "qps" => (
                    Summary::BetterHalf {
                        higher_is_better: true,
                    },
                    &qps,
                ),
                "latency_p50_us" => (
                    Summary::BetterHalf {
                        higher_is_better: false,
                    },
                    &p50_us,
                ),
                "comm_bytes_per_query" => (Summary::Median, &comm_bytes),
                "index_mem_mb" => (Summary::Median, &index_mem_mb),
                other => unreachable!("{other} is declared but not measured"),
            };
            (name, unit, describe(name, unit, summary, samples))
        })
        .collect();

    let p95 = stats::percentile(&latencies_us, 95.0);
    let p99 = stats::percentile(&latencies_us, 99.0);
    let tail = |p: Option<f64>| {
        p.map_or("omitted (<10 samples beyond it)".to_string(), |v| {
            format!("{v:.1} us")
        })
    };
    println!(
        "  latency over {} operations pooled across rounds: p50 {}, p95 {}, p99 {}",
        latencies_us.len(),
        tail(stats::percentile(&latencies_us, 50.0)),
        tail(p95),
        tail(p99),
    );
    println!(
        "  check pass: comm {:.3} B/query, mre_pct {mre_pct:.4} % (ceiling {}); failed {failed}/{attempted}",
        pass.comm_bytes_per_query, workload.mre_ceiling_pct
    );

    let detail = Json::obj([
        ("setup_s_rounds", Json::nums(&setup_s)),
        ("qps_rounds", Json::nums(&qps)),
        ("latency_p50_us_rounds", Json::nums(&p50_us)),
        ("comm_bytes_per_query_rounds", Json::nums(&comm_bytes)),
        ("index_mem_mb_rounds", Json::nums(&index_mem_mb)),
        (
            "check_pass_comm_bytes_per_query",
            Json::Num(pass.comm_bytes_per_query),
        ),
        ("latency_samples", Json::Num(latencies_us.len() as f64)),
        ("latency_p95_us", p95.map_or(Json::Null, Json::Num)),
        ("latency_p99_us", p99.map_or(Json::Null, Json::Num)),
        ("mre_pct", Json::finite(mre_pct)),
        ("generate_s", Json::Num(inputs.generate_s)),
    ]);
    Outcome {
        attempted,
        failed,
        violations,
        metrics,
        detail,
    }
}
