//! Empirical error vs the Sec. 6 theory: does practice beat the bounds?
//!
//! ```text
//! cargo run --release --example accuracy_theory
//! ```
//!
//! Two checks, each against its own theorem:
//!
//! 1. **Lemma 1 (local query).** Query one silo's LSR-Forest directly and
//!    compare its local error against the Chernoff failure bound at the
//!    selected level. The empirical violation rate must stay below δ-ish
//!    (the bound is loose, so usually far below).
//! 2. **Theorem 4 (end-to-end).** Run NonIID-est+LSR across the
//!    federation and compare against the combined bound
//!    `4·exp(−ε²·ans²/(2·sum₀²))`. At small ε the analytic bound is
//!    vacuous (≈100 %) — the interesting observation is how much better
//!    practice behaves.

use fedra::core::theory;
use fedra::federation::{LocalMode, Request, Response};
use fedra::prelude::*;

fn main() {
    let spec = WorkloadSpec::default()
        .with_total_objects(100_000)
        .with_silos(6)
        .with_seed(1717);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let federation = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(dataset.into_partitions());

    let mut generator = QueryGenerator::new(&all, 3);
    let ranges = generator.circles(2.0, 120);
    let queries: Vec<FraQuery> = ranges
        .iter()
        .map(|r| FraQuery::new(*r, AggFunc::Count))
        .collect();
    let exact = Exact::new();
    let truth: Vec<f64> = queries
        .iter()
        .map(|q| exact.execute(&federation, q).value)
        .collect();

    println!("{} queries, radius 2 km, |P| = 100k, m = 6", queries.len());

    // ---- Check 1: Lemma 1 at silo 0 -----------------------------------
    println!("\n[1] local LSR query at silo 0 vs the Lemma-1 bound (delta = 0.01):");
    println!(
        "{:>8} {:>12} {:>18} {:>16} {:>12}",
        "epsilon", "local MRE", "P[err > epsilon]", "Lemma-1 bound", "mean level"
    );
    let delta = 0.01;
    for &epsilon in &[0.05f64, 0.10, 0.15, 0.20, 0.25] {
        let mut err_sum = 0.0;
        let mut violations = 0usize;
        let mut counted = 0usize;
        let mut level_sum = 0.0;
        let mut bound_sum = 0.0;
        for r in &ranges {
            let local_exact = match federation.call(
                0,
                &Request::Aggregate {
                    range: *r,
                    mode: LocalMode::Exact,
                },
            ) {
                Ok(Response::Agg(a)) => a.count,
                other => panic!("unexpected {other:?}"),
            };
            if local_exact == 0.0 {
                continue;
            }
            let sum0 = fedra::core::helpers::sum0(&federation, r).count;
            let approx = match federation.call(
                0,
                &Request::Aggregate {
                    range: *r,
                    mode: LocalMode::Lsr {
                        epsilon,
                        delta,
                        sum0,
                    },
                },
            ) {
                Ok(Response::Agg(a)) => a.count,
                other => panic!("unexpected {other:?}"),
            };
            let rel = (approx - local_exact).abs() / local_exact;
            err_sum += rel;
            if rel > epsilon {
                violations += 1;
            }
            let level = theory::select_level(epsilon, delta, sum0);
            level_sum += level as f64;
            bound_sum += theory::lemma1_failure_bound(epsilon, level, local_exact);
            counted += 1;
        }
        println!(
            "{:>8.2} {:>11.2}% {:>17.1}% {:>15.1}% {:>12.1}",
            epsilon,
            err_sum / counted as f64 * 100.0,
            violations as f64 / counted as f64 * 100.0,
            bound_sum / counted as f64 * 100.0,
            level_sum / counted as f64,
        );
    }

    // ---- Check 2: Theorem 4 end-to-end --------------------------------
    println!("\n[2] NonIID-est+LSR end-to-end vs the Theorem-4 bound:");
    println!(
        "{:>8} {:>12} {:>18} {:>18}",
        "epsilon", "MRE", "P[err > epsilon]", "Theorem-4 bound"
    );
    for &epsilon in &[0.05f64, 0.10, 0.15, 0.20, 0.25] {
        let alg = NonIidEstLsr::new(epsilon.to_bits(), AccuracyParams::new(epsilon, delta));
        let mut err_sum = 0.0;
        let mut violations = 0usize;
        let mut counted = 0usize;
        let mut bound_sum = 0.0;
        for (q, &t) in queries.iter().zip(&truth) {
            if t == 0.0 {
                continue;
            }
            let r = alg.execute(&federation, q);
            let rel = (r.value - t).abs() / t;
            err_sum += rel;
            if rel > epsilon {
                violations += 1;
            }
            let sum0 = fedra::core::helpers::sum0(&federation, &q.range).count;
            bound_sum += theory::theorem_failure_bound(epsilon, t, sum0);
            counted += 1;
        }
        println!(
            "{:>8.2} {:>11.2}% {:>17.1}% {:>17.1}%",
            epsilon,
            err_sum / counted as f64 * 100.0,
            violations as f64 / counted as f64 * 100.0,
            bound_sum / counted as f64 * 100.0,
        );
    }

    println!(
        "\nreading: measured violation rates sit far below the analytic\n\
         bounds — the theory certifies the worst case, practice is much\n\
         kinder (the paper's Figs. 6–7 observation)."
    );

    println!("\ninverse design: epsilon needed for a target confidence at ans/sum0 = 0.8:");
    for confidence in [0.9, 0.95, 0.99] {
        let eps = theory::epsilon_for_confidence(confidence, 800.0, 1000.0);
        println!(
            "  {:>4.0}% confidence -> epsilon <= {eps:.3}",
            confidence * 100.0
        );
    }
}
