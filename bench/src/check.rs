//! The correctness gate: a brute-force oracle and the checks a run must
//! pass before any of its numbers count.

use fedra::prelude::*;

/// Relative tolerance between EXACT and the oracle: both add the same
/// f64 terms, only in a different order.
const EXACT_REL_TOL: f64 = 1e-9;

/// Ground truth for the check-pass queries: a scan over the generated
/// objects that uses none of the program's indexes. The objects are kept
/// sorted by x so a query scans only its own x-slab — still every object
/// that could possibly match, tested one by one.
pub struct Oracle {
    by_x: Vec<SpatialObject>,
}

impl Oracle {
    pub fn new(partitions: &[Vec<SpatialObject>]) -> Oracle {
        let mut by_x: Vec<SpatialObject> = partitions.iter().flatten().copied().collect();
        by_x.sort_by(|a, b| a.location.x.total_cmp(&b.location.x));
        Oracle { by_x }
    }

    /// `(COUNT, SUM)` of the objects inside `range` (closed containment,
    /// like the program's).
    pub fn count_and_sum(&self, range: &Range) -> (f64, f64) {
        let slab = range.bounding_rect();
        let from = self.by_x.partition_point(|o| o.location.x < slab.min.x);
        let mut count = 0.0;
        let mut sum = 0.0;
        for o in &self.by_x[from..] {
            if o.location.x > slab.max.x {
                break;
            }
            if range.contains_point(&o.location) {
                count += 1.0;
                sum += o.measure;
            }
        }
        (count, sum)
    }

    /// `(COUNT, SUM)` for each of `queries`, computed on `threads` scoped
    /// threads.
    pub fn tallies(&self, queries: &[FraQuery], threads: usize) -> Vec<(f64, f64)> {
        let chunk = queries.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|q| self.count_and_sum(&q.range))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        })
    }
}

/// The true value of one pool query given its `(COUNT, SUM)` tally (the
/// pool only asks COUNT and SUM).
pub fn true_value(query: &FraQuery, tally: (f64, f64)) -> f64 {
    match query.func {
        AggFunc::Count => tally.0,
        AggFunc::Sum => tally.1,
        other => unreachable!("the query pool never asks {other}"),
    }
}

/// Relative error with the paper's RE convention (Eq. 2): 0 when both are
/// zero, 1 when only the truth is.
fn relative_error(value: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        if value == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (value - truth).abs() / truth.abs()
    }
}

/// Mean relative error in percent (the paper's MRE, Eq. 3).
pub fn mre_pct(values: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(values.len(), truth.len(), "answer/truth length mismatch");
    if values.is_empty() {
        return 0.0;
    }
    let total: f64 = values
        .iter()
        .zip(truth)
        .map(|(&v, &t)| relative_error(v, t))
        .sum();
    100.0 * total / values.len() as f64
}

/// What a run's check pass observed, in the terms the gate judges.
pub struct Evidence<'a> {
    /// The workload's answers to the check queries, in pool order.
    pub answers: &'a [f64],
    /// The oracle's answers to the same queries.
    pub truth: &'a [f64],
    /// Ceiling on `mre_pct`; 0 demands agreement with the oracle to
    /// [`EXACT_REL_TOL`].
    pub mre_ceiling_pct: f64,
    /// Answers that must match `answers` bit for bit, with what they are
    /// (the serial replay of a scheduled pass; the hand-pumped chain).
    pub replays: &'a [(&'a str, &'a [f64])],
    /// Errors + sheds + degraded answers over everything attempted.
    pub failed: u64,
}

/// Every violated condition, as one line each; empty means correct.
pub fn violations(e: &Evidence<'_>) -> Vec<String> {
    let mut out = Vec::new();
    if e.answers.len() != e.truth.len() {
        out.push(format!(
            "{} answers for {} check queries",
            e.answers.len(),
            e.truth.len()
        ));
        return out;
    }
    if e.mre_ceiling_pct == 0.0 {
        let worst = e
            .answers
            .iter()
            .zip(e.truth)
            .enumerate()
            .map(|(i, (&v, &t))| (i, (v - t).abs() / t.abs().max(1.0)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((i, err)) = worst.filter(|&(_, err)| err > EXACT_REL_TOL || err.is_nan()) {
            out.push(format!(
                "EXACT differs from the brute-force scan on query {i}: {} vs {} (rel {err:e})",
                e.answers[i], e.truth[i]
            ));
        }
    } else {
        let mre = mre_pct(e.answers, e.truth);
        if mre.is_nan() || mre > e.mre_ceiling_pct {
            out.push(format!(
                "mre_pct {mre:.3} exceeds the workload's ceiling {}",
                e.mre_ceiling_pct
            ));
        }
    }
    for (what, replay) in e.replays {
        if replay.len() != e.answers.len() {
            out.push(format!(
                "{what}: {} answers, expected {}",
                replay.len(),
                e.answers.len()
            ));
            continue;
        }
        let diverged = e
            .answers
            .iter()
            .zip(*replay)
            .position(|(a, b)| a.to_bits() != b.to_bits());
        if let Some(i) = diverged {
            out.push(format!(
                "{what}: query {i} answered {} but {} here",
                replay[i], e.answers[i]
            ));
        }
    }
    if e.failed != 0 {
        out.push(format!(
            "{} operations failed, were shed or came back degraded",
            e.failed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_objects() -> Vec<Vec<SpatialObject>> {
        // 10×10 lattice split over two "silos", measure = x + 1.
        let all: Vec<SpatialObject> = (0..100)
            .map(|i| SpatialObject::at((i % 10) as f64, (i / 10) as f64, (i % 10) as f64 + 1.0))
            .collect();
        vec![all[..37].to_vec(), all[37..].to_vec()]
    }

    #[test]
    fn oracle_counts_closed_ranges() {
        let oracle = Oracle::new(&grid_objects());
        // Circle of radius 1 at a lattice point: centre + 4 neighbours.
        let circle = Range::circle(Point::new(4.0, 4.0), 1.0);
        assert_eq!(oracle.count_and_sum(&circle), (5.0, 4.0 + 5.0 * 3.0 + 6.0));
        // Closed rectangle [2,4]×[0,1]: 3 × 2 points.
        let rect = Range::rect(Point::new(2.0, 0.0), Point::new(4.0, 1.0));
        assert_eq!(oracle.count_and_sum(&rect), (6.0, 2.0 * (3.0 + 4.0 + 5.0)));
        // Disjoint from the data.
        let far = Range::circle(Point::new(50.0, 50.0), 2.0);
        assert_eq!(oracle.count_and_sum(&far), (0.0, 0.0));
    }

    #[test]
    fn oracle_threads_agree_with_the_serial_scan() {
        let oracle = Oracle::new(&grid_objects());
        let queries: Vec<FraQuery> = (0..23)
            .map(|i| {
                let func = if i % 2 == 0 {
                    AggFunc::Count
                } else {
                    AggFunc::Sum
                };
                FraQuery::circle(Point::new(i as f64 % 10.0, 3.0), 1.5, func)
            })
            .collect();
        let serial: Vec<(f64, f64)> = queries
            .iter()
            .map(|q| oracle.count_and_sum(&q.range))
            .collect();
        assert_eq!(oracle.tallies(&queries, 1), serial);
        assert_eq!(oracle.tallies(&queries, 2), serial);
        assert_eq!(oracle.tallies(&queries, 64), serial);
        assert_eq!(true_value(&queries[0], (5.0, 9.0)), 5.0);
        assert_eq!(true_value(&queries[1], (5.0, 9.0)), 9.0);
    }

    #[test]
    fn mre_follows_the_papers_conventions() {
        assert_eq!(mre_pct(&[], &[]), 0.0);
        assert_eq!(mre_pct(&[110.0, 90.0], &[100.0, 100.0]), 10.0);
        // truth 0: error 0 when the answer is 0 too, 1 otherwise.
        assert_eq!(mre_pct(&[0.0, 5.0], &[0.0, 0.0]), 50.0);
    }

    fn evidence<'a>(answers: &'a [f64], truth: &'a [f64], ceiling: f64) -> Evidence<'a> {
        Evidence {
            answers,
            truth,
            mre_ceiling_pct: ceiling,
            replays: &[],
            failed: 0,
        }
    }

    #[test]
    fn exact_must_match_the_oracle() {
        let truth = [100.0, 2.5e6];
        assert!(violations(&evidence(&[100.0, 2.5e6 + 1e-4], &truth, 0.0)).is_empty());
        let bad = violations(&evidence(&[100.0, 2.5e6 + 1.0], &truth, 0.0));
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("query 1"), "{bad:?}");
        assert!(!violations(&evidence(&[f64::NAN, 2.5e6], &truth, 0.0)).is_empty());
    }

    #[test]
    fn estimators_are_held_to_their_ceiling() {
        let truth = [100.0, 100.0];
        assert!(violations(&evidence(&[104.0, 97.0], &truth, 5.0)).is_empty());
        assert_eq!(violations(&evidence(&[120.0, 100.0], &truth, 5.0)).len(), 1);
        assert_eq!(
            violations(&evidence(&[f64::NAN, 100.0], &truth, 5.0)).len(),
            1
        );
    }

    #[test]
    fn replays_must_be_bit_identical() {
        let answers = [1.0, 0.1 + 0.2];
        let same = [1.0, 0.1 + 0.2];
        let close = [1.0, 0.3];
        let mut e = evidence(&answers, &answers, 5.0);
        let replays = [("serial replay", &same[..])];
        e.replays = &replays;
        assert!(violations(&e).is_empty());
        let replays = [("serial replay", &close[..]), ("short", &same[..1])];
        e.replays = &replays;
        let bad = violations(&e);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].starts_with("serial replay: query 1"));
    }

    #[test]
    fn any_failed_operation_fails_the_run() {
        let answers = [1.0];
        let mut e = evidence(&answers, &answers, 5.0);
        e.failed = 3;
        assert_eq!(violations(&e).len(), 1);
        // A missing answer is a violation of its own.
        assert_eq!(violations(&evidence(&[], &answers, 5.0)).len(), 1);
    }
}
