//! Provider-side estimation helpers shared by the FRA algorithms.

use fedra_federation::{Federation, Request, SiloId};
use fedra_geo::{intersection_area, Range};
use fedra_index::grid::{CellId, GridIndex};
use fedra_index::{ratio_reads, AggFunc, Aggregate, Moments};

/// `request` asking for only the moments `func` reads: what every query
/// path sends, so a silo reveals no component its answer does not need
/// and the reply pays for none.
pub(crate) fn masked_for(func: AggFunc, request: Request) -> Request {
    Request::Masked {
        moments: func.moments(),
        request: Box::new(request),
    }
}

/// `sum₀` and every `sum_k` of one range (Alg. 2): the aggregates of
/// `g₀` and of each `g_k` over the cells intersecting it, from one walk
/// of the provider's prefix stack.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSums(Vec<Aggregate>);

impl GridSums {
    /// `g₀` over the range's cells. Its COUNT is also the rough estimate
    /// LSR level selection reads (Alg. 6).
    pub fn sum0(&self) -> &Aggregate {
        &self.0[0]
    }

    /// Silo `silo`'s `g_k` over the range's cells.
    pub fn sum_k(&self, silo: SiloId) -> &Aggregate {
        &self.0[1 + silo]
    }
}

/// `sum₀` and every `sum_k` for `range`, in one O(√|g₀|) walk.
pub fn grid_sums(federation: &Federation, range: &Range) -> GridSums {
    let stack = federation.prefix_stack();
    let mut sums = vec![Aggregate::ZERO; stack.layers()];
    stack.aggregate_intersecting(range, &mut sums);
    GridSums(sums)
}

/// The `sum₀` aggregate triple of Alg. 2 — `g₀` over intersecting cells.
pub fn sum0(federation: &Federation, range: &Range) -> Aggregate {
    let [sum0] = federation.prefix_stack().layers_intersecting(range, [0]);
    sum0
}

/// `sum₀` and silo `silo`'s `sum_k` together, in one walk that reads no
/// other silo's layer: what IID-est's finish step divides by.
pub fn sum0_and_k(federation: &Federation, silo: SiloId, range: &Range) -> (Aggregate, Aggregate) {
    let [sum0, sum_k] = federation
        .prefix_stack()
        .layers_intersecting(range, [0, 1 + silo]);
    (sum0, sum_k)
}

/// A silo-free estimate of `range` from one grid alone: covered cells
/// contribute exactly, boundary cells proportionally to the covered area
/// (uniform-within-cell).
///
/// Over `g₀` it is the graceful degradation path when no silo can be
/// sampled (all candidates failed) and the per-component fallback when
/// the sampled silo has no data to re-weight by. Over silo `k`'s `g_k` it
/// is what a degraded-mode fan-out substitutes for that unreachable
/// silo's partial answer (DESIGN.md §5i): the provider holds every `g_k`
/// from setup, so a missing silo's contribution can still be estimated
/// without contacting it.
pub fn grid_estimate(grid: &GridIndex, range: &Range) -> Aggregate {
    let spec = grid.spec();
    let cls = spec.classify(range);
    let mut acc = grid.aggregate_cells(cls.covered.iter().copied());
    for id in &cls.boundary {
        let rect = spec.cell_rect_of(*id);
        let frac = intersection_area(range, &rect) / rect.area();
        acc.merge_in(&grid.cell(*id).scale(frac));
    }
    acc
}

/// Per-component re-scaling `sum₀ × res_k / sum_k` (Alg. 2, line 8) with a
/// per-component fallback for zero denominators.
///
/// Each of count / sum / sum_sqr is its own SUM-type query with its own
/// ratio, which is what makes the AVG/STDEV extension a single round
/// (Sec. 7). A component with `sum_k = 0` carries no information from the
/// sampled silo, so the corresponding component of `fallback()` (the
/// grid-only estimate) is used instead. "Zero" is
/// [`fedra_index::ratio_reads`], the test a silo also applies to leave a
/// cell out of its NonIID reply. `fallback` is called at most once, and
/// only when some component reads it: the candidate rule makes that rare,
/// and the estimate costs a classification and a clip per boundary cell.
pub fn ratio_scale(
    sum0: &Aggregate,
    res: &Aggregate,
    sum_k: &Aggregate,
    fallback: impl FnOnce() -> Aggregate,
) -> Aggregate {
    let reads = [sum_k.count, sum_k.sum, sum_k.sum_sqr].map(ratio_reads);
    let fallback = if reads.contains(&false) {
        fallback()
    } else {
        Aggregate::ZERO
    };
    let component = |reads: bool, s0: f64, r: f64, sk: f64, fb: f64| -> f64 {
        if reads {
            s0 * (r / sk)
        } else {
            fb
        }
    };
    Aggregate {
        count: component(reads[0], sum0.count, res.count, sum_k.count, fallback.count),
        sum: component(reads[1], sum0.sum, res.sum, sum_k.sum, fallback.sum),
        sum_sqr: component(
            reads[2],
            sum0.sum_sqr,
            res.sum_sqr,
            sum_k.sum_sqr,
            fallback.sum_sqr,
        ),
    }
}

/// Silo `grid`'s NonIID reply laid back onto `boundary` (the range's
/// boundary cells, in classification order): a cell the grid
/// [`GridIndex::contributes`] to for `moments` takes the reply's next
/// entry, any other cell `ZERO` — the ratio never reads it. `None` when
/// the reply is not exactly one entry per contributing cell.
pub(crate) fn scatter_reply(
    grid: &GridIndex,
    boundary: &[CellId],
    moments: Moments,
    reply: &[Aggregate],
) -> Option<Vec<Aggregate>> {
    let mut entries = reply.iter();
    let mut scattered = Vec::with_capacity(boundary.len());
    for &id in boundary {
        scattered.push(if grid.contributes(id, moments) {
            *entries.next()?
        } else {
            Aggregate::ZERO
        });
    }
    entries.next().is_none().then_some(scattered)
}

/// Fraction of the in-range grid mass (COUNT over intersecting cells of
/// the per-silo grids) held by the `responding` silos, in `[0, 1]`.
///
/// The denominator is `sum₀` over the same cells — cell-wise, the silo
/// grids sum to `g₀`, so this is exactly the mass share a degraded
/// fan-out answer is backed by. An empty range (no in-range mass at all)
/// counts as fully covered: there is nothing left to miss. One walk.
pub fn reachable_mass_fraction(
    federation: &Federation,
    range: &Range,
    responding: &[SiloId],
) -> f64 {
    let sums = grid_sums(federation, range);
    let total = sums.sum0().count;
    if total <= 0.0 {
        return 1.0;
    }
    let reached: f64 = responding.iter().map(|&k| sums.sum_k(k).count).sum();
    (reached / total).clamp(0.0, 1.0)
}

/// Fraction of the in-range grid mass that `g₀` answers *exactly* (cells
/// fully covered by the range), in `[0, 1]` — the coverage a provider-only
/// grid answer honestly carries when no silo is reachable at all
/// (DESIGN.md §5i). Boundary cells are the uncertain remainder: their
/// area-fraction fill-in can be off by up to the full cell mass. An empty
/// range counts as fully covered.
pub fn grid_certain_fraction(federation: &Federation, range: &Range) -> f64 {
    let grid = federation.merged_grid();
    let spec = grid.spec();
    let cls = spec.classify(range);
    let covered = grid.aggregate_cells(cls.covered.iter().copied()).count;
    let boundary: f64 = cls.boundary.iter().map(|id| grid.cell(*id).count).sum();
    let total = covered + boundary;
    if total <= 0.0 {
        return 1.0;
    }
    (covered / total).clamp(0.0, 1.0)
}

/// Silos eligible to be sampled for the range `sums` were walked over:
/// not failure-flagged, not refused by the health tracker's circuit
/// breaker (open breakers admit the occasional probe; a passive tracker
/// refuses nobody), and with at least one object in a cell intersecting
/// the range (the non-overlapping-coverage extension of Sec. 4.2.2: "we
/// sample s_k from silos who have data in the query range"). The breaker
/// is asked only about silos that are not failure-flagged, in silo order.
pub fn candidate_silos(federation: &Federation, sums: &GridSums) -> Vec<SiloId> {
    let health = federation.health();
    let mut candidates = Vec::with_capacity(federation.num_silos());
    candidates.extend(
        (0..federation.num_silos())
            .filter(|&k| !federation.channel(k).is_failed())
            .filter(|&k| health.allows(k))
            .filter(|&k| sums.sum_k(k).count > 0.0),
    );
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_federation::FederationBuilder;
    use fedra_geo::{Point, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;

    fn federation() -> Federation {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        // Silo 0: a dense block in [0,50]²; silo 1: a dense block in
        // [50,100]². Deliberately non-overlapping coverage.
        let left: Vec<SpatialObject> = (0..500)
            .map(|i| SpatialObject::at((i % 25) as f64 * 2.0, (i / 25) as f64 * 2.5, 1.0))
            .collect();
        let right: Vec<SpatialObject> = (0..500)
            .map(|i| {
                SpatialObject::at(
                    50.0 + (i % 25) as f64 * 2.0,
                    (i / 25) as f64 * 2.5 + 50.0,
                    2.0,
                )
            })
            .collect();
        FederationBuilder::new(bounds)
            .grid_cell_len(10.0)
            .histogram_config(MinSkewConfig {
                resolution: 16,
                budget: 16,
            })
            .build(vec![left, right])
    }

    #[test]
    fn sum0_covers_intersecting_cells() {
        let fed = federation();
        let q = Range::circle(Point::new(25.0, 25.0), 10.0);
        let rc = sum0(&fed, &q).count;
        // All data near (25,25) belongs to silo 0's 500-object block.
        assert!(rc > 0.0);
        assert!(rc <= 500.0);
    }

    #[test]
    fn sum_k_is_per_silo() {
        let fed = federation();
        let sums = grid_sums(&fed, &Range::circle(Point::new(25.0, 25.0), 10.0));
        assert!(sums.sum_k(0).count > 0.0);
        assert_eq!(sums.sum_k(1).count, 0.0);
    }

    #[test]
    fn one_walk_reads_what_the_single_layer_walks_read() {
        let fed = federation();
        let bits = |a: &Aggregate| [a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits()];
        for q in [
            Range::circle(Point::new(25.0, 25.0), 10.0),
            Range::circle(Point::new(50.0, 50.0), 30.0),
            Range::rect(Point::new(-5.0, 20.0), Point::new(60.0, 55.0)),
            Range::circle(Point::new(-400.0, -400.0), 1.0),
        ] {
            let sums = grid_sums(&fed, &q);
            assert_eq!(bits(sums.sum0()), bits(&sum0(&fed, &q)), "{q}");
            for k in 0..fed.num_silos() {
                let (s0, sk) = sum0_and_k(&fed, k, &q);
                let want = [bits(sums.sum0()), bits(sums.sum_k(k))];
                assert_eq!([bits(&s0), bits(&sk)], want, "{q} silo {k}");
            }
        }
    }

    #[test]
    fn candidates_respect_coverage_and_failures() {
        let fed = federation();
        let left_q = grid_sums(&fed, &Range::circle(Point::new(25.0, 25.0), 10.0));
        let right_q = grid_sums(&fed, &Range::circle(Point::new(75.0, 75.0), 10.0));
        assert_eq!(candidate_silos(&fed, &left_q), vec![0]);
        assert_eq!(candidate_silos(&fed, &right_q), vec![1]);
        fed.set_silo_failed(0, true);
        assert!(candidate_silos(&fed, &left_q).is_empty());
        fed.set_silo_failed(0, false);
    }

    #[test]
    fn grid_estimate_is_close_on_uniform_blocks() {
        let fed = federation();
        let q = Range::rect(Point::new(0.0, 0.0), Point::new(50.0, 50.0));
        let est = grid_estimate(fed.merged_grid(), &q);
        // The whole left block: ~500 objects (modulo the block's own edge).
        assert!((est.count - 500.0).abs() < 50.0, "got {}", est.count);
    }

    #[test]
    fn silo_grid_estimates_sum_to_the_merged_estimate() {
        let fed = federation();
        let q = Range::circle(Point::new(50.0, 50.0), 20.0);
        let merged = grid_estimate(fed.merged_grid(), &q);
        let mut parts = fedra_index::Aggregate::ZERO;
        for k in 0..fed.num_silos() {
            parts.merge_in(&grid_estimate(fed.silo_grid(k), &q));
        }
        assert!((parts.count - merged.count).abs() < 1e-9);
        assert!((parts.sum - merged.sum).abs() < 1e-9);
    }

    #[test]
    fn mass_fractions_are_honest() {
        let fed = federation();
        let left_q = Range::circle(Point::new(25.0, 25.0), 10.0);
        // All of the left query's mass is silo 0's.
        assert_eq!(reachable_mass_fraction(&fed, &left_q, &[0]), 1.0);
        assert_eq!(reachable_mass_fraction(&fed, &left_q, &[1]), 0.0);
        assert_eq!(reachable_mass_fraction(&fed, &left_q, &[0, 1]), 1.0);
        // An empty range has nothing to miss.
        let empty_q = Range::circle(Point::new(-400.0, -400.0), 1.0);
        assert_eq!(reachable_mass_fraction(&fed, &empty_q, &[]), 1.0);
        assert_eq!(grid_certain_fraction(&fed, &empty_q), 1.0);
        // The full-bounds rect covers every cell exactly. (A rect merely
        // aligned to interior cell edges is NOT fully certain: a massy
        // cell touching the edge with zero overlap area could still hold
        // an object exactly on the closed edge.)
        let aligned = Range::rect(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        assert_eq!(grid_certain_fraction(&fed, &aligned), 1.0);
        let interior = Range::rect(Point::new(0.0, 0.0), Point::new(50.0, 50.0));
        let c = grid_certain_fraction(&fed, &interior);
        assert!((0.0..1.0).contains(&c), "edge-touching rect fraction {c}");
        let c = grid_certain_fraction(&fed, &left_q);
        assert!((0.0..1.0).contains(&c), "circle certain fraction {c}");
    }

    #[test]
    fn ratio_scale_components_and_fallback() {
        let s0 = Aggregate {
            count: 20.0,
            sum: 40.0,
            sum_sqr: 100.0,
        };
        let res = Aggregate {
            count: 5.0,
            sum: 10.0,
            sum_sqr: 0.0,
        };
        let sk = Aggregate {
            count: 10.0,
            sum: 20.0,
            sum_sqr: 0.0, // degenerate component
        };
        let fb = Aggregate {
            count: 999.0,
            sum: 999.0,
            sum_sqr: 77.0,
        };
        let out = ratio_scale(&s0, &res, &sk, || fb);
        assert_eq!(out.count, 10.0); // 20 * 5/10
        assert_eq!(out.sum, 20.0); // 40 * 10/20
        assert_eq!(out.sum_sqr, 77.0); // fallback
    }

    #[test]
    fn ratio_scale_never_computes_a_fallback_no_component_reads() {
        let s0 = Aggregate {
            count: 20.0,
            sum: 40.0,
            sum_sqr: 100.0,
        };
        let sk = Aggregate {
            count: 10.0,
            sum: -20.0,
            sum_sqr: 50.0,
        };
        let out = ratio_scale(&s0, &s0, &sk, || panic!("every denominator reads"));
        assert_eq!(out.count, 40.0);
        assert_eq!(out.sum, -80.0);
        assert_eq!(out.sum_sqr, 200.0);
    }

    #[test]
    fn ratio_scale_computes_the_fallback_once_for_any_unread_denominator() {
        let s0 = Aggregate {
            count: 20.0,
            sum: 40.0,
            sum_sqr: 100.0,
        };
        let fb = Aggregate {
            count: 1.0,
            sum: 2.0,
            sum_sqr: 3.0,
        };
        for zero in [0.0, -0.0, f64::NAN, f64::EPSILON / 2.0] {
            for component in 0..3 {
                let mut sk = Aggregate {
                    count: 10.0,
                    sum: 20.0,
                    sum_sqr: 50.0,
                };
                let mut unread = [sk.count, sk.sum, sk.sum_sqr];
                unread[component] = zero;
                [sk.count, sk.sum, sk.sum_sqr] = unread;
                let calls = std::cell::Cell::new(0);
                let out = ratio_scale(&s0, &s0, &sk, || {
                    calls.set(calls.get() + 1);
                    fb
                });
                assert_eq!(
                    calls.get(),
                    1,
                    "denominator {zero} in component {component}"
                );
                let got = [out.count, out.sum, out.sum_sqr];
                let want_fb = [fb.count, fb.sum, fb.sum_sqr];
                let want_ratio = [40.0, 80.0, 200.0];
                for c in 0..3 {
                    let want = if c == component {
                        want_fb[c]
                    } else {
                        want_ratio[c]
                    };
                    assert_eq!(got[c].to_bits(), want.to_bits(), "{zero}, {component}, {c}");
                }
            }
        }
        // Every component unread: still one call.
        let calls = std::cell::Cell::new(0);
        let out = ratio_scale(&s0, &s0, &Aggregate::ZERO, || {
            calls.set(calls.get() + 1);
            fb
        });
        assert_eq!((calls.get(), out), (1, fb));
    }
}
