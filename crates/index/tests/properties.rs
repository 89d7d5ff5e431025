//! Property-based tests for the index crate: every index must agree with
//! the brute-force oracle on arbitrary data and arbitrary query ranges.

use fedra_geo::{Point, Range, Rect, SpatialObject};
use fedra_index::grid::{GridIndex, GridSpec, PrefixGrid};
use fedra_index::histogram::{EquiWidthHistogram, MinSkewConfig, MinSkewHistogram};
use fedra_index::lsr::LsrForest;
use fedra_index::rtree::{RTree, RTreeConfig};
use fedra_index::Aggregate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: f64 = 64.0;

fn objects() -> impl Strategy<Value = Vec<SpatialObject>> {
    proptest::collection::vec(
        (0.0f64..SIDE, 0.0f64..SIDE, -5.0f64..5.0).prop_map(|(x, y, m)| SpatialObject::at(x, y, m)),
        0..300,
    )
}

fn query() -> impl Strategy<Value = Range> {
    prop_oneof![
        (-8.0f64..SIDE + 8.0, -8.0f64..SIDE + 8.0, 0.0f64..SIDE)
            .prop_map(|(x, y, r)| Range::circle(Point::new(x, y), r)),
        (
            -8.0f64..SIDE + 8.0,
            -8.0f64..SIDE + 8.0,
            -8.0f64..SIDE + 8.0,
            -8.0f64..SIDE + 8.0
        )
            .prop_map(|(x0, y0, x1, y1)| Range::rect(Point::new(x0, y0), Point::new(x1, y1))),
    ]
}

fn brute(objs: &[SpatialObject], range: &Range) -> Aggregate {
    objs.iter()
        .filter(|o| range.contains_point(&o.location))
        .fold(Aggregate::ZERO, |a, o| a.merge(&Aggregate::of(o)))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_aggregate_matches_bruteforce(objs in objects(), q in query(), fanout in 2usize..32) {
        let tree = RTree::bulk_load(objs.clone(), RTreeConfig::with_fanout(fanout));
        let got = tree.aggregate(&q);
        let want = brute(&objs, &q);
        prop_assert_eq!(got.count, want.count);
        prop_assert!(close(got.sum, want.sum));
        prop_assert!(close(got.sum_sqr, want.sum_sqr));
    }

    #[test]
    fn rtree_clipped_matches_filter(objs in objects(), q in query(),
                                    cx in 0.0f64..SIDE, cy in 0.0f64..SIDE,
                                    w in 1.0f64..30.0, h in 1.0f64..30.0) {
        let tree = RTree::from_objects(&objs);
        let clip = Rect::new(Point::new(cx, cy), Point::new(cx + w, cy + h));
        let got = tree.aggregate_clipped(&q, &clip);
        let want = objs.iter()
            .filter(|o| q.contains_point(&o.location) && clip.contains_point(&o.location))
            .fold(Aggregate::ZERO, |a, o| a.merge(&Aggregate::of(o)));
        prop_assert_eq!(got.count, want.count);
        prop_assert!(close(got.sum, want.sum));
    }

    #[test]
    fn clipped_many_matches_filter_per_clip(objs in objects(), q in query(),
                                            fanout in 2usize..32, seed in any::<u64>()) {
        // Every third object snaps to the 8-unit lattice, so cell edges
        // and corners carry data; the clip set is every closed cell of
        // that grid plus a duplicate, the whole tree and a far-off cell.
        let objs: Vec<SpatialObject> = objs.into_iter().enumerate().map(|(i, o)| {
            if i % 3 == 0 {
                SpatialObject::at((o.location.x / 8.0).round() * 8.0,
                                  (o.location.y / 8.0).round() * 8.0, o.measure)
            } else {
                o
            }
        }).collect();
        let spec = GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE)), 8.0);
        let mut clips: Vec<Rect> = (0..spec.num_cells() as u32).map(|id| spec.cell_rect_of(id)).collect();
        clips.push(clips[9]);
        clips.push(Rect::new(Point::new(-1.0, -1.0), Point::new(SIDE + 1.0, SIDE + 1.0)));
        clips.push(Rect::new(Point::new(4.0 * SIDE, 4.0 * SIDE), Point::new(5.0 * SIDE, 5.0 * SIDE)));
        let filter = |level: &[SpatialObject], clip: &Rect| level.iter()
            .filter(|o| q.contains_point(&o.location) && clip.contains_point(&o.location))
            .fold(Aggregate::ZERO, |a, o| a.merge(&Aggregate::of(o)));

        let tree = RTree::bulk_load(objs.clone(), RTreeConfig::with_fanout(fanout));
        let got = tree.aggregate_clipped_many(&q, &clips);
        prop_assert_eq!(got.len(), clips.len());
        for (clip, got) in clips.iter().zip(&got) {
            let want = filter(&objs, clip);
            prop_assert_eq!(got.count, want.count);
            prop_assert!(close(got.sum, want.sum));
        }
        prop_assert!(tree.aggregate_clipped_many(&q, &[]).is_empty());

        let mut rng = StdRng::seed_from_u64(seed);
        let forest = LsrForest::build(&objs, RTreeConfig::with_fanout(fanout), &mut rng);
        for l in 0..forest.num_levels() {
            let level = forest.level(l).unwrap();
            let scale = (1u64 << l) as f64;
            let got = forest.query_clipped_many_at_level(&q, &clips, l);
            prop_assert_eq!(got.len(), clips.len());
            for (clip, got) in clips.iter().zip(&got) {
                let want = filter(level.objects(), clip).scale(scale);
                prop_assert_eq!(got.count, want.count);
                prop_assert!(close(got.sum, want.sum));
            }
        }
    }

    #[test]
    fn grid_total_matches_bruteforce(objs in objects(), cell in 1.0f64..20.0) {
        let spec = GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE)), cell);
        let grid = GridIndex::build(spec, &objs);
        let everything = brute(&objs, &Range::rect(Point::new(-1.0, -1.0), Point::new(SIDE + 1.0, SIDE + 1.0)));
        prop_assert_eq!(grid.total().count, everything.count);
        prop_assert!(close(grid.total().sum, everything.sum));
        prop_assert_eq!(grid.outside_count(), 0);
    }

    #[test]
    fn prefix_matches_naive_on_any_grid(objs in objects(), cell in 1.0f64..20.0, q in query()) {
        let spec = GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE)), cell);
        let grid = GridIndex::build(spec, &objs);
        let prefix = PrefixGrid::build(&grid);
        let fast = prefix.aggregate_intersecting(&q);
        let slow = grid.aggregate_intersecting(&q);
        prop_assert!(close(fast.count, slow.count), "{} vs {}", fast.count, slow.count);
        prop_assert!(close(fast.sum, slow.sum));
    }

    #[test]
    fn classification_cells_cover_all_objects_in_range(objs in objects(), cell in 2.0f64..16.0, q in query()) {
        // Every object inside the range must live in a covered or boundary
        // cell — otherwise estimation would silently drop data.
        let spec = GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE)), cell);
        let cls = spec.classify(&q);
        let relevant: std::collections::HashSet<u32> = cls.iter().collect();
        for o in &objs {
            if q.contains_point(&o.location) {
                let cell_id = spec.cell_of(&o.location).expect("object inside bounds");
                prop_assert!(
                    relevant.contains(&cell_id),
                    "object {:?} in range but its cell {} unclassified",
                    o.location,
                    cell_id
                );
            }
        }
    }

    #[test]
    fn grid_merge_is_cellwise_addition(a in objects(), b in objects(), cell in 2.0f64..16.0) {
        let spec = GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE)), cell);
        let ga = GridIndex::build(spec, &a);
        let gb = GridIndex::build(spec, &b);
        let merged = GridIndex::merge([&ga, &gb]).unwrap();
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let direct = GridIndex::build(spec, &all);
        for id in 0..spec.num_cells() as u32 {
            prop_assert_eq!(merged.cell(id).count, direct.cell(id).count);
            prop_assert!(close(merged.cell(id).sum, direct.cell(id).sum));
        }
    }

    #[test]
    fn lsr_level_zero_is_exact(objs in objects(), q in query(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let forest = LsrForest::from_objects(&objs, &mut rng);
        let exact = RTree::from_objects(&objs).aggregate(&q);
        prop_assert_eq!(forest.query_at_level(&q, 0).count, exact.count);
    }

    #[test]
    fn lsr_scaling_is_consistent(objs in objects(), seed in any::<u64>()) {
        // At any level, the whole-domain estimate equals the level's own
        // object count times 2^level.
        prop_assume!(!objs.is_empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let forest = LsrForest::from_objects(&objs, &mut rng);
        let everything = Range::rect(Point::new(-1.0, -1.0), Point::new(SIDE + 1.0, SIDE + 1.0));
        for l in 0..forest.num_levels() {
            let est = forest.query_at_level(&everything, l);
            let level_count = forest.level(l).unwrap().len() as f64;
            prop_assert_eq!(est.count, level_count * (1u64 << l) as f64);
        }
    }

    #[test]
    fn equiwidth_histogram_is_exact_on_covered_ranges(objs in objects(), cell in 4.0f64..16.0) {
        // A range generously covering every bucket (the last grid column
        // can overhang the domain by up to one cell) has no fractional
        // boundary buckets, so the estimate is exact.
        let h = EquiWidthHistogram::build(
            Rect::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE)),
            cell,
            &objs,
        );
        let q = Range::rect(Point::new(-1.0, -1.0), Point::new(SIDE + 32.0, SIDE + 32.0));
        let want = brute(&objs, &q);
        prop_assert!(close(h.estimate(&q).count, want.count));
    }

    #[test]
    fn minskew_total_is_conserved(objs in objects(), budget in 1usize..64) {
        let h = MinSkewHistogram::build(
            Rect::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE)),
            MinSkewConfig { resolution: 16, budget },
            &objs,
        );
        prop_assert_eq!(h.total().count, objs.len() as f64);
        prop_assert!(h.num_buckets() <= budget.max(1));
        let area: f64 = h.buckets().iter().map(|b| b.rect.area()).sum();
        prop_assert!(close(area, SIDE * SIDE));
    }

    #[test]
    fn histogram_estimates_are_bounded_by_totals(objs in objects(), q in query()) {
        let h = MinSkewHistogram::build(
            Rect::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE)),
            MinSkewConfig { resolution: 16, budget: 32 },
            &objs,
        );
        let est = h.estimate(&q);
        prop_assert!(est.count >= -1e-9);
        prop_assert!(est.count <= objs.len() as f64 + 1e-9);
    }
}
