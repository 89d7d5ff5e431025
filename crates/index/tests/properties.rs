//! Property-based tests for the index crate: every index must agree with
//! the brute-force oracle on arbitrary data and arbitrary query ranges.

use fedra_geo::{Point, Range, Rect, SpatialObject};
use fedra_index::grid::{GridIndex, GridSpec, PrefixGrid, PrefixStack};
use fedra_index::histogram::{EquiWidthHistogram, MinSkewConfig, MinSkewHistogram};
use fedra_index::lsr::LsrForest;
use fedra_index::pool::WorkerPool;
use fedra_index::rtree::{RTree, RTreeConfig};
use fedra_index::Aggregate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// `layers` grids over one spec with every cell component drawn from
/// `seed`: zeros of both signs, small integers that cancel, and
/// arbitrary magnitudes of either sign.
fn stacked_grids(cell: f64, layers: usize, seed: u64) -> Vec<GridIndex> {
    let spec = GridSpec::new(
        Rect::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE)),
        cell,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut component = || match rng.random_range(0..4) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from(rng.random_range(-4i32..5)),
        _ => rng.random_range(-1e3f64..1e3),
    };
    (0..layers)
        .map(|_| {
            let cells = (0..spec.num_cells())
                .map(|_| Aggregate {
                    count: component(),
                    sum: component(),
                    sum_sqr: component(),
                })
                .collect();
            GridIndex::from_parts(spec, cells, 0)
        })
        .collect()
}

/// `query()`, or a range that misses the grid entirely.
fn any_query() -> impl Strategy<Value = Range> {
    prop_oneof![
        query(),
        query(),
        (-300.0f64..-100.0, 0.0f64..50.0).prop_map(|(c, r)| Range::circle(Point::new(c, -c), r)),
        (-300.0f64..-100.0, 1.0f64..50.0)
            .prop_map(|(c, w)| Range::rect(Point::new(c, c), Point::new(c + w, c + w))),
    ]
}

fn bits(a: &Aggregate) -> [u64; 3] {
    [a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits()]
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
    fn a_grid_packing_answers_integer_measures_as_plain_str_does(
        objs in objects(), q in query(), fanout in 2usize..12, cell in 2.0f64..16.0,
        seed in any::<u64>(),
    ) {
        // Integer measures keep every sum exact, so how the tree groups
        // the objects cannot show. Half the objects crowd into one
        // 8-unit cell, every third sits on the 8-unit lattice, and the
        // packing grid covers only [0, 48]², so some fall outside it.
        let objs: Vec<SpatialObject> = objs.into_iter().enumerate().map(|(i, o)| {
            let (x, y, m) = (o.location.x, o.location.y, o.measure.round());
            match i % 6 {
                0 | 3 => SpatialObject::at((x / 8.0).round() * 8.0, (y / 8.0).round() * 8.0, m),
                1 | 4 | 5 => SpatialObject::at(8.0 + x / 8.0, 16.0 + y / 8.0, m),
                _ => SpatialObject::at(x, y, m),
            }
        }).collect();
        let grid = GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(48.0, 48.0)), cell);
        let clip_grid = GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE)), 8.0);
        let clips: Vec<Rect> = (0..clip_grid.num_cells() as u32).map(|id| clip_grid.cell_rect_of(id)).collect();
        let config = RTreeConfig::with_fanout(fanout);
        let plain = RTree::bulk_load(objs.clone(), config);
        let packed = RTree::bulk_load_with(objs.clone(), config, Some(&grid), &WorkerPool::new(2));
        prop_assert_eq!(packed.len(), plain.len());
        prop_assert_eq!(bits(&packed.total()), bits(&plain.total()));
        prop_assert_eq!(bits(&packed.aggregate(&q)), bits(&plain.aggregate(&q)));
        for clip in &clips {
            prop_assert_eq!(bits(&packed.aggregate_clipped(&q, clip)), bits(&plain.aggregate_clipped(&q, clip)));
        }

        let rng = StdRng::seed_from_u64(seed);
        let plain = LsrForest::build(&objs, config, &mut rng.clone());
        let packed = LsrForest::build_with(&objs, config, Some(&grid), &mut rng.clone(), &WorkerPool::new(2));
        prop_assert_eq!(packed.num_levels(), plain.num_levels());
        for l in 0..plain.num_levels() {
            prop_assert_eq!(bits(&packed.query_at_level(&q, l)), bits(&plain.query_at_level(&q, l)));
            for clip in &clips {
                let (a, b) = (packed.query_clipped_at_level(&q, clip, l), plain.query_clipped_at_level(&q, clip, l));
                prop_assert_eq!(bits(&a), bits(&b));
            }
        }
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
    fn cell_answers_match_the_membership_filter(objs in objects(), q in query(), fanout in 2usize..12,
                                                cell in 2.0f64..16.0, seed in any::<u64>(),
                                                threads in prop_oneof![Just(1usize), Just(4)]) {
        // The packing grid covers [0, 48]² with a non-dyadic L. A sixth of
        // the objects sit on its cell edges and corners, a sixth repeat the
        // object before them, a sixth crowd into one cell, and a sixth
        // move up to 24 units past the grid (some clamp into its outer
        // cells, some fall off it).
        let mut objs = objs;
        for i in 0..objs.len() {
            let (x, y, m) = (objs[i].location.x, objs[i].location.y, objs[i].measure);
            objs[i] = match i % 6 {
                0 => SpatialObject::at((x / cell).round() * cell, (y / cell).round() * cell, m),
                1 if i > 0 => SpatialObject::at(objs[i - 1].location.x, objs[i - 1].location.y, m),
                2 => SpatialObject::at(20.0 + x / 32.0, 30.0 + y / 32.0, m),
                3 => SpatialObject::at(x * 0.375 + 48.0, y - 8.0, m),
                _ => objs[i],
            };
        }
        let grid = GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(48.0, 48.0)), cell);
        // Every cell and one id past the grid.
        let cells: Vec<u32> = (0..=grid.num_cells() as u32).collect();
        let in_cell = |level: &[SpatialObject], id: u32| level.iter()
            .filter(|o| grid.cell_of(&o.location) == Some(id) && q.contains_point(&o.location))
            .fold(Aggregate::ZERO, |a, o| a.merge(&Aggregate::of(o)));
        let config = RTreeConfig::with_fanout(fanout);
        let pool = WorkerPool::new(threads);
        let tree = RTree::bulk_load_with(objs.clone(), config, Some(&grid), &pool);
        let got = tree.aggregate_cells(&q, &cells);
        prop_assert_eq!(got.len(), cells.len());
        for (&id, got) in cells.iter().zip(&got) {
            // Bit for bit in the tree's layout order; the same objects as
            // the input's own filter.
            prop_assert_eq!(bits(got), bits(&in_cell(tree.objects(), id)), "cell {}", id);
            let want = in_cell(&objs, id);
            prop_assert_eq!(got.count, want.count);
            prop_assert!(close(got.sum, want.sum) && close(got.sum_sqr, want.sum_sqr));
        }
        let on_grid = brute(&objs.iter().copied().filter(|o| grid.cell_of(&o.location).is_some()).collect::<Vec<_>>(), &q);
        prop_assert_eq!(got.iter().map(|a| a.count).sum::<f64>(), on_grid.count, "each object once");

        let mut rng = StdRng::seed_from_u64(seed);
        let forest = LsrForest::build_with(&objs, config, Some(&grid), &mut rng, &pool);
        for l in 0..forest.num_levels() {
            let level = forest.level(l).unwrap().objects();
            let scale = (1u64 << l) as f64;
            let got = forest.query_cells_at_level(&q, &cells, l);
            for (&id, got) in cells.iter().zip(&got) {
                prop_assert_eq!(bits(got), bits(&in_cell(level, id).scale(scale)), "level {}, cell {}", l, id);
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
    fn every_stacked_layer_walks_the_bits_of_its_own_prefix_grid(cell in 2.0f64..20.0, layers in 1usize..6,
                                                                   seed in any::<u64>(), q in any_query()) {
        let grids = stacked_grids(cell, layers, seed);
        let refs: Vec<&GridIndex> = grids.iter().collect();
        let stack = PrefixStack::build(&refs);
        prop_assert_eq!(stack.layers(), grids.len());
        let mut all = vec![Aggregate { count: 9.0, sum: 9.0, sum_sqr: 9.0 }; grids.len()];
        stack.aggregate_intersecting(&q, &mut all);
        for (l, grid) in grids.iter().enumerate() {
            let want = PrefixGrid::build(grid).aggregate_intersecting(&q);
            prop_assert_eq!(bits(&all[l]), bits(&want), "layer {} of {} over {}", l, grids.len(), q);
            let [layer, first] = stack.layers_intersecting(&q, [l, 0]);
            prop_assert_eq!(bits(&layer), bits(&want), "layer {} alone over {}", l, q);
            prop_assert_eq!(bits(&first), bits(&all[0]));
        }
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

/// Folds the `to_bits` of an answer into an FNV-1a hash.
fn fnv_fold(hash: &mut u64, a: &Aggregate) {
    for word in bits(a) {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every answer a tree and its forest give over `probes`, hashed in
/// probe order: `aggregate`, `aggregate_clipped` over each of nine closed
/// lattice cells around the probe (edges shared), then
/// `LsrForest::query_at_level` at every level.
fn answer_hash(objs: &[SpatialObject], fanout: usize, probes: &[Range]) -> u64 {
    let config = RTreeConfig::with_fanout(fanout);
    let tree = RTree::bulk_load(objs.to_vec(), config);
    let forest = LsrForest::build(objs, config, &mut StdRng::seed_from_u64(fanout as u64));
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for q in probes {
        fnv_fold(&mut hash, &tree.aggregate(q));
        let c = q.bounding_rect().center();
        let (ix, iy) = ((c.x / 8.0).floor(), (c.y / 8.0).floor());
        let clips: Vec<Rect> = (0..9)
            .map(|k| {
                let (x, y) = (
                    (ix + f64::from(k % 3 - 1)) * 8.0,
                    (iy + f64::from(k / 3 - 1)) * 8.0,
                );
                Rect::new(Point::new(x, y), Point::new(x + 8.0, y + 8.0))
            })
            .collect();
        for clip in &clips {
            fnv_fold(&mut hash, &tree.aggregate_clipped(q, clip));
        }
        for l in 0..forest.num_levels() {
            fnv_fold(&mut hash, &forest.query_at_level(q, l));
        }
    }
    hash
}

/// The tree's memory layout must not show in any answer. These hashes
/// were computed on commit 34bd9a7, whose nodes each owned a child `Vec`
/// and whose leaves indexed an x-sorted object array; the packed layout
/// folds the same nodes and objects in the same order, so every answer
/// keeps its bits. Measures are continuous in −5..5, so sums cancel and
/// any re-association would show.
#[test]
fn tree_and_forest_answers_are_pinned_to_the_bit() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0032);
    let objs: Vec<SpatialObject> = (0..4000)
        .map(|_| {
            SpatialObject::at(
                rng.random_range(0.0..SIDE),
                rng.random_range(0.0..SIDE),
                rng.random_range(-5.0..5.0),
            )
        })
        .collect();
    // On the data, straddling its edge, and fully off it; circles and rects.
    let mut probes = Vec::new();
    for i in 0..180 {
        let (cx, cy) = match i % 3 {
            0 => (
                rng.random_range(4.0..SIDE - 4.0),
                rng.random_range(4.0..SIDE - 4.0),
            ),
            1 => (rng.random_range(-4.0..4.0), rng.random_range(0.0..SIDE)),
            _ => (
                rng.random_range(-300.0..-100.0),
                rng.random_range(SIDE + 100.0..SIDE + 300.0),
            ),
        };
        let (w, h) = (rng.random_range(0.5..20.0), rng.random_range(0.5..20.0));
        probes.push(if i % 2 == 0 {
            Range::circle(Point::new(cx, cy), w)
        } else {
            Range::rect(Point::new(cx - w, cy - h), Point::new(cx + w, cy + h))
        });
    }
    let got = [
        answer_hash(&objs, 4, &probes),
        answer_hash(&objs, 9, &probes),
        answer_hash(&objs, 16, &probes),
        answer_hash(&objs[..1], 16, &probes),
    ];
    assert_eq!(
        got,
        [
            0x7709_856c_0af9_1ff7,
            0x410d_ae1b_9d17_4d15,
            0x71d3_5a50_8e7c_c633,
            0x077e_f038_891c_d118,
        ],
        "{got:#018x?}"
    );
}
