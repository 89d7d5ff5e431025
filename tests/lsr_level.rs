//! An LSR request carries only the Lemma-1 level the provider selected
//! (`theory::select_level`), never `(ε, δ, sum₀)`. The silo clamps that
//! level to its own forest, so it answers the bits the forest answers
//! when it selects the level itself: `LsrForest::query(range, ε, δ, sum₀)`
//! for `Aggregate`, and `query_cells_at_level` at the forest's selected
//! level for `CellContributions`. A level above the forest's top (but
//! within the wire's 63) answers on the top level.

use fedra::core::helpers;
use fedra::core::theory::select_level;
use fedra::federation::{LocalMode, Request, Response};
use fedra::index::grid::GridSpec;
use fedra::index::lsr::LsrForest;
use fedra::index::pool::WorkerPool;
use fedra::index::Moments;
use fedra::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const LSR_SEED: u64 = 41;

fn agg_bits(a: &Aggregate) -> [u64; 3] {
    [a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits()]
}

#[test]
fn a_silo_answers_the_sent_level_with_the_bits_of_the_forest_selecting_it() {
    let dataset = WorkloadSpec::default()
        .with_total_objects(24_000)
        .with_silos(3)
        .with_seed(17)
        .generate();
    let all = dataset.all_objects();
    let bounds = dataset.bounds();
    let partitions = dataset.into_partitions();
    let builder = FederationBuilder::new(bounds)
        .grid_cell_len(1.0)
        .lsr_seed(LSR_SEED);
    // Each silo's forest, built the way its `Setup` builds it: continuous
    // measures match a silo's answers only on a grid-packed forest.
    let forests: Vec<LsrForest> = partitions
        .iter()
        .enumerate()
        .map(|(k, objects)| {
            let spec = builder.silo_spec(k);
            LsrForest::build_with(
                objects,
                spec.rtree,
                Some(&GridSpec::new(spec.bounds, spec.cell_len)),
                &mut StdRng::seed_from_u64(spec.lsr_seed),
                &WorkerPool::sequential(),
            )
        })
        .collect();
    let fed = builder.build(partitions);
    let mut generator = QueryGenerator::new(&all, 18);
    let ranges: Vec<Range> = generator
        .circles(0.8, 6)
        .into_iter()
        .chain(generator.circles(3.0, 6))
        .chain(generator.circles(4.0, 4).into_iter().map(|range| {
            let Range::Circle(c) = range else {
                unreachable!("circles are circles")
            };
            let half = Point::new(c.radius, c.radius * 0.6);
            Range::rect(
                Point::new(c.center.x - half.x, c.center.y - half.y),
                Point::new(c.center.x + half.x, c.center.y + half.y),
            )
        }))
        .collect();
    // The provider's own sum₀, then ones whose rule lands above every
    // silo's top level (which must clamp) but within the wire's 63.
    let accuracies = [(0.1, 0.01), (0.3, 0.05)];
    let (mut compared, mut sampled, mut clamped) = (0, 0, 0);
    for range in &ranges {
        let provider_sum0 = helpers::sum0(&fed, range).count;
        for sum0 in [provider_sum0, 1e9, 1e15] {
            for &(epsilon, delta) in &accuracies {
                let level = select_level(epsilon, delta, sum0);
                let mode = LocalMode::Lsr {
                    level: u8::try_from(level).expect("a level within the wire's 63"),
                };
                for (silo, forest) in forests.iter().enumerate() {
                    let selected = forest.select_level(epsilon, delta, sum0);
                    if selected < level {
                        clamped += 1;
                    } else if selected > 0 {
                        sampled += 1;
                    }
                    let what = format!("silo {silo}, {range:?}, sum₀ {sum0}, level {level}");
                    let aggregate = Request::Aggregate {
                        range: *range,
                        mode,
                    };
                    let Ok(Response::Agg(answer)) = fed.call(silo, &aggregate) else {
                        panic!("{what}: no aggregate");
                    };
                    let (reference, reference_level) = forest.query(range, epsilon, delta, sum0);
                    assert_eq!(reference_level, selected, "{what}");
                    assert_eq!(agg_bits(&answer), agg_bits(&reference), "{what}");

                    let contributions = Request::CellContributions {
                        range: *range,
                        mode,
                    };
                    let Ok(Response::AggVec(answer)) = fed.call(silo, &contributions) else {
                        panic!("{what}: no cell contributions");
                    };
                    // An unmasked request is answered over the cells any
                    // moment keeps.
                    let cells = fed.silo_grid(silo).contributing_cells(range, Moments::ALL);
                    let reference = forest.query_cells_at_level(range, &cells, selected);
                    assert_eq!(answer.len(), reference.len(), "{what}");
                    for (a, r) in answer.iter().zip(&reference) {
                        assert_eq!(agg_bits(a), agg_bits(r), "{what}");
                    }
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(
        compared,
        ranges.len() * 3 * accuracies.len() * forests.len()
    );
    assert!(
        sampled > 0,
        "no sent level named a sampled tree below the top"
    );
    assert!(clamped > 0, "no sent level was above a forest's top");
    // The deepest level the wire carries answers on each forest's top.
    for (silo, forest) in forests.iter().enumerate() {
        let range = ranges[0];
        let mode = LocalMode::Lsr {
            level: LocalMode::MAX_LSR_LEVEL,
        };
        let Ok(Response::Agg(answer)) = fed.call(silo, &Request::Aggregate { range, mode }) else {
            panic!("silo {silo}: no aggregate at level 63");
        };
        let top = forest.num_levels() - 1;
        assert!(top < 63, "silo {silo}: a {top}-level forest");
        assert_eq!(
            agg_bits(&answer),
            agg_bits(&forest.query_at_level(&range, top)),
            "silo {silo}"
        );
    }
}
