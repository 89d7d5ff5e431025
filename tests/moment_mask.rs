//! The moment mask never changes an answer: every product path sends a
//! `Request::Masked` naming `F`'s moments, and its answer must equal, bit
//! for bit, what the same finish step makes of the unmasked (full-triple)
//! reply. NonIID-est's pooled finish at `k > 1` is pinned by its own unit
//! test in `sampling.rs`.
//!
//! A NonIID reply carries only the boundary cells whose own mass the
//! provider's ratio reads; `noniid_est_answers_what_the_old_full_cell_reply_answered`
//! checks that against the old protocol, which shipped every boundary
//! cell's clipped aggregate.

use fedra::core::helpers::ratio_scale;
use fedra::core::{QueryPlan, RemotePlan};
use fedra::federation::{LocalMode, Request, Response};
use fedra::geo::intersection_area;
use fedra::index::grid::{GridIndex, GridSpec};
use fedra::index::lsr::LsrForest;
use fedra::index::rtree::RTreeConfig;
use fedra::index::Moments;
use fedra::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The federation's LSR sampling seed, so the old-protocol reference can
/// rebuild each silo's forest.
const LSR_SEED: u64 = 29;

/// A 4-silo federation, its partitions, and circle queries in all five
/// functions. Silo 0 also holds objects on the far corner of cells it
/// otherwise holds nothing in, each the centre of one more query: those
/// cells are boundary cells whose closed clip is non-empty, yet the silo
/// leaves them out of its reply.
fn federation() -> (Federation, Vec<Vec<SpatialObject>>, Vec<FraQuery>) {
    let dataset = WorkloadSpec::default()
        .with_total_objects(20_000)
        .with_silos(4)
        .with_seed(28)
        .generate();
    let all = dataset.all_objects();
    let bounds = dataset.bounds();
    let mut partitions = dataset.into_partitions();
    let spec = GridSpec::new(bounds, 1.0);
    let silo0 = GridIndex::build(spec, &partitions[0]);
    let corners: Vec<Point> = (0..spec.num_cells() as u32)
        .filter(|&id| silo0.cell(id).count == 0.0)
        .filter_map(|id| {
            let (ix, iy) = spec.cell_coords(id);
            let corner = spec.cell_rect(ix, iy).max;
            (ix + 1 < spec.nx() && iy + 1 < spec.ny()).then_some(corner)
        })
        .step_by(7)
        .take(6)
        .collect();
    assert_eq!(corners.len(), 6);
    partitions[0].extend(corners.iter().map(|c| SpatialObject::at(c.x, c.y, 2.5)));
    let fed = FederationBuilder::new(bounds)
        .grid_cell_len(1.0)
        .lsr_seed(LSR_SEED)
        .build(partitions.clone());
    let mut generator = QueryGenerator::new(&all, 29);
    let queries = generator
        .circles(2.0, 12)
        .into_iter()
        .chain(generator.circles(0.6, 6))
        .chain(corners.iter().map(|&c| Range::circle(c, 0.6)))
        .flat_map(|range| AggFunc::ALL.map(|func| FraQuery::new(range, func)))
        .collect();
    (fed, partitions, queries)
}

/// The request a masked request wraps, after checking the mask is `F`'s.
fn unmasked(request: &Request, query: &FraQuery) -> Request {
    match request {
        Request::Masked { moments, request } => {
            assert_eq!(*moments, query.func.moments(), "{query}");
            (**request).clone()
        }
        other => panic!("{query}: the product path sent an unmasked {other:?}"),
    }
}

/// `silo`'s answer to the unmasked `request`. A cell reply, which an
/// unmasked request makes over the cells any moment keeps, is cut down
/// to the cells `F`'s moments keep (a subset) — the layout the finish
/// step reads.
fn full_reply(fed: &Federation, silo: SiloId, request: &Request, query: &FraQuery) -> Response {
    match (request, fed.call(silo, request).expect("full call")) {
        (Request::CellContributions { range, .. }, Response::AggVec(all)) => {
            let grid = fed.silo_grid(silo);
            let kept = grid.contributing_cells(range, query.func.moments());
            let mut every = grid
                .contributing_cells(range, Moments::ALL)
                .into_iter()
                .zip(all);
            Response::AggVec(
                kept.iter()
                    .map(|id| every.find(|(c, _)| c == id).expect("a kept cell").1)
                    .collect(),
            )
        }
        (_, reply) => reply,
    }
}

fn agg_bits(a: &Aggregate) -> [u64; 3] {
    [a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits()]
}

fn assert_same_answer(masked: &QueryResult, full: &QueryResult, what: &str) {
    assert_eq!(masked.value.to_bits(), full.value.to_bits(), "{what}");
    assert_eq!(masked, full, "{what}");
}

#[test]
fn the_estimators_answer_the_same_bits_from_a_masked_reply() {
    let (fed, _, queries) = federation();
    let params = AccuracyParams::default();
    let estimators: [Box<dyn FraAlgorithm>; 4] = [
        Box::new(IidEst::new(5)),
        Box::new(IidEstLsr::new(5, params)),
        Box::new(NonIidEst::new(5)),
        Box::new(NonIidEstLsr::new(5, params)),
    ];
    let noop = ObsContext::noop();
    for algorithm in &estimators {
        let name = algorithm.name();
        let mut planned = 0;
        for query in &queries {
            let fedra::core::QueryPlan::SingleSilo(plan) = algorithm.plan_with(&fed, query, noop)
            else {
                continue;
            };
            planned += 1;
            let silo = plan.order[0];
            let full_request = unmasked(&plan.request, query);
            let masked_reply = fed.call(silo, &plan.request).expect("masked call");
            let full_reply = full_reply(&fed, silo, &full_request, query);
            let masked = algorithm
                .finish_with(&fed, query, silo, masked_reply, 1, noop)
                .expect("finish on the masked reply");
            let full = algorithm
                .finish_with(&fed, query, silo, full_reply, 1, noop)
                .expect("finish on the full reply");
            assert_same_answer(&masked, &full, &format!("{name} {query}"));
        }
        assert!(
            planned > queries.len() / 2,
            "{name} planned {planned} queries"
        );
    }
}

#[test]
fn noniid_est_answers_what_the_old_full_cell_reply_answered() {
    let (fed, partitions, queries) = federation();
    // Each silo's forest, rebuilt the way `Silo::new` builds it.
    let forests: Vec<LsrForest> = partitions
        .iter()
        .enumerate()
        .map(|(k, objects)| {
            let seed = LSR_SEED ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            LsrForest::build(
                objects,
                RTreeConfig::default(),
                &mut StdRng::seed_from_u64(seed),
            )
        })
        .collect();
    let grid = fed.merged_grid();
    let spec = grid.spec();
    let params = AccuracyParams::default();
    let estimators = [NonIidEst::new(5), NonIidEstLsr::new(5, params)];
    let noop = ObsContext::noop();
    let (mut answers, mut unread_non_zero) = (0, 0);
    for algorithm in &estimators {
        for query in &queries {
            let fedra::core::QueryPlan::SingleSilo(plan) = algorithm.plan_with(&fed, query, noop)
            else {
                continue;
            };
            let Request::CellContributions { range, mode } = unmasked(&plan.request, query) else {
                panic!("NonIID-est sent another request");
            };
            let moments = query.func.moments();
            let cls = spec.classify(&range);
            // Every candidate, not only the one the seed samples first.
            for &silo in &plan.order {
                let reply = fed.call(silo, &plan.request).expect("masked call");
                let new = algorithm
                    .finish_with(&fed, query, silo, reply, 1, noop)
                    .expect("finish on the reply");
                // The old protocol: one clipped aggregate per boundary
                // cell, masked, and the old finish step over all of them.
                let forest = &forests[silo];
                let level = match mode {
                    LocalMode::Exact => None,
                    LocalMode::Lsr { level } => Some(forest.clamp_level(level.into())),
                };
                let silo_grid = fed.silo_grid(silo);
                let mut estimate = grid.aggregate_cells(cls.covered.iter().copied());
                for &cell in &cls.boundary {
                    let rect = spec.cell_rect_of(cell);
                    let res = match level {
                        None => forest.base().aggregate_clipped(&range, &rect),
                        Some(l) => forest.query_clipped_at_level(&range, &rect, l),
                    }
                    .masked(moments);
                    if !silo_grid.contributes(cell, moments) && !res.is_zero() {
                        unread_non_zero += 1;
                    }
                    let g0 = grid.cell(cell);
                    let fallback = || g0.scale(intersection_area(&range, &rect) / rect.area());
                    estimate.merge_in(&ratio_scale(g0, &res, silo_grid.cell(cell), fallback));
                }
                let old = QueryResult::from_aggregate(estimate, query.func);
                let what = format!("{} {query} silo {silo}", algorithm.name());
                assert_eq!(new.value.to_bits(), old.value.to_bits(), "{what}");
                assert_eq!(agg_bits(&new.aggregate), agg_bits(&old.aggregate), "{what}");
                answers += 1;
            }
        }
    }
    assert!(answers > queries.len(), "{answers} answers compared");
    assert!(
        unread_non_zero > 0,
        "some left-out cell must have held an in-range object on its edge"
    );
}

#[test]
fn the_fan_outs_answer_the_same_bits_from_masked_replies() {
    let (fed, _, queries) = federation();
    let fan_outs: [Box<dyn FraAlgorithm>; 2] = [Box::new(Exact::new()), Box::new(Opta::new())];
    for algorithm in &fan_outs {
        for query in &queries {
            let QueryPlan::SingleSilo(RemotePlan { request, .. }) =
                algorithm.plan_with(&fed, query, ObsContext::noop())
            else {
                panic!("{} plans every silo", algorithm.name());
            };
            let full_request = unmasked(&request, query);
            // The join's own rule: full partials summed in silo-id order.
            let mut total = Aggregate::ZERO;
            for silo in 0..fed.num_silos() {
                match fed.call(silo, &full_request).expect("full call") {
                    Response::Agg(partial) => total.merge_in(&partial),
                    other => panic!("unexpected {other:?}"),
                }
            }
            let full = QueryResult::from_aggregate(total, query.func).with_rounds(4);
            let masked = algorithm.try_execute(&fed, query).expect("masked fan-out");
            assert_same_answer(&masked, &full, &format!("{} {query}", algorithm.name()));
        }
    }
}
