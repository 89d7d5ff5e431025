//! The moment mask never changes an answer: every product path sends a
//! `Request::Masked` naming `F`'s moments, and its answer must equal, bit
//! for bit, what the same finish step makes of the unmasked (full-triple)
//! reply. MultiSilo-est, which has no plan/finish split, is pinned by its
//! own unit test in `multi.rs`.

use fedra::federation::{Request, Response};
use fedra::prelude::*;

fn federation() -> (Federation, Vec<FraQuery>) {
    let dataset = WorkloadSpec::default()
        .with_total_objects(20_000)
        .with_silos(4)
        .with_seed(28)
        .generate();
    let all = dataset.all_objects();
    let fed = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(dataset.into_partitions());
    let mut generator = QueryGenerator::new(&all, 29);
    let queries = generator
        .circles(2.0, 12)
        .into_iter()
        .chain(generator.circles(0.6, 6))
        .flat_map(|range| AggFunc::ALL.map(|func| FraQuery::new(range, func)))
        .collect();
    (fed, queries)
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

fn assert_same_answer(masked: &QueryResult, full: &QueryResult, what: &str) {
    assert_eq!(masked.value.to_bits(), full.value.to_bits(), "{what}");
    assert_eq!(masked, full, "{what}");
}

#[test]
fn the_estimators_answer_the_same_bits_from_a_masked_reply() {
    let (fed, queries) = federation();
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
            let full_reply = fed.call(silo, &full_request).expect("full call");
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
fn the_fan_outs_answer_the_same_bits_from_masked_replies() {
    let (fed, queries) = federation();
    let fan_outs: [Box<dyn FraAlgorithm>; 2] = [Box::new(Exact::new()), Box::new(Opta::new())];
    for algorithm in &fan_outs {
        for query in &queries {
            let request = algorithm.fan_out(query).expect("a fan-out");
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
