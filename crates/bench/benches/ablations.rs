//! Ablations of the design choices DESIGN.md calls out:
//!
//! A. prefix-sum grid vs naive cell scan for sum₀ (Sec. 4.2.1 remark),
//!    and m + 1 per-grid prefix walks vs one walk of the provider's
//!    interleaved stack over [g₀, g₁ … g_m];
//! B. NonIID boundary-cells-only transfer vs shipping the full
//!    intersecting-cell vector (Sec. 4.2.2 remark);
//! C. LSR level-selection rule vs fixed levels;
//! D. single-silo vs k-silo pooled sampling (estimator variance);
//! E. cold vs warm provider start (snapshot checksums vs full transfer).

use std::time::Instant;

use fedra_bench::{build_testbed, SweepConfig};
use fedra_core::{theory, Exact, FraAlgorithm, FraQuery, NonIidEst};
use fedra_federation::wire::Wire;
use fedra_federation::{LocalMode, Request, Response};
use fedra_geo::Range;
use fedra_index::grid::PrefixGrid;
use fedra_index::{AggFunc, Aggregate};
use fedra_workload::QueryGenerator;

fn main() {
    let config = SweepConfig::from_env();
    let point = config.defaults;
    let testbed = fedra_bench::timed("build testbed", || build_testbed(&point, 48));
    let fed = &testbed.federation;
    let mut generator = QueryGenerator::new(&testbed.all_objects, 49);
    let ranges = generator.circles(point.radius_km, 200);

    // --- A: prefix-sum vs naive sum0 -----------------------------------
    let grid = fed.merged_grid();
    let prefix = PrefixGrid::build(grid);
    let t0 = Instant::now();
    let mut acc_naive = 0.0;
    for r in &ranges {
        acc_naive += grid.aggregate_intersecting(r).count;
    }
    let naive_time = t0.elapsed();
    let t0 = Instant::now();
    let mut acc_prefix = 0.0;
    for r in &ranges {
        acc_prefix += prefix.aggregate_intersecting(r).count;
    }
    let prefix_time = t0.elapsed();
    assert!((acc_naive - acc_prefix).abs() < 1e-6 * acc_naive.max(1.0));
    println!(
        "=== Ablation A: sum0 computation over {} ranges ===",
        ranges.len()
    );
    println!("  naive cell scan : {naive_time:?}");
    println!(
        "  cumulative array: {prefix_time:?}  ({:.1}x)",
        naive_time.as_secs_f64() / prefix_time.as_secs_f64()
    );

    // sum₀ and every sum_k: one PrefixGrid walk per grid, as the provider
    // once did, against one walk of its stack. Same ranges, same bits.
    let per_grid: Vec<PrefixGrid> = std::iter::once(grid)
        .chain((0..fed.num_silos()).map(|k| fed.silo_grid(k)))
        .map(PrefixGrid::build)
        .collect();
    let layers = per_grid.len();
    let t0 = Instant::now();
    let separate: Vec<Aggregate> = ranges
        .iter()
        .flat_map(|r| per_grid.iter().map(|p| p.aggregate_intersecting(r)))
        .collect();
    let separate_time = t0.elapsed();
    let t0 = Instant::now();
    let mut stacked = vec![Aggregate::ZERO; ranges.len() * layers];
    for (r, out) in ranges.iter().zip(stacked.chunks_mut(layers)) {
        fed.prefix_stack().aggregate_intersecting(r, out);
    }
    let stacked_time = t0.elapsed();
    let bits = |a: &Aggregate| [a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits()];
    for (i, (a, b)) in separate.iter().zip(&stacked).enumerate() {
        let (range, layer) = (i / layers, i % layers);
        assert_eq!(bits(a), bits(b), "range {range}, layer {layer}");
    }
    println!("  {layers} per-grid walks: {separate_time:?}");
    println!(
        "  one stacked walk: {stacked_time:?}  ({:.1}x, identical bits)",
        separate_time.as_secs_f64() / stacked_time.as_secs_f64()
    );

    // --- B: boundary-only vs full-vector NonIID transfer ----------------
    // The benefit of the Sec. 4.2.2 remark scales with r/L: at small
    // radii almost every intersecting cell *is* a boundary cell, while
    // large circles cover an O((r/L)^2) interior that never needs to be
    // shipped. Sweep the ratio. Both arms ask for COUNT's one moment, as
    // NonIID-est does for the COUNT queries of every figure.
    //
    // The protocol can no longer ask for arbitrary cells: a silo works
    // out the boundary cells itself and replies for those it holds mass
    // in. So the boundary-only arm is measured over the wire, and the
    // full-vector arm is priced: the same request plus the cell ids
    // (`encoded_len()` of a u32 vector: a varint count, 4 B per id), and
    // a reply of one COUNT aggregate per intersecting cell, each priced
    // with silo 0's whole count in that cell (an upper bound: a cell's
    // in-range count is no larger, and a smaller whole number never
    // takes a longer varint, so neither cell-vector layout — COUNT
    // column or sparse cells — nor the shorter of the two can grow).
    // Both include the envelope each way.
    let spec = *grid.spec();
    let request = |range: Range| Request::Masked {
        moments: AggFunc::Count.moments(),
        request: Box::new(Request::CellContributions {
            range,
            mode: LocalMode::Exact,
        }),
    };
    println!();
    println!(
        "=== Ablation B: NonIID transfer, boundary-only (measured) vs all intersecting cells (priced) ==="
    );
    for radius in [
        point.radius_km,
        2.0 * point.radius_km,
        4.0 * point.radius_km,
    ] {
        let mut generator_b = QueryGenerator::new(&testbed.all_objects, 777);
        let ranges_b = generator_b.circles(radius, 50);
        let mut boundary_bytes = 0u64;
        let mut full_bytes = 0u64;
        for r in &ranges_b {
            let all: Vec<u32> = spec.classify(r).iter().collect();
            fed.reset_query_comm();
            let _ = fed.call(0, &request(*r));
            boundary_bytes += fed.query_comm().total_bytes();
            let reply = Response::AggVec(
                all.iter()
                    .map(|&id| fed.silo_grid(0).cell(id).masked(AggFunc::Count.moments()))
                    .collect(),
            );
            full_bytes += (request(*r).encoded_len() + all.encoded_len() + reply.encoded_len())
                as u64
                + 2 * fed.message_overhead();
        }
        println!(
            "  r = {radius:>4} km (r/L = {:>4.1}): boundary-only {boundary_bytes} B, all cells {full_bytes} B ({:.2}x more)",
            radius / point.grid_len_km,
            full_bytes as f64 / boundary_bytes as f64
        );
    }

    // --- C: LSR level rule vs fixed levels ------------------------------
    println!();
    println!("=== Ablation C: LSR fixed level vs Lemma-1 rule (silo 0, 100 ranges) ===");
    let exact_alg = Exact::new();
    let mut exact_vals = Vec::new();
    for r in ranges.iter().take(100) {
        exact_vals.push(
            match fed.call(
                0,
                &Request::Aggregate {
                    range: *r,
                    mode: LocalMode::Exact,
                },
            ) {
                Ok(Response::Agg(a)) => a.count,
                other => panic!("unexpected {other:?}"),
            },
        );
    }
    let _ = &exact_alg;
    for level_desc in ["rule", "0", "2", "4", "6", "8"] {
        let t0 = Instant::now();
        let mut err_sum = 0.0;
        for (r, &truth) in ranges.iter().take(100).zip(&exact_vals) {
            let mode = match level_desc {
                "rule" => {
                    let sum0 = fedra_core::helpers::sum0(fed, r).count;
                    LocalMode::lsr(theory::select_level(point.epsilon, point.delta, sum0))
                }
                level => LocalMode::Lsr {
                    level: level.parse().unwrap(),
                },
            };
            match fed.call(0, &Request::Aggregate { range: *r, mode }) {
                Ok(Response::Agg(a)) => {
                    if truth > 0.0 {
                        err_sum += (a.count - truth).abs() / truth;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        println!(
            "  level {:>4}: MRE {:>6.2} %  time {:?}",
            level_desc,
            err_sum,
            t0.elapsed()
        );
    }

    // --- D: single vs k-silo pooled sampling ----------------------------
    println!();
    println!("=== Ablation D: pooling k sampled silos (MultiSilo-est) ===");
    let truth: Vec<f64> = ranges
        .iter()
        .take(60)
        .map(|r| {
            Exact::new()
                .execute(fed, &FraQuery::new(*r, AggFunc::Count))
                .value
        })
        .collect();
    for k in [1usize, 2, 3, point.num_silos] {
        let alg = NonIidEst::pooled(900 + k as u64, k);
        let mut err_sum = 0.0;
        let mut bytes = 0u64;
        let mut counted = 0usize;
        for (r, &t) in ranges.iter().take(60).zip(&truth) {
            if t == 0.0 {
                continue;
            }
            let q = FraQuery::new(*r, AggFunc::Count);
            fed.reset_query_comm();
            let est = alg.execute(fed, &q).value;
            bytes += fed.query_comm().total_bytes();
            err_sum += (est - t).abs() / t;
            counted += 1;
        }
        println!(
            "  k = {k}: MRE {:.2} %, comm {:.1} KB over {counted} queries",
            err_sum / counted as f64 * 100.0,
            bytes as f64 / 1024.0
        );
    }

    // --- E: cold vs warm provider start ---------------------------------
    println!();
    println!("=== Ablation E: Alg. 1 setup traffic, cold vs warm start ===");
    let spec_small = fedra_workload::WorkloadSpec::default()
        .with_total_objects(point.data_size / 4)
        .with_silos(point.num_silos)
        .with_seed(979);
    let dataset = spec_small.generate();
    let bounds = dataset.bounds();
    let partitions = dataset.into_partitions();
    let cold = fedra_federation::FederationBuilder::new(bounds)
        .grid_cell_len(point.grid_len_km)
        .build(partitions.clone());
    let cold_setup = cold.setup_comm().total_bytes();
    let snapshot = cold.snapshot();
    drop(cold);
    let warm = fedra_federation::FederationBuilder::new(bounds)
        .grid_cell_len(point.grid_len_km)
        .warm_start(snapshot)
        .build(partitions);
    let warm_setup = warm.setup_comm().total_bytes();
    println!("  cold start: {:.1} KB", cold_setup as f64 / 1024.0);
    println!(
        "  warm start: {:.1} KB ({} of {} silos from cache, {:.1}x less traffic)",
        warm_setup as f64 / 1024.0,
        warm.warm_start_hits(),
        warm.num_silos(),
        cold_setup as f64 / warm_setup as f64
    );
}
