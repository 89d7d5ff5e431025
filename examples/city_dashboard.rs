//! A smart-mobility monitoring dashboard: AVG / STDEV of vehicle speed
//! per district over a taxi-data federation (the Sec. 7 extensions on
//! rectangular ranges).
//!
//! ```text
//! cargo run --release --example city_dashboard
//! ```
//!
//! The measure attribute here is vehicle speed (km/h). The dashboard
//! tiles the urban core into districts and asks, district by district:
//! how many vehicles, average speed, and speed variability — COUNT, AVG
//! and STDEV over rectangular ranges, answered with one silo contact per
//! district via NonIID-est.

use fedra::prelude::*;
use fedra::workload::MeasureModel;

fn main() {
    // A taxi federation: speed as the measure attribute.
    let mut spec = WorkloadSpec::default()
        .with_total_objects(150_000)
        .with_silos(6)
        .with_seed(314);
    spec.measure = MeasureModel::Speed;
    let dataset = spec.generate();
    let federation = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(dataset.into_partitions());

    // Districts: a 4×4 tiling of the urban core (the dense part of the
    // Beijing box — see fedra_workload::city).
    let core = Rect::new(Point::new(-45.0, -125.0), Point::new(55.0, -45.0));
    let (tiles_x, tiles_y) = (4, 4);
    let (w, h) = (
        core.width() / tiles_x as f64,
        core.height() / tiles_y as f64,
    );

    let noniid = NonIidEst::new(99);
    let exact = Exact::new();
    // Instrument the dashboard's own queries (the exact references stay
    // uninstrumented so the metrics describe the production path only).
    let obs = ObsContext::new();

    println!("district dashboard (COUNT / AVG speed / STDEV), approximate vs exact\n");
    println!(
        "{:>10} {:>18} {:>24} {:>24}",
        "district", "vehicles (≈ / =)", "avg speed km/h (≈ / =)", "stdev km/h (≈ / =)"
    );
    let mut total_err = 0.0;
    let mut cells = 0;
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let a = Point::new(core.min.x + tx as f64 * w, core.min.y + ty as f64 * h);
            let b = Point::new(a.x + w, a.y + h);
            let district = format!("D{}{}", tx + 1, ty + 1);

            let count_q = FraQuery::rect(a, b, AggFunc::Count);
            let avg_q = FraQuery::rect(a, b, AggFunc::Avg);
            let std_q = FraQuery::rect(a, b, AggFunc::Stdev);

            // STDEV reads all three moments, so its one silo round brings
            // back COUNT and AVG too. (A COUNT query would bring back the
            // count alone: a silo returns only what `F` reads.)
            let est = noniid
                .try_execute_with(&federation, &std_q, &obs)
                .expect("district query failed");
            let est_count = est.aggregate.count;
            let est_avg = est.aggregate.value(AggFunc::Avg);
            let est_std = est.value;

            let true_count = exact.execute(&federation, &count_q).value;
            let true_avg = exact.execute(&federation, &avg_q).value;
            let true_std = exact.execute(&federation, &std_q).value;

            println!(
                "{:>10} {:>8.0} / {:>7.0} {:>12.1} / {:>9.1} {:>12.1} / {:>9.1}",
                district, est_count, true_count, est_avg, true_avg, est_std, true_std
            );
            if true_count > 0.0 {
                total_err += (est_count - true_count).abs() / true_count;
                cells += 1;
            }
        }
    }
    println!(
        "\nmean relative COUNT error over {} non-empty districts: {:.2} %",
        cells,
        total_err / cells as f64 * 100.0
    );

    // Communication accounting for the whole dashboard refresh.
    let comm = federation.query_comm();
    println!(
        "dashboard refresh traffic: {} rounds, {:.1} KB total",
        comm.rounds,
        comm.total_bytes() as f64 / 1024.0
    );

    // ---- The ε-aware answer cache on the refresh loop ----------------
    //
    // Dashboards re-ask the same tiles forever, and the roll-up panels
    // ask the *unions* of tiles the per-district panels already asked.
    // The answer cache serves repeats by ε-containment and the roll-ups
    // by containment decomposition — zero silo contact for both. Every
    // served answer is checked against an exact truth run here, so the
    // violation count below is measured, not assumed.
    let cached = AnswerCache::with_policy(
        Exact::new(),
        CacheConfig::default(),
        CachePolicy {
            producer_epsilon: 0.0,
            containment: true,
        },
    );
    let epsilon = 0.05;
    let mut refresh: Vec<FraQuery> = Vec::new();
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let a = Point::new(core.min.x + tx as f64 * w, core.min.y + ty as f64 * h);
            let b = Point::new(a.x + w, a.y + h);
            refresh.push(FraQuery::rect(a, b, AggFunc::Count));
        }
    }
    // Roll-up panels: the four quadrants and the whole core, each the
    // exact union of tiles already on the board.
    for qy in 0..2 {
        for qx in 0..2 {
            let a = Point::new(
                core.min.x + qx as f64 * 2.0 * w,
                core.min.y + qy as f64 * 2.0 * h,
            );
            let b = Point::new(a.x + 2.0 * w, a.y + 2.0 * h);
            refresh.push(FraQuery::rect(a, b, AggFunc::Count));
        }
    }
    refresh.push(FraQuery::rect(core.min, core.max, AggFunc::Count));

    let mut violations = 0usize;
    for cycle in 0..3 {
        for query in &refresh {
            let answer = cached
                .try_execute_with_epsilon(&federation, query, epsilon, &obs)
                .expect("cached refresh failed");
            if answer.source != CacheSource::Miss {
                let truth = exact.execute(&federation, query).value;
                if (answer.result.value - truth).abs() > epsilon * truth.abs() + 1e-9 {
                    violations += 1;
                }
            }
        }
        let s = cached.stats();
        println!(
            "refresh cycle {}: {} hits / {} misses ({} decomposed)",
            cycle + 1,
            s.hits,
            s.misses,
            s.decomposed
        );
    }
    let stats = cached.stats();
    println!("cache hit rate: {:.1} %", stats.hit_rate() * 100.0);
    println!("cache ε violations: {violations}");
    println!("cache counters:");
    for (name, value) in &cached.metrics().snapshot().counters {
        println!("  {name} = {value}");
    }

    // What the observability layer saw: sampled-silo spread and phase
    // latencies for the dashboard's own (estimated) queries.
    let snapshot = obs.snapshot();
    println!("\nsampled-silo distribution:");
    for (name, value) in &snapshot.counters {
        if name.starts_with("fedra_sampled_silo_total") {
            println!("  {name} = {value}");
        }
    }
    println!("query phase latencies (ns):");
    for (name, hist) in &snapshot.histograms {
        if name.starts_with("fedra_span_ns") {
            println!(
                "  {name}: count {} mean {:.0}",
                hist.count,
                hist.sum as f64 / hist.count.max(1) as f64
            );
        }
    }
    println!("\nfull dump available in Prometheus or JSON form:");
    for line in obs.export_prometheus().lines().take(6) {
        println!("  {line}");
    }
    println!("  ...");
}
