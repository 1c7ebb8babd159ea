//! End-to-end tests of the geo extension: regional energy accounting and
//! the price-aware factor, exercised through the full simulator.

#[path = "../crates/placement/spec/spec.rs"]
mod spec;

use dvmp::prelude::*;
use dvmp_geo::{regional_costs, total_cost, PriceFactor, WanPenaltyFactor};
use spec::Spec;
use std::sync::Arc;

fn geo_scenario(shift_hours: u64, seed: u64) -> (Scenario, Arc<dvmp_geo::GeoTopology>) {
    let (fleet, topology) = dvmp_geo::topology::two_region_paper_fleet(shift_hours);
    let topology = Arc::new(topology);
    let mut p = LpcProfile::light();
    p.daily_arrivals.truncate(1);
    let trace = SyntheticGenerator::new(p, seed).generate();
    let mut sim = SimConfig::default();
    sim.seed = seed;
    sim.horizon = SimTime::from_days(1);
    sim.power_groups = Some(topology.power_groups());
    // All machines on: with spare control the on-demand boot order (by id)
    // would keep the whole west region dark at this light load, leaving
    // the price factor nothing to choose between (the full-load example
    // exercises the spare-controlled case).
    sim.spare = None;
    (
        Scenario::from_trace("geo-e2e", fleet, &trace, sim),
        topology,
    )
}

#[test]
fn regional_energy_sums_to_total() {
    let (scenario, _topology) = geo_scenario(12, 42);
    let report = scenario.run(Box::new(DynamicPlacement::paper_default()));
    assert_eq!(
        report.group_names,
        vec!["east".to_owned(), "west".to_owned()]
    );
    assert_eq!(report.group_hourly_kwh.len(), 2);
    let regional: f64 = report.group_hourly_kwh.iter().flatten().sum();
    assert!(
        (regional - report.total_energy_kwh).abs() < 1e-6,
        "regional kWh {regional} must sum to total {}",
        report.total_energy_kwh
    );
}

#[test]
fn price_factor_reduces_cost_with_antiphased_tariffs() {
    let (scenario, topology) = geo_scenario(12, 42);
    let base = scenario.run(Box::new(DynamicPlacement::paper_default()));
    let aware = scenario.run(Box::new(
        DynamicPlacement::paper_default().with_factor(Arc::new(PriceFactor::new(topology.clone()))),
    ));
    let base_cost = total_cost(&base, &topology);
    let aware_cost = total_cost(&aware, &topology);
    assert!(
        aware_cost < base_cost,
        "price-aware {aware_cost:.2} must beat base {base_cost:.2}"
    );
    // Both serve the whole workload.
    assert_eq!(base.total_arrivals, aware.total_arrivals);
    // Energy may differ slightly but not wildly (< 5%).
    let rel = (aware.total_energy_kwh / base.total_energy_kwh - 1.0).abs();
    assert!(rel < 0.05, "energy drift {rel}");
}

#[test]
fn identical_tariffs_offer_nothing_to_arbitrage() {
    let (scenario, topology) = geo_scenario(0, 42);
    let base = scenario.run(Box::new(DynamicPlacement::paper_default()));
    let aware = scenario.run(Box::new(
        DynamicPlacement::paper_default().with_factor(Arc::new(PriceFactor::new(topology.clone()))),
    ));
    let base_cost = total_cost(&base, &topology);
    let aware_cost = total_cost(&aware, &topology);
    // With zero phase difference the factor is ~1 everywhere; costs differ
    // only by placement noise.
    let rel = (aware_cost / base_cost - 1.0).abs();
    assert!(rel < 0.03, "no-arbitrage drift {rel}");
}

#[test]
fn wan_penalty_reduces_cross_region_migrations() {
    let (scenario, topology) = geo_scenario(12, 42);
    let free = scenario.run(Box::new(
        DynamicPlacement::paper_default().with_factor(Arc::new(PriceFactor::new(topology.clone()))),
    ));
    let penalized = scenario.run(Box::new(
        DynamicPlacement::paper_default()
            .with_factor(Arc::new(PriceFactor::new(topology.clone())))
            .with_factor(Arc::new(WanPenaltyFactor::new(topology.clone(), 0.3))),
    ));
    assert!(
        penalized.total_migrations <= free.total_migrations,
        "WAN penalty cannot increase migrations ({} vs {})",
        penalized.total_migrations,
        free.total_migrations
    );
}

#[test]
fn regional_cost_breakdown_matches_total() {
    let (scenario, topology) = geo_scenario(12, 7);
    let report = scenario.run(Box::new(FirstFit));
    let regional = regional_costs(&report, &topology);
    assert_eq!(regional.len(), 2);
    let sum: f64 = regional.iter().sum();
    assert!((sum - total_cost(&report, &topology)).abs() < 1e-9);
    assert!(regional.iter().all(|&c| c >= 0.0));
}

/// The report as JSON without its attachment sections (`meta` carries
/// host details; `obs` and `timeseries` are opt-in telemetry).
fn core_json(mut report: RunReport) -> String {
    report.meta = None;
    report.obs = None;
    report.timeseries = None;
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn keyed_factors_run_identically_on_the_dense_reference() {
    // The two-region week under spare control with both region-keyed
    // factors: the production planner (tables evaluated per pass, rebuilt
    // when a tariff steps) and the executable specification (factors
    // evaluated per entry) must produce the same report.
    let (fleet, topology) = dvmp_geo::topology::two_region_paper_fleet(8);
    let topology = Arc::new(topology);
    let trace = SyntheticGenerator::new(LpcProfile::light(), 42).generate();
    let mut sim = SimConfig::default();
    sim.seed = 42;
    sim.power_groups = Some(topology.power_groups());
    let scenario = Scenario::from_trace("geo-week", fleet, &trace, sim);
    let price = Arc::new(PriceFactor::new(topology.clone()));
    let wan = Arc::new(WanPenaltyFactor::new(topology.clone(), 0.6));
    let production = scenario.run(Box::new(
        DynamicPlacement::paper_default()
            .with_factor(price.clone())
            .with_factor(wan.clone()),
    ));
    assert!(production.total_migrations > 0, "the week must migrate");
    let reference = scenario.run(Box::new(
        Spec::new(DynamicConfig::default())
            .with_factor(price)
            .with_factor(wan),
    ));
    assert_eq!(core_json(production), core_json(reference));
}
