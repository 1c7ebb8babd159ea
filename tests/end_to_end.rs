//! End-to-end integration: the full pipeline (synthetic workload → fleet →
//! policy → simulator → report) at one-day scale, asserting the paper's
//! qualitative claims.

use dvmp::prelude::*;

fn day_scenario(seed: u64) -> Scenario {
    Scenario::from_profile("e2e-light", LpcProfile::light(), seed).with_days(1)
}

#[test]
fn dynamic_beats_first_fit_on_energy_and_servers() {
    let scenario = day_scenario(42);
    let dynamic = scenario.run(Box::new(DynamicPlacement::paper_default()));
    let first_fit = scenario.run(Box::new(FirstFit));

    assert!(
        dynamic.total_energy_kwh < first_fit.total_energy_kwh,
        "dynamic {:.1} kWh must beat first-fit {:.1} kWh",
        dynamic.total_energy_kwh,
        first_fit.total_energy_kwh
    );
    assert!(
        dynamic.mean_active_servers() < first_fit.mean_active_servers(),
        "dynamic consolidates onto fewer machines"
    );
    assert!(dynamic.total_migrations > 0, "consolidation actually ran");
    assert_eq!(
        first_fit.total_migrations, 0,
        "static scheme never migrates"
    );
}

#[test]
fn all_policies_serve_the_same_workload() {
    let scenario = day_scenario(42);
    let reports: Vec<RunReport> = [
        Box::new(DynamicPlacement::paper_default()) as Box<dyn PlacementPolicy>,
        Box::new(FirstFit),
        Box::new(BestFit),
        Box::new(WorstFit),
        Box::new(RandomFit::new(42)),
    ]
    .into_iter()
    .map(|p| scenario.run(p))
    .collect();

    let arrivals = reports[0].total_arrivals;
    assert!(arrivals > 100, "the day has real volume ({arrivals})");
    for r in &reports {
        assert_eq!(
            r.total_arrivals, arrivals,
            "{} saw a different stream",
            r.policy
        );
        assert_eq!(
            r.qos.total_requests, arrivals,
            "{}: every request accounted",
            r.policy
        );
        // Conservation: departures + still-active + never-started = arrivals
        // is not directly observable here, but departures can never exceed
        // arrivals and energy must be positive.
        assert!(r.total_departures <= arrivals);
        assert!(r.total_energy_kwh > 0.0);
    }
}

#[test]
fn qos_bound_holds_at_calibrated_load() {
    let scenario = day_scenario(42);
    for factory in dvmp::experiment::PolicyFactory::paper_trio() {
        let r = scenario.run(factory.build());
        assert!(
            r.qos.meets_paper_slo(),
            "{} violates the 5% bound: {:.2}%",
            r.policy,
            r.qos.waited_fraction * 100.0
        );
    }
}

#[test]
fn energy_never_below_work_floor() {
    // Sanity: measured energy must be at least the energy of the work
    // itself (every VM·second costs at least 1/W_fast of a fast PM's
    // active draw) and at most the all-on fleet ceiling.
    let scenario = day_scenario(42);
    let r = scenario.run(Box::new(DynamicPlacement::paper_default()));
    let ceiling = (25.0 * 400.0 + 75.0 * 300.0) * 24.0 / 1_000.0; // all active, kWh
    assert!(
        r.total_energy_kwh < ceiling,
        "{} < {ceiling}",
        r.total_energy_kwh
    );
    // Work floor: offered core·seconds at the best per-slot wattage (fast
    // node: 400 W / 8 slots = 50 W per busy slot).
    let floor = scenario.mean_offered_concurrency() * 50.0 * 24.0 / 1_000.0 * 0.5;
    assert!(
        r.total_energy_kwh > floor,
        "{} kWh must exceed a conservative work floor {floor:.1}",
        r.total_energy_kwh
    );
}

#[test]
fn migration_counts_stay_bounded() {
    // MIG_round bounds migrations per trigger; with A arrivals and D
    // departures there can never be more than (A + D) · MIG_round moves.
    let scenario = day_scenario(42);
    let r = scenario.run(Box::new(DynamicPlacement::paper_default()));
    let triggers = r.total_arrivals + r.total_departures;
    assert!(
        r.total_migrations <= triggers * 20,
        "{} moves",
        r.total_migrations
    );
    // And in practice far fewer — consolidation converges.
    assert!(
        r.total_migrations < r.total_arrivals * 3,
        "suspicious migration volume: {} for {} arrivals",
        r.total_migrations,
        r.total_arrivals
    );
}

#[test]
fn vm_ids_past_the_flat_slot_table_run_like_dense_ids() {
    // Adding a constant to every id keeps their order, so the run must not
    // change; the offset puts every id past the flat id→slot tables of the
    // simulator, the datacenter and the planner, onto their map fallback.
    let run = |offset: u32| {
        let mut scenario = Scenario::paper(42).with_days(1);
        scenario.sim.checked = true;
        for r in scenario.requests_mut() {
            r.id = VmId(r.id.0 + offset);
        }
        scenario.run(Box::new(DynamicPlacement::paper_default()))
    };
    let dense = run(0);
    let far = run(dvmp_cluster::FLAT_VM_IDS as u32);
    let oracle = dense.oracle.as_ref().expect("checked run");
    assert!(oracle.is_clean(), "{oracle:?}");
    assert!(dense.total_migrations > 0, "the planner moved VMs");
    assert_eq!(
        serde_json::to_string(&dense).unwrap(),
        serde_json::to_string(&far).unwrap(),
        "offset ids change the run"
    );
}
