//! Multi-policy experiment driver.
//!
//! The paper's figures compare three schemes on identical inputs. This
//! module runs one [`Scenario`] under several policies, one after
//! another, and returns the per-policy [`RunReport`]s in input order.

use crate::scenario::Scenario;
use dvmp_metrics::recorder::RunReport;
use dvmp_placement::PlacementPolicy;

/// A named constructor for a policy instance. Policies are stateful (the
/// dynamic scheme keeps counters, the random baseline an RNG), so each run
/// needs a fresh instance.
pub struct PolicyFactory {
    /// Label used in reports when the policy itself is not yet built.
    pub name: &'static str,
    make: Box<dyn Fn() -> Box<dyn PlacementPolicy>>,
}

impl PolicyFactory {
    /// Wraps a constructor closure.
    pub fn new(name: &'static str, make: impl Fn() -> Box<dyn PlacementPolicy> + 'static) -> Self {
        PolicyFactory {
            name,
            make: Box::new(make),
        }
    }

    /// Builds a fresh policy instance.
    pub fn build(&self) -> Box<dyn PlacementPolicy> {
        (self.make)()
    }

    /// The paper's three evaluated schemes, in figure order:
    /// dynamic, first-fit, best-fit.
    pub fn paper_trio() -> Vec<PolicyFactory> {
        vec![
            PolicyFactory::new("dynamic", || {
                Box::new(dvmp_placement::DynamicPlacement::paper_default())
            }),
            PolicyFactory::new("first-fit", || Box::new(dvmp_placement::FirstFit)),
            PolicyFactory::new("best-fit", || Box::new(dvmp_placement::BestFit)),
        ]
    }
}

/// Runs `scenario` under every policy, each on a fresh instance, returning
/// reports in the factories' order.
pub fn compare_policies(scenario: &Scenario, policies: &[PolicyFactory]) -> Vec<RunReport> {
    policies.iter().map(|f| scenario.run(f.build())).collect()
}

/// Runs [`compare_policies`] on each scenario in turn, returning, for each
/// scenario in input order, the policy reports in factory order.
pub fn sweep_scenarios(scenarios: &[Scenario], policies: &[PolicyFactory]) -> Vec<Vec<RunReport>> {
    scenarios
        .iter()
        .map(|s| compare_policies(s, policies))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmp_placement::{FirstFit, WorstFit};

    #[test]
    fn compare_runs_all_policies_on_identical_inputs() {
        let scenario = Scenario::paper(42).with_days(1);
        let factories = vec![
            PolicyFactory::new("first-fit", || Box::new(FirstFit)),
            PolicyFactory::new("worst-fit", || Box::new(WorstFit)),
        ];
        let reports = compare_policies(&scenario, &factories);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].policy, "first-fit");
        assert_eq!(reports[1].policy, "worst-fit");
        assert_eq!(reports[0].total_arrivals, reports[1].total_arrivals);
        // Spreading burns at least as much energy as packing by id.
        assert!(reports[1].total_energy_kwh >= reports[0].total_energy_kwh * 0.95);
    }

    #[test]
    fn sweep_is_bit_identical_to_sequential_runs() {
        let scenarios: Vec<Scenario> = [3u64, 11]
            .iter()
            .map(|&s| Scenario::paper(s).with_days(1))
            .collect();
        let factories = vec![
            PolicyFactory::new("first-fit", || Box::new(FirstFit)),
            PolicyFactory::new("worst-fit", || Box::new(WorstFit)),
        ];
        let swept = sweep_scenarios(&scenarios, &factories);
        assert_eq!(swept.len(), 2);
        for (scenario, reports) in scenarios.iter().zip(&swept) {
            assert_eq!(reports.len(), 2);
            let seq_ff = scenario.run(Box::new(FirstFit));
            let seq_wf = scenario.run(Box::new(WorstFit));
            assert_eq!(reports[0].total_energy_kwh, seq_ff.total_energy_kwh);
            assert_eq!(
                reports[0].hourly_active_servers,
                seq_ff.hourly_active_servers
            );
            assert_eq!(reports[1].total_energy_kwh, seq_wf.total_energy_kwh);
            assert_eq!(
                reports[1].hourly_active_servers,
                seq_wf.hourly_active_servers
            );
        }
    }

    #[test]
    fn paper_trio_factories() {
        let trio = PolicyFactory::paper_trio();
        assert_eq!(trio.len(), 3);
        assert_eq!(trio[0].build().name(), "dynamic");
        assert_eq!(trio[1].build().name(), "first-fit");
        assert_eq!(trio[2].build().name(), "best-fit");
    }
}
