//! Criterion benches for the placement hot paths: the dense reference's
//! probability-matrix construction (full M×N build) and the targeted row
//! update Algorithm 1 relies on, a complete planning pass of the
//! production planner vs the dense reference, and per-request placement
//! latency for the dynamic scheme vs the static baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvmp_bench::fragmented_fixture as fixture;
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::VmId;
use dvmp_cluster::vm::VmSpec;
use dvmp_placement::factors::EvalContext;
use dvmp_placement::plan::PlanState;
use dvmp_placement::{
    BestFit, DenseReference, DynamicConfig, DynamicPlacement, FirstFit, PlacementPolicy,
    PlacementView, ProbabilityMatrix,
};
use dvmp_simcore::{SimDuration, SimTime};

fn bench_matrix_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix_build");
    for &n in &[100u32, 300, 500] {
        let (dc, vms) = fixture(n);
        let cfg = DynamicConfig::default();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::from_secs(1_000),
        };
        let plan = PlanState::from_view(&view, &cfg.min_vm);
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg)));
        });
    }
    group.finish();
}

fn bench_incremental_row(c: &mut Criterion) {
    let (dc, vms) = fixture(300);
    let cfg = DynamicConfig::default();
    let view = PlacementView {
        dc: &dc,
        vms: &vms,
        now: SimTime::from_secs(1_000),
    };
    let plan = PlanState::from_view(&view, &cfg.min_vm);
    let mut matrix = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
    c.bench_function("matrix_recompute_row_300vms", |b| {
        b.iter(|| matrix.recompute_row(&plan, &EvalContext::new(&cfg), 17));
    });
}

fn bench_plan_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_migrations");
    group.sample_size(20);
    for &n in &[100u32, 300] {
        let (dc, vms) = fixture(n);
        group.bench_with_input(BenchmarkId::new("fresh_policy", n), &n, |b, _| {
            b.iter(|| {
                let mut policy = DynamicPlacement::paper_default();
                policy.plan_migrations(&PlacementView {
                    dc: &dc,
                    vms: &vms,
                    now: SimTime::from_secs(1_000),
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("dense_reference", n), &n, |b, _| {
            let mut policy = DenseReference::new(DynamicConfig::default());
            b.iter(|| {
                policy.plan_migrations(&PlacementView {
                    dc: &dc,
                    vms: &vms,
                    now: SimTime::from_secs(1_000),
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("reused_policy", n), &n, |b, _| {
            let mut policy = DynamicPlacement::paper_default();
            b.iter(|| {
                policy.plan_migrations(&PlacementView {
                    dc: &dc,
                    vms: &vms,
                    now: SimTime::from_secs(1_000),
                })
            });
        });
    }
    group.finish();
}

fn bench_place_latency(c: &mut Criterion) {
    let (dc, vms) = fixture(300);
    let view = PlacementView {
        dc: &dc,
        vms: &vms,
        now: SimTime::from_secs(1_000),
    };
    let spec = VmSpec::exact(
        VmId(9_999),
        SimTime::from_secs(1_000),
        ResourceVector::cpu_mem(1, 512),
        SimDuration::from_secs(40_000),
    );
    let mut group = c.benchmark_group("place_latency_300vms");
    group.bench_function("dynamic", |b| {
        let mut p = DynamicPlacement::paper_default();
        b.iter(|| p.place(&view, &spec));
    });
    group.bench_function("first_fit", |b| {
        let mut p = FirstFit;
        b.iter(|| p.place(&view, &spec));
    });
    group.bench_function("best_fit", |b| {
        let mut p = BestFit;
        b.iter(|| p.place(&view, &spec));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matrix_build,
    bench_incremental_row,
    bench_plan_pass,
    bench_place_latency
);
criterion_main!(benches);
