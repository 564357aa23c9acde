//! Criterion benches of the scheduling cycle vs queue depth, per policy.
//!
//! Each measurement is one full `try_schedule` planning cycle — priority
//! ordering, a live check per queued job, and the policy's profile
//! planning — against a machine that running jobs fill, so no job starts
//! and the cycle is a pure planning pass of stable cost. The kernel is
//! [`hpcqc_bench::kernels::PlanningCycle`], which `bench-export` times
//! too. Depths 10 / 1 000 / 100 000 cover everything from an idle
//! partition to a facility-scale backlog (the paper's workflow strategy
//! puts one queue entry per *phase* in here, so cycle cost is its
//! practical scalability limit).
//!
//! The sibling `scheduler.rs` bench measures mixed start/backfill cycles
//! at moderate depth; this one isolates pure planning throughput where
//! the asymptotics show.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcqc_bench::kernels::PlanningCycle;
use hpcqc_sched::PolicySpec;

fn all_policies() -> [PolicySpec; 5] {
    [
        PolicySpec::fcfs(),
        PolicySpec::easy(),
        PolicySpec::conservative(),
        PolicySpec::priority_backfill(24.0),
        PolicySpec::quantum_aware(1_000.0),
    ]
}

fn bench_cycle_vs_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_cycle_planning");
    group.sample_size(10);
    for policy in all_policies() {
        for &depth in &[10usize, 1_000, 100_000] {
            let mut kernel = PlanningCycle::new(policy, depth);
            group.bench_function(format!("{policy}_{depth}_queued"), |b| {
                b.iter(|| kernel.cycle());
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_secs(1)).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_cycle_vs_depth
}
criterion_main!(benches);
