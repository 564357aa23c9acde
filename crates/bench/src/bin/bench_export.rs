//! bench-export: machine-readable benchmark trajectory for CI.
//!
//! Times the repo's two headline benchmark suites with plain wall-clock
//! sampling (the vendored criterion has no JSON export) and writes one
//! JSON file per suite so CI can publish — and the repo can commit — a
//! benchmark trajectory:
//!
//! * `BENCH_sched.json` — scheduler planning-cycle cost per policy and
//!   queue depth, against a machine that running jobs fill (µs per
//!   cycle, lower is better); the kernel is
//!   [`hpcqc_bench::kernels::PlanningCycle`], shared with
//!   `benches/sched.rs`.
//! * `BENCH_streaming.json` — facility-simulation throughput on the
//!   generate-only / streamed / materialized paths (jobs per second,
//!   higher is better); the kernel mirrors `benches/streaming.rs`.
//! * `BENCH_fleet.json` — per-kernel routing-decision cost for every
//!   route policy (ns per decision) and end-to-end routed-fleet
//!   simulation cost against the legacy single-device path (ms per run,
//!   both lower is better); the kernels mirror `benches/fleet.rs`.
//! * `BENCH_faults.json` — dependability-layer cost: end-to-end
//!   simulation under no plan / an inert plan / the committed degraded
//!   intensity, single-device and with failover (ms per run, lower is
//!   better); the kernels mirror `benches/faults.rs`.
//!
//! # The `hpcqc-bench-export/v1` format
//!
//! ```json
//! {
//!   "format": "hpcqc-bench-export/v1",
//!   "suite": "sched",
//!   "reps": 10,
//!   "results": [
//!     { "bench": "easy-backfill/depth=1000",
//!       "unit": "us_per_cycle",
//!       "median": 181.2, "min": 177.9, "max": 201.4 }
//!   ]
//! }
//! ```
//!
//! `median`/`min`/`max` summarize `reps` timed repetitions after one
//! untimed warm-up. Workloads and seeds are fixed, so the *work* is
//! byte-deterministic; the timings of course are not — committed
//! baselines record a trajectory, they are not golden files.
//!
//! ```text
//! USAGE: bench-export [--suite sched|streaming|fleet|faults|all] [--out-dir DIR] [--quick]
//! ```
//!
//! `--quick` shrinks reps and problem sizes for smoke runs (CI uses it).

use hpcqc_bench::kernels::PlanningCycle;
use hpcqc_core::FacilitySim;
use hpcqc_core::{Scenario, Strategy};
use hpcqc_faults::{DeviceFaults, DriftModel, FaultPlan, RecoverySpec};
use hpcqc_fleet::{DeviceId, FleetCtx, FleetDevice, FleetSpec, RouteSpec, ALL_ROUTES};
use hpcqc_gen::{GeneratorSpec, Horizon};
use hpcqc_qpu::{Kernel, QpuDevice, Technology};
use hpcqc_sched::PolicySpec;
use hpcqc_simcore::dist::Dist;
use hpcqc_simcore::rng::SimRng;
use hpcqc_simcore::time::SimTime;
use hpcqc_workload::{JobClass, Pattern, Workload};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Serialize)]
struct Export {
    format: &'static str,
    suite: &'static str,
    reps: usize,
    results: Vec<BenchResult>,
}

#[derive(Serialize)]
struct BenchResult {
    bench: String,
    unit: &'static str,
    median: f64,
    min: f64,
    max: f64,
}

/// Times `reps` calls of `work` (after one untimed warm-up) and returns
/// per-call seconds as (median, min, max).
// Wall-clock timing is the whole point of a benchmark exporter: readings
// stay on the host side, outside any simulation state.
#[allow(clippy::disallowed_methods)]
fn sample<F: FnMut()>(reps: usize, mut work: F) -> (f64, f64, f64) {
    work();
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            work();
            started.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    (secs[secs.len() / 2], secs[0], secs[secs.len() - 1])
}

fn sched_suite(reps: usize, quick: bool) -> Export {
    let policies = [
        PolicySpec::fcfs(),
        PolicySpec::easy(),
        PolicySpec::conservative(),
        PolicySpec::priority_backfill(24.0),
        PolicySpec::quantum_aware(1_000.0),
    ];
    let depths: &[usize] = if quick {
        &[10, 1_000]
    } else {
        &[10, 1_000, 10_000]
    };
    let mut results = Vec::new();
    for policy in policies {
        for &depth in depths {
            let mut kernel = PlanningCycle::new(policy, depth);
            let (median, min, max) = sample(reps, || {
                kernel.cycle();
            });
            let to_us = 1e6;
            results.push(BenchResult {
                bench: format!("{policy}/depth={depth}"),
                unit: "us_per_cycle",
                median: median * to_us,
                min: min * to_us,
                max: max * to_us,
            });
        }
    }
    Export {
        format: "hpcqc-bench-export/v1",
        suite: "sched",
        reps,
        results,
    }
}

fn streaming_suite(reps: usize, quick: bool) -> Export {
    let jobs: u64 = if quick { 500 } else { 2_000 };
    let mut spec = GeneratorSpec::dev_facility();
    spec.horizon = Horizon::Jobs { count: jobs };
    spec.arrival.base_per_hour = 240.0;
    let scenario = Scenario::builder()
        .classical_nodes(256)
        .device(Technology::Superconducting)
        .strategy(Strategy::Vqpu { vqpus: 8 })
        .seed(7)
        .build();
    let workload = Workload::from_jobs(spec.stream(scenario.seed).collect());

    let mut results = Vec::new();
    let mut push = |bench: &str, (median, min, max): (f64, f64, f64)| {
        // Per-rep seconds → jobs per second; min time is max throughput.
        results.push(BenchResult {
            bench: bench.to_string(),
            unit: "jobs_per_sec",
            median: jobs as f64 / median,
            min: jobs as f64 / max,
            max: jobs as f64 / min,
        });
    };
    push(
        "generate-only",
        sample(reps, || {
            assert_eq!(spec.stream(scenario.seed).count() as u64, jobs);
        }),
    );
    push(
        "streamed",
        sample(reps, || {
            let mut source = spec.stream(scenario.seed);
            FacilitySim::run_streamed(&scenario, &mut source).expect("valid scenario");
        }),
    );
    push(
        "materialized",
        sample(reps, || {
            FacilitySim::run(&scenario, &workload).expect("valid scenario");
        }),
    );
    Export {
        format: "hpcqc-bench-export/v1",
        suite: "streaming",
        reps,
        results,
    }
}

/// A mixed eight-device machine room with staggered backlogs, so every
/// route policy has real differences to discriminate on (mirrors
/// `benches/fleet.rs`).
fn loaded_devices() -> Vec<QpuDevice> {
    let techs = [
        Technology::Superconducting,
        Technology::TrappedIon,
        Technology::Photonic,
        Technology::SpinQubit,
    ];
    let mut devices: Vec<QpuDevice> = (0..8)
        .map(|i| {
            QpuDevice::new(
                format!("qpu{i}"),
                techs[i % techs.len()],
                SimRng::seed_from(100 + i as u64),
            )
        })
        .collect();
    for (i, device) in devices.iter_mut().enumerate() {
        for _ in 0..i {
            device
                .enqueue(&Kernel::sampling(10_000), SimTime::ZERO)
                .expect("capable device accepts the kernel");
        }
    }
    devices
}

/// VQE tenants contending for the fleet (mirrors `benches/fleet.rs`).
fn hybrid_workload(count: usize) -> Workload {
    Workload::builder()
        .class(
            JobClass::new("vqe", Pattern::vqe(6, 60.0, Kernel::sampling(20_000)))
                .nodes_between(2, 4)
                .quantum_estimate_secs(30.0),
        )
        .count(count)
        .generate(11)
}

fn fleet_suite(reps: usize, quick: bool) -> Export {
    let mut results = Vec::new();

    // Per-kernel routing-decision cost, batched so one rep is measurable.
    let decisions: usize = if quick { 10_000 } else { 100_000 };
    let devices = loaded_devices();
    let down = vec![false; devices.len()];
    let caps = vec![None; devices.len()];
    let kernel = Kernel::sampling(5_000);
    for spec in ALL_ROUTES {
        let mut policy = spec.build();
        let ctx = FleetCtx::new(
            SimTime::from_secs(60),
            &devices,
            &down,
            &caps,
            Some(DeviceId::new(3)),
        );
        let (median, min, max) = sample(reps, || {
            for _ in 0..decisions {
                std::hint::black_box(policy.route(&kernel, &ctx));
            }
        });
        let to_ns = 1e9 / decisions as f64;
        results.push(BenchResult {
            bench: format!("route/{}", spec.name()),
            unit: "ns_per_decision",
            median: median * to_ns,
            min: min * to_ns,
            max: max * to_ns,
        });
    }

    // End-to-end routed-fleet simulation against the legacy path.
    let jobs = if quick { 10 } else { 40 };
    let workload = hybrid_workload(jobs);
    let fleet_of = |route: RouteSpec| {
        FleetSpec::new("bench")
            .device(FleetDevice::new("sc0", Technology::Superconducting))
            .device(FleetDevice::new("ion0", Technology::TrappedIon))
            .device(FleetDevice::new("sc1", Technology::Superconducting))
            .route(route)
    };
    let to_ms = 1e3;
    let legacy = Scenario::builder()
        .classical_nodes(16)
        .strategy(Strategy::CoSchedule)
        .build();
    let (median, min, max) = sample(reps, || {
        FacilitySim::run(&legacy, &workload).expect("legacy run");
    });
    results.push(BenchResult {
        bench: "sim/legacy_single_device".to_string(),
        unit: "ms_per_run",
        median: median * to_ms,
        min: min * to_ms,
        max: max * to_ms,
    });
    for route in ALL_ROUTES {
        let scenario = Scenario::builder()
            .classical_nodes(16)
            .strategy(Strategy::CoSchedule)
            .fleet(fleet_of(route))
            .build();
        let (median, min, max) = sample(reps, || {
            FacilitySim::run(&scenario, &workload).expect("fleet run");
        });
        results.push(BenchResult {
            bench: format!("sim/routed_{}", route.name()),
            unit: "ms_per_run",
            median: median * to_ms,
            min: min * to_ms,
            max: max * to_ms,
        });
    }

    Export {
        format: "hpcqc-bench-export/v1",
        suite: "fleet",
        reps,
        results,
    }
}

/// Dependability overhead: the same hybrid workload under no fault
/// plan, an inert plan, and the committed `degraded` intensity, with
/// and without a failover fleet (mirrors `benches/faults.rs`).
fn faults_suite(reps: usize, quick: bool) -> Export {
    let jobs = if quick { 10 } else { 40 };
    let workload = hybrid_workload(jobs);
    let degraded = || {
        FaultPlan::named("degraded")
            .device(
                DeviceFaults::new()
                    .mtbf(Dist::exponential(14_400.0))
                    .repair(Dist::exponential(600.0))
                    .drift(DriftModel::new(1e-5, 0.5).recalibration(Dist::constant(180.0)))
                    .kernel_error_rate(0.05),
            )
            .recovery(
                RecoverySpec::new()
                    .max_kernel_retries(20)
                    .retry_backoff_secs(15.0)
                    .max_requeues(50),
            )
    };
    let scenario_of = |faults: Option<FaultPlan>, fleet: bool| {
        let mut builder = Scenario::builder()
            .classical_nodes(16)
            .strategy(Strategy::CoSchedule)
            .seed(42);
        if fleet {
            builder = builder.fleet(
                FleetSpec::new("bench")
                    .device(FleetDevice::new("sc-a", Technology::Superconducting))
                    .device(FleetDevice::new("sc-b", Technology::Superconducting))
                    .route(RouteSpec::LeastLoaded),
            );
        }
        if let Some(plan) = faults {
            builder = builder.faults(plan);
        }
        builder.build()
    };
    let cases = [
        ("sim/fault_free", scenario_of(None, false)),
        (
            "sim/inert_plan",
            scenario_of(Some(FaultPlan::none()), false),
        ),
        ("sim/degraded_single", scenario_of(Some(degraded()), false)),
        ("sim/degraded_failover", scenario_of(Some(degraded()), true)),
    ];
    let to_ms = 1e3;
    let results = cases
        .iter()
        .map(|(bench, scenario)| {
            let (median, min, max) = sample(reps, || {
                FacilitySim::run(scenario, &workload).expect("run completes");
            });
            BenchResult {
                bench: (*bench).to_string(),
                unit: "ms_per_run",
                median: median * to_ms,
                min: min * to_ms,
                max: max * to_ms,
            }
        })
        .collect();
    Export {
        format: "hpcqc-bench-export/v1",
        suite: "faults",
        reps,
        results,
    }
}

fn usage() -> ! {
    eprintln!(
        "USAGE: bench-export [--suite sched|streaming|fleet|faults|all] [--out-dir DIR] [--quick]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut suite = String::from("all");
    let mut out_dir = String::from("benchmarks");
    let mut quick = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--suite" => suite = it.next().cloned().unwrap_or_else(|| usage()),
            "--out-dir" => out_dir = it.next().cloned().unwrap_or_else(|| usage()),
            "--quick" => quick = true,
            _ => usage(),
        }
    }
    if !matches!(
        suite.as_str(),
        "sched" | "streaming" | "fleet" | "faults" | "all"
    ) {
        usage();
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let reps = if quick { 3 } else { 10 };
    let mut exports = Vec::new();
    if suite == "sched" || suite == "all" {
        exports.push(sched_suite(reps, quick));
    }
    if suite == "streaming" || suite == "all" {
        exports.push(streaming_suite(reps, quick));
    }
    if suite == "fleet" || suite == "all" {
        exports.push(fleet_suite(reps, quick));
    }
    if suite == "faults" || suite == "all" {
        exports.push(faults_suite(reps, quick));
    }
    for export in exports {
        let path = format!("{out_dir}/BENCH_{}.json", export.suite);
        let json = serde_json::to_string_pretty(&export).expect("export serializes");
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} results to {path}", export.results.len());
    }
    ExitCode::SUCCESS
}
