//! The three benchmark workloads and one timed pass over each, untraced
//! (the public entry point a user calls) or traced (the same simulation
//! with every layer wrapped, see [`crate::layers`]).

use crate::layers::{
    wall_now, EventCounter, FirstEvent, LayerTimes, SegmentClock, Spans, TimedDriver,
    TimedObserver, TimedProbe, TimedSource,
};
use hpcqc_core::driver::driver_for;
use hpcqc_core::outcome::Outcome;
use hpcqc_core::sim::SimError;
use hpcqc_core::source::{JobSource, SliceSource};
use hpcqc_core::{FacilitySim, Scenario, Strategy};
use hpcqc_gen::{GeneratorSpec, Horizon};
use hpcqc_qpu::Technology;
use hpcqc_sweep::result::WaitShares;
use hpcqc_sweep::{CellResult, CellTiming, Executor, Grid, SweepResult, WorkloadSpec};
use hpcqc_trace::AttributionObserver;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The `sweep-mix` grid: 5 strategies × 5 policies × 2 fleets × 2 fault
/// plans on a loaded 32-node facility.
const SWEEP_MIX_GRID: &str = include_str!("../grids/sweep-mix.json");

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Deep queue: 1,000 generated jobs on 256 nodes.
    Backlog,
    /// Shallow queue: the first 20,000 jobs of the million-job month.
    MonthSlice,
    /// An attributed 100-cell sweep at the machine's thread count.
    SweepMix,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 3] = [Workload::Backlog, Workload::MonthSlice, Workload::SweepMix];

/// Problem size: `Full` is the benchmark; `Tiny` is for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// A few dozen jobs per simulation.
    Tiny,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Backlog => "backlog",
            Workload::MonthSlice => "month-slice",
            Workload::SweepMix => "sweep-mix",
        }
    }

    /// The seed of the scenario this workload reproduces.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Backlog => 7,
            Workload::MonthSlice => 123,
            Workload::SweepMix => 42,
        }
    }

    /// Passes in one untraced round, each on its own input: a single
    /// `backlog` input's cost depends on its seed (queue depth follows
    /// the random campaign sizes), so its rounds average over several.
    fn round_passes(self) -> usize {
        match self {
            Workload::Backlog => 4,
            Workload::MonthSlice => 1,
            Workload::SweepMix => 2,
        }
    }

    /// The seeds of round `round`'s inputs. Every round has inputs of its
    /// own; the first input of round 0 is `seed` itself, so the default
    /// seed reproduces the scenario the workload is named after. The
    /// others are mixed from `seed` (never `seed + k`: runs at
    /// neighbouring seeds must not share inputs).
    pub fn round_seeds(self, seed: u64, round: usize) -> Vec<u64> {
        let k = self.round_passes();
        (round * k..(round + 1) * k)
            .map(|i| match i {
                0 => seed,
                i => splitmix64(seed ^ splitmix64(i as u64)),
            })
            .collect()
    }

    /// Whether `jobs_per_s` is the median over segments of the untraced
    /// passes rather than over rounds. A `month-slice` round is a single
    /// input, and some inputs hold a saturation episode (jobs held for a
    /// while, mean queue depth above 3) that makes the whole pass up to
    /// twice as slow; segments keep those episodes from moving the median
    /// with the number of such inputs a run happens to draw.
    pub fn segmented(self) -> bool {
        self == Workload::MonthSlice
    }

    /// Whether an untraced run simulates on every thread at once, one
    /// worker per thread, each on inputs of its own. `backlog` does, as a
    /// study runs independent simulations side by side: on a host that
    /// shares its cores, a single thread's speed can swing by a fifth
    /// within a minute while the sum over all threads holds steadier.
    /// (`sweep-mix` is parallel inside its executor already.)
    pub fn parallel(self) -> bool {
        self == Workload::Backlog
    }

    /// Whether one simulation is a streamed run (else a sweep).
    fn streamed(self) -> bool {
        self != Workload::SweepMix
    }
}

/// Exact counts and a digest of one pass's simulated results. Two passes
/// at the same seed must agree on every field both of them recorded.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// FNV-1a of the rendered results (outcome JSON, or the sweep CSV).
    pub digest: u64,
    /// Named exact counts, in a fixed order.
    pub counts: Vec<(String, u64)>,
}

/// Per-layer data of a traced pass.
#[derive(Debug, Default)]
pub struct Traced {
    /// Span totals, summed over cells.
    pub times: LayerTimes,
    /// Events by kind, summed over cells.
    pub events: EventCounter,
    /// Non-empty planning cycles.
    pub cycles: u64,
    /// Queued jobs examined, summed over cycles.
    pub examined: u64,
    /// Jobs started by the scheduler.
    pub started: u64,
    /// Strategy-driver hook calls.
    pub hook_calls: u64,
    /// Jobs pulled from the source.
    pub pulls: u64,
    /// `kernel_enqueued` events in scenarios with a routed fleet.
    pub kernels_routed: u64,
    /// Wall time of the simulations themselves, summed over cells.
    pub sim_s: f64,
    /// Time building the workloads, summed over cells (for a streamed
    /// run, the spec and scenario: the stream itself builds lazily).
    pub build_s: f64,
}

impl Traced {
    /// Adds another simulation's data (sweep cells).
    fn add(&mut self, other: &Traced) {
        self.times.add(&other.times);
        self.events.add(&other.events);
        self.cycles += other.cycles;
        self.examined += other.examined;
        self.started += other.started;
        self.hook_calls += other.hook_calls;
        self.pulls += other.pulls;
        self.kernels_routed += other.kernels_routed;
        self.sim_s += other.sim_s;
        self.build_s += other.build_s;
    }
}

/// One timed pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass, from the workload's start to its results.
    pub wall_s: f64,
    /// Simulations run (sweep cells; 1 for a streamed run).
    pub cells: u64,
    /// Jobs attempted: every generated job of every simulation.
    pub jobs: u64,
    /// Jobs the simulator reports failed, plus every job of a simulation
    /// that errored or failed an output check.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub errors: Vec<String>,
    /// Counts and digest.
    pub observed: Observed,
    /// Wall time of each simulation.
    pub cell_s: Vec<f64>,
    /// Highest in-flight job count of any simulation.
    pub peak_in_flight: u64,
    /// Time rendering the results.
    pub report_s: f64,
    /// Set on traced passes.
    pub traced: Option<Traced>,
    /// Untraced streamed passes: wall time of each of the run's
    /// [`SEGMENTS`] stretches of equally many finalized jobs.
    pub segment_s: Vec<f64>,
}

/// Segments an untraced streamed pass is timed in.
pub const SEGMENTS: u64 = 20;

/// The SplitMix64 finalizer: a bijection on `u64` that scatters nearby
/// inputs.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The facility and generated stream of a streamed workload.
struct Streamed {
    scenario: Scenario,
    spec: GeneratorSpec,
    jobs: usize,
}

fn streamed_setup(workload: Workload, size: Size) -> Streamed {
    let mut spec = GeneratorSpec::dev_facility();
    match workload {
        Workload::Backlog => {
            let jobs = if size == Size::Full { 1_000 } else { 60 };
            spec.horizon = Horizon::Jobs { count: jobs as u64 };
            spec.arrival.base_per_hour = 240.0;
            let scenario = Scenario::builder()
                .classical_nodes(256)
                .device(Technology::Superconducting)
                .strategy(Strategy::Vqpu { vqpus: 8 })
                .seed(7)
                .build();
            Streamed {
                scenario,
                spec,
                jobs,
            }
        }
        Workload::MonthSlice => {
            spec.horizon = Horizon::Jobs { count: 1_000_000 };
            spec.arrival.base_per_hour = 250.0;
            spec.tenants.campaign_max = 64;
            let scenario = Scenario::builder()
                .classical_nodes(4_096)
                .devices(vec![Technology::Superconducting; 4])
                .strategy(Strategy::Vqpu { vqpus: 16 })
                .seed(1)
                .build();
            let jobs = if size == Size::Full { 20_000 } else { 300 };
            Streamed {
                scenario,
                spec,
                jobs,
            }
        }
        Workload::SweepMix => unreachable!("sweep-mix is not a streamed run"),
    }
}

/// Parses and validates the `sweep-mix` grid at `seed`.
fn sweep_grid(size: Size, seed: u64) -> Result<Grid, String> {
    let mut grid: Grid = serde_json::from_str(SWEEP_MIX_GRID).map_err(|e| e.to_string())?;
    grid.base_seed = seed;
    if size == Size::Tiny {
        if let WorkloadSpec::LoadedFacility {
            background,
            hybrid_jobs,
            ..
        } = &mut grid.workload
        {
            *background = 30;
            *hybrid_jobs = 4;
        }
    }
    grid.validate()?;
    Ok(grid)
}

/// Jobs one cell of `grid` simulates.
fn jobs_per_cell(grid: &Grid) -> u64 {
    match grid.workload {
        WorkloadSpec::LoadedFacility {
            background,
            hybrid_jobs,
            ..
        } => background as u64 + u64::from(hybrid_jobs),
        _ => unreachable!("the sweep-mix grid runs a loaded facility"),
    }
}

/// Seconds from the workload's start to its first simulated event: the
/// scenario, spec or grid is built (and the grid parsed and validated),
/// the first cell's workload materialized, and the simulator constructed.
/// The simulation then runs on the first job only, so the rest costs
/// little.
pub fn setup_once(workload: Workload, size: Size, seed: u64) -> f64 {
    let start = wall_now();
    let mut first = FirstEvent::default();
    if workload.streamed() {
        let setup = streamed_setup(workload, size);
        let mut source = setup.spec.stream(seed).take(1);
        FacilitySim::run_streamed_observed(&setup.scenario, &mut source, &mut [&mut first])
            .expect("the first job of the stream simulates");
    } else {
        let grid = sweep_grid(size, seed).expect("the sweep-mix grid is valid");
        let cell = grid.cell(0);
        let built = grid.workload.build(cell.load_per_hour, cell.replica_seed);
        let mut source = SliceSource::new(&built.jobs()[..1]);
        FacilitySim::run_streamed_observed(&cell.scenario(), &mut source, &mut [&mut first])
            .expect("the first job of the grid simulates");
    }
    let at = first.at.expect("a simulation emits events");
    at.duration_since(start).as_secs_f64()
}

/// Checks one simulation's outcome: every generated job finalized, and
/// completed plus failed equals the job count. A simulation that fails
/// a check counts all its jobs as failed.
fn check_outcome(outcome: &Outcome, expected_jobs: u64, what: &str, pass: &mut Pass) {
    let stats = &outcome.stats;
    let jobs = stats.len() as u64;
    let errors = pass.errors.len();
    pass.peak_in_flight = pass.peak_in_flight.max(outcome.peak_in_flight_jobs as u64);
    if jobs != expected_jobs {
        pass.errors.push(format!(
            "{what}: {jobs} jobs finalized, {expected_jobs} generated"
        ));
    }
    if stats.completed_count() + stats.failed_count() != stats.len() {
        pass.errors.push(format!(
            "{what}: completed {} + failed {} != {} jobs",
            stats.completed_count(),
            stats.failed_count(),
            stats.len()
        ));
    }
    pass.jobs += expected_jobs;
    pass.failed += if pass.errors.len() > errors {
        expected_jobs
    } else {
        stats.failed_count() as u64
    };
}

/// Runs one pass; `traced` wraps every layer.
pub fn run_pass(workload: Workload, size: Size, seed: u64, threads: usize, traced: bool) -> Pass {
    if workload.streamed() {
        streamed_pass(workload, size, seed, traced)
    } else {
        sweep_pass(size, seed, threads, traced)
    }
}

/// Runs one simulation of `scenario` over `source` with every layer
/// wrapped and the attribution observer attached.
fn traced_sim(
    scenario: &Scenario,
    source: impl JobSource,
) -> (Result<Outcome, SimError>, AttributionObserver, Traced) {
    let start = wall_now();
    let spans = Rc::new(RefCell::new(Spans::default()));
    let calls = Rc::new(Cell::new(0));
    let mut source = TimedSource::new(source, spans.clone());
    let driver = Box::new(TimedDriver::new(
        driver_for(&scenario.strategy),
        spans.clone(),
        calls.clone(),
    ));
    let mut probe = TimedProbe::new(spans.clone());
    let mut events = EventCounter::default();
    let mut attribution = AttributionObserver::new();
    let result = {
        let mut timed_attribution = TimedObserver::new(&mut attribution, spans.clone());
        FacilitySim::run_streamed_probed(
            scenario,
            &mut source,
            driver,
            &mut [&mut events, &mut timed_attribution],
            &mut probe,
        )
    };
    let trace = Traced {
        times: spans.borrow().times(),
        kernels_routed: if scenario.fleet.is_some() {
            events.get("kernel_enqueued")
        } else {
            0
        },
        events,
        cycles: probe.cycles,
        examined: probe.examined,
        started: probe.started,
        hook_calls: calls.get(),
        pulls: source.pulls,
        sim_s: start.elapsed().as_secs_f64(),
        build_s: 0.0,
    };
    (result, attribution, trace)
}

fn streamed_pass(workload: Workload, size: Size, seed: u64, traced: bool) -> Pass {
    let mut pass = Pass {
        cells: 1,
        ..Pass::default()
    };
    let start = wall_now();
    let setup = streamed_setup(workload, size);
    let jobs = setup.jobs as u64;
    let stream = setup.spec.stream(seed).take(setup.jobs);
    let build_s = start.elapsed().as_secs_f64();
    let result = if traced {
        let (result, _, mut trace) = traced_sim(&setup.scenario, stream);
        trace.build_s = build_s;
        if trace.pulls != jobs {
            pass.errors.push(format!(
                "{}: {} jobs pulled, {jobs} generated",
                workload.name(),
                trace.pulls
            ));
        }
        pass.traced = Some(trace);
        result
    } else {
        let mut source = stream;
        let mut clock = SegmentClock::new(jobs / SEGMENTS);
        let result =
            FacilitySim::run_streamed_observed(&setup.scenario, &mut source, &mut [&mut clock]);
        pass.segment_s = clock.segment_s;
        result
    };
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cell_s = vec![pass.wall_s];
    match result {
        Ok(outcome) => {
            check_outcome(&outcome, jobs, workload.name(), &mut pass);
            let report_start = wall_now();
            let rendered = serde_json::to_string(&outcome).expect("an outcome serializes");
            pass.report_s = report_start.elapsed().as_secs_f64();
            pass.observed = Observed {
                digest: fnv1a(rendered.as_bytes()),
                counts: vec![
                    ("jobs".into(), outcome.stats.len() as u64),
                    ("failed".into(), outcome.stats.failed_count() as u64),
                    ("kernels".into(), outcome.total_kernels()),
                    ("peak_in_flight".into(), outcome.peak_in_flight_jobs as u64),
                ],
            };
        }
        Err(e) => {
            pass.failed += jobs;
            pass.jobs += jobs;
            pass.errors
                .push(format!("{}: simulation failed: {e}", workload.name()));
        }
    }
    pass
}

/// One cell of a traced sweep.
struct TracedCell {
    result: Result<(Outcome, WaitShares), String>,
    trace: Traced,
    jobs: u64,
    wall_s: f64,
}

fn traced_cell(grid: &Grid, cell: &hpcqc_sweep::Cell) -> TracedCell {
    let start = wall_now();
    let workload = grid.workload.build(cell.load_per_hour, cell.replica_seed);
    let build_s = start.elapsed().as_secs_f64();
    let (result, attribution, mut trace) =
        traced_sim(&cell.scenario(), SliceSource::from(&workload));
    trace.build_s = build_s;
    let result = result
        .map(|outcome| {
            let shares = WaitShares {
                qpu_frac: attribution.qpu_contention_frac(),
                shadow_frac: attribution.shadow_frac(),
                fault_frac: attribution.fault_recovery_frac(),
            };
            (outcome, shares)
        })
        .map_err(|e| e.to_string());
    TracedCell {
        result,
        jobs: workload.len() as u64,
        wall_s: start.elapsed().as_secs_f64(),
        trace,
    }
}

fn sweep_pass(size: Size, seed: u64, threads: usize, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let start = wall_now();
    let grid = match sweep_grid(size, seed) {
        Ok(grid) => grid,
        Err(e) => {
            pass.errors.push(format!("sweep-mix grid: {e}"));
            pass.failed = 1;
            pass.jobs = 1;
            return pass;
        }
    };
    let executor = Executor::new(threads);
    let expected = jobs_per_cell(&grid);
    pass.cells = grid.len() as u64;
    let result = if traced {
        let cells = executor.run_cells(&grid, |cell| traced_cell(&grid, cell));
        let mut trace = Traced::default();
        let mut results = Vec::with_capacity(cells.len());
        let mut timings = Vec::with_capacity(cells.len());
        let mut first_error = None;
        for (index, cell) in cells.into_iter().enumerate() {
            trace.add(&cell.trace);
            if cell.jobs != expected {
                pass.errors.push(format!(
                    "sweep-mix cell {index}: built {} jobs, {expected} expected",
                    cell.jobs
                ));
            }
            if cell.trace.pulls != cell.jobs {
                pass.errors.push(format!(
                    "sweep-mix cell {index}: {} jobs pulled of {}",
                    cell.trace.pulls, cell.jobs
                ));
            }
            timings.push(CellTiming {
                index,
                wall_secs: cell.wall_s,
                peak_rss_kb: None,
            });
            match cell.result {
                Ok((outcome, shares)) => results.push(CellResult {
                    cell: grid.cell(index),
                    outcome,
                    shares: Some(shares),
                }),
                Err(message) => {
                    first_error.get_or_insert(format!("sweep cell {index} failed: {message}"));
                }
            }
        }
        pass.traced = Some(trace);
        match first_error {
            Some(e) => Err(e),
            None => Ok(SweepResult::new(results).with_timings(timings)),
        }
    } else {
        executor
            .run_sim_attributed(&grid)
            .map_err(|e| e.to_string())
    };
    pass.wall_s = start.elapsed().as_secs_f64();
    match result {
        Ok(result) => {
            pass.cell_s = result.timings().iter().map(|t| t.wall_secs).collect();
            for (index, cell) in result.results().iter().enumerate() {
                check_outcome(
                    &cell.outcome,
                    expected,
                    &format!("sweep-mix cell {index}"),
                    &mut pass,
                );
            }
            let report_start = wall_now();
            let csv = result.to_csv();
            pass.report_s = report_start.elapsed().as_secs_f64();
            pass.observed = Observed {
                digest: fnv1a(csv.as_bytes()),
                counts: vec![
                    ("cells".into(), result.len() as u64),
                    (
                        "jobs".into(),
                        result
                            .results()
                            .iter()
                            .map(|c| c.outcome.stats.len() as u64)
                            .sum(),
                    ),
                    (
                        "failed".into(),
                        result
                            .results()
                            .iter()
                            .map(|c| c.outcome.stats.failed_count() as u64)
                            .sum(),
                    ),
                    (
                        "kernels".into(),
                        result
                            .results()
                            .iter()
                            .map(|c| c.outcome.total_kernels())
                            .sum(),
                    ),
                    ("peak_in_flight".into(), pass.peak_in_flight),
                ],
            };
        }
        Err(e) => {
            pass.errors.push(format!("sweep-mix: {e}"));
            pass.jobs = pass.cells * expected;
            pass.failed = pass.jobs;
        }
    }
    pass
}

/// The CSV of the `sweep-mix` sweep on `threads` threads, for the
/// thread-invariance check.
pub fn sweep_csv(size: Size, seed: u64, threads: usize) -> Result<String, String> {
    let grid = sweep_grid(size, seed)?;
    Executor::new(threads)
        .run_sim_attributed(&grid)
        .map(|r| r.to_csv())
        .map_err(|e| e.to_string())
}
