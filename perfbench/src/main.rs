//! perfbench: the hpcqc simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload backlog|month-slice|sweep-mix [--seed N] [--seconds S]
//!           [--trace 0|1] [--size full|tiny]
//! ```
//!
//! Untraced (`--trace 0`), it times rounds of passes through the public
//! entry points a user calls, each round on inputs of its own derived
//! from `--seed`, for about `--seconds`; its last round repeats the
//! inputs of the first. It prints the end-to-end metrics. Traced (`--trace 1`), it alternates
//! untraced and traced passes on `--seed` itself and prints the per-layer
//! metrics. Either way it checks the simulated outputs within the run and
//! prints, as its last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 1 when an
//! output check fails and 2 on a usage error. See `README.md`.

mod layers;
mod workloads;

use layers::{wall_now, Layer, EVENT_KINDS};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{Observed, Pass, Size, Workload};

/// Rounds every run times before its closing repeat of the first round,
/// at the least; metrics are medians over all of them.
const MIN_ROUNDS: usize = 2;

/// Set-ups timed between two rounds for `setup_s`, at the least and at
/// the most, and the share of the last round's time they may take.
const SETUP_MIN: usize = 16;
const SETUP_MAX: usize = 1_000;
const SETUP_SHARE: f64 = 0.02;

/// Digests of the untraced results at each workload's default seed and
/// full size. A run at the default seed that renders anything else has
/// changed what the simulator computes.
const EXPECTED_DIGESTS: [(&str, u64); 3] = [
    ("backlog", 0x1f77_fd2e_b0a9_2ad4),
    ("month-slice", 0xa179_826f_9856_20d5),
    ("sweep-mix", 0x2c36_ef23_b9e1_be0e),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

const USAGE: &str = "usage: perfbench --workload backlog|month-slice|sweep-mix [--seed N] \
[--seconds S] [--trace 0|1] [--size full|tiny]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not {other:?}")),
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
        size,
    })
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The process RSS high-water mark (`VmHWM`), megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's RSS high-water mark to its current RSS; false
/// where the kernel does not let it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns the heap's free memory to the OS after a pass, so that
/// `peak_rss_mb` is the peak of one pass, as in a process that runs the
/// workload once, and not the allocator's fragmentation accumulated over
/// the run's passes: without it, `sweep-mix` peaks varied from 26 to 50 MB
/// between runs, with it by under 1 MB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only releases
    // pages the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Failures and attempts across a run's passes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        self.attempted += pass.jobs;
        self.failed += pass.failed;
        self.errors.extend(pass.errors.iter().cloned());
    }

    /// Compares a pass's counts and digest with the first pass of its
    /// kind; a difference fails every job of the pass.
    fn same_as(&mut self, first: &Observed, pass: &Pass, what: &str) {
        if let Some(diff) = difference(first, &pass.observed) {
            self.errors.push(format!("{what}: {diff}"));
            self.failed += pass.jobs;
        }
    }
}

/// The first disagreement between two observations, comparing only the
/// counts both recorded.
fn difference(a: &Observed, b: &Observed) -> Option<String> {
    if a.digest != b.digest {
        return Some(format!("digest {:016x} != {:016x}", a.digest, b.digest));
    }
    for (name, value) in &a.counts {
        if let Some((_, other)) = b.counts.iter().find(|(n, _)| n == name) {
            if other != value {
                return Some(format!("{name} {value} != {other}"));
            }
        }
    }
    None
}

/// Runs `round(0)`, `round(1)`, ... for about `seconds`: at least `min`
/// rounds, then more while the next one, judged by the last, would end
/// by `seconds` less `reserve` (plus half a round).
fn timed_rounds<T>(
    seconds: f64,
    min: usize,
    reserve: impl Fn(&[T]) -> f64,
    mut round: impl FnMut(usize) -> T,
) -> Vec<T> {
    let start = wall_now();
    let mut rounds = Vec::new();
    loop {
        let round_start = wall_now();
        rounds.push(round(rounds.len()));
        let last = round_start.elapsed().as_secs_f64();
        let elapsed = start.elapsed().as_secs_f64();
        if rounds.len() >= min && elapsed + last / 2.0 + reserve(&rounds) >= seconds {
            return rounds;
        }
    }
}

/// Times set-ups on `seeds` until `budget_s` is spent, between
/// `SETUP_MIN` and `SETUP_MAX` of them.
fn setup_batch(args: &Args, seeds: &[u64], budget_s: f64, into: &mut Vec<f64>) {
    let start = wall_now();
    for i in 0..SETUP_MAX {
        if i >= SETUP_MIN && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        into.push(workloads::setup_once(
            args.workload,
            args.size,
            seeds[i % seeds.len()],
        ));
    }
}

/// Checks the digest at the default seed and full size against the
/// committed one.
fn check_expected(args: &Args, observed: &Observed, tally: &mut Tally) {
    if args.size != Size::Full || args.seed != args.workload.default_seed() {
        return;
    }
    let expected = EXPECTED_DIGESTS
        .iter()
        .find(|(name, _)| *name == args.workload.name())
        .map_or(0, |(_, digest)| *digest);
    if expected != observed.digest {
        tally.errors.push(format!(
            "digest {:016x} at the default seed differs from the recorded {expected:016x}",
            observed.digest
        ));
        tally.failed = tally.attempted;
    }
}

/// One worker's untraced passes: its timed rounds, the last of which
/// repeats its first, with the seeds of every round and the set-ups it
/// timed.
struct WorkerRun {
    rounds: Vec<Vec<Pass>>,
    seeds: Vec<Vec<u64>>,
    setups: Vec<f64>,
    /// Worker 0 only: the process's peak RSS during each round, MB.
    peaks_mb: Vec<f64>,
}

impl WorkerRun {
    /// Median over rounds of a round's work over its time, so every input
    /// weighs by its cost. A segmented workload takes the median over
    /// every segment of every pass instead.
    fn rate(&self, workload: Workload, work: &dyn Fn(&Pass) -> u64) -> f64 {
        if workload.segmented() {
            let rates: Vec<f64> = self
                .rounds
                .iter()
                .flatten()
                .flat_map(|p| {
                    let per_segment = work(p) as f64 / workloads::SEGMENTS as f64;
                    p.segment_s.iter().map(move |s| per_segment / s)
                })
                .collect();
            return median(&rates);
        }
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| {
                r.iter().map(|p| work(p) as f64).sum::<f64>()
                    / r.iter().map(|p| p.wall_s).sum::<f64>()
            })
            .collect();
        median(&rates)
    }
}

/// Runs worker `worker` of `workers`: rounds on inputs of its own for
/// about `--seconds`, then its first round once more.
fn worker_run(args: &Args, threads: usize, worker: usize, workers: usize) -> WorkerRun {
    let mut setups = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut run_round = |seeds: Vec<u64>| -> (Vec<Pass>, Vec<u64>) {
        let peak_reset = worker == 0 && reset_peak_rss();
        let round: Vec<Pass> = seeds
            .iter()
            .map(|&seed| {
                let pass = workloads::run_pass(args.workload, args.size, seed, threads, false);
                release_free_memory();
                pass
            })
            .collect();
        if peak_reset {
            peaks_mb.push(peak_rss_mb());
        }
        let wall: f64 = round.iter().map(|p| p.wall_s).sum();
        setup_batch(args, &seeds, SETUP_SHARE * wall, &mut setups);
        (round, seeds)
    };
    let seeds_of = |r: usize| args.workload.round_seeds(args.seed, r * workers + worker);
    let (mut rounds, mut seeds): (Vec<_>, Vec<_>) = timed_rounds(
        args.seconds,
        MIN_ROUNDS,
        // Leave time to repeat the first round.
        |rounds: &[(Vec<Pass>, Vec<u64>)]| rounds[0].0.iter().map(|p| p.wall_s).sum(),
        |r| run_round(seeds_of(r)),
    )
    .into_iter()
    .unzip();
    // The first round's inputs once more, timed like any other round: a
    // simulation must repeat exactly.
    let (again, again_seeds) = run_round(seeds_of(0));
    rounds.push(again);
    seeds.push(again_seeds);
    WorkerRun {
        rounds,
        seeds,
        setups,
        peaks_mb,
    }
}

fn untraced(args: &Args, threads: usize, tally: &mut Tally) -> Vec<Metric> {
    let workers = if args.workload.parallel() { threads } else { 1 };
    let runs: Vec<WorkerRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || worker_run(args, threads, w, workers)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark worker panicked"))
            .collect()
    });
    for run in &runs {
        let (first, again) = (&run.rounds[0], &run.rounds[run.rounds.len() - 1]);
        for ((pass, repeat), seed) in first.iter().zip(again).zip(&run.seeds[0]) {
            tally.same_as(
                &pass.observed,
                repeat,
                &format!("input seed {seed} repeated"),
            );
        }
        for pass in run.rounds.iter().flatten() {
            tally.add(pass);
        }
    }
    let first = &runs[0].rounds[0][0];
    if args.workload == Workload::SweepMix {
        // The sweep's output must not depend on the thread count.
        let other = if threads == 1 { 2 } else { 1 };
        match workloads::sweep_csv(args.size, args.seed, other) {
            Ok(csv) if workloads::fnv1a(csv.as_bytes()) == first.observed.digest => {}
            Ok(_) => {
                tally.errors.push(format!(
                    "sweep CSV on {other} thread(s) differs from {threads}"
                ));
                tally.failed = tally.attempted;
            }
            Err(e) => {
                tally
                    .errors
                    .push(format!("sweep on {other} thread(s): {e}"));
                tally.failed = tally.attempted;
            }
        }
    }
    check_expected(args, &first.observed, tally);
    let setups: Vec<f64> = runs.iter().flat_map(|r| r.setups.iter().copied()).collect();
    eprintln!(
        "{}: {workers} worker(s) × {} round(s) of {} untraced pass(es), seed {}, \
{threads} thread(s), {} set-ups",
        args.workload.name(),
        runs.iter()
            .map(|r| r.rounds.len().to_string())
            .collect::<Vec<_>>()
            .join("+"),
        runs[0].rounds[0].len(),
        args.seed,
        setups.len(),
    );
    for run in &runs {
        for (pass, seed) in run.rounds.iter().flatten().zip(run.seeds.iter().flatten()) {
            let counts: Vec<String> = pass
                .observed
                .counts
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            eprintln!(
                "  input seed {seed}: digest {:016x} {} wall_s={:.3}",
                pass.observed.digest,
                counts.join(" "),
                pass.wall_s
            );
        }
    }
    eprintln!(
        "  failed_frac = {}",
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    // Workers run at once, so their rates add up.
    let rate = |work: &dyn Fn(&Pass) -> u64| -> f64 {
        runs.iter().map(|r| r.rate(args.workload, work)).sum()
    };
    let (jobs_per_s, cells_per_s) = (rate(&|p| p.jobs), rate(&|p| p.cells));
    // The median round's peak: a rare round whose threads peak together
    // moved the whole run's high-water mark of `sweep-mix` from 26.5 to
    // 37 MB in two runs of ten.
    let peak_mb = if runs[0].peaks_mb.is_empty() {
        peak_rss_mb()
    } else {
        median(&runs[0].peaks_mb)
    };
    vec![
        metric("jobs_per_s", jobs_per_s, "jobs/s"),
        metric("cells_per_s", cells_per_s, "cells/s"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", peak_mb, "MB"),
    ]
}

fn traced(args: &Args, threads: usize, tally: &mut Tally) -> Vec<Metric> {
    // At least two traced passes, so that their exact counts must repeat.
    let rounds = timed_rounds(
        args.seconds,
        2,
        |_| 0.0,
        |_| {
            let plain = workloads::run_pass(args.workload, args.size, args.seed, threads, false);
            let traced = workloads::run_pass(args.workload, args.size, args.seed, threads, true);
            vec![plain, traced]
        },
    );
    let plain: Vec<&Pass> = rounds.iter().map(|r| &r[0]).collect();
    let traced: Vec<&Pass> = rounds.iter().map(|r| &r[1]).collect();
    for pass in rounds.iter().flatten() {
        tally.add(pass);
        // Traced and untraced passes render the same results.
        tally.same_as(&plain[0].observed, pass, "pass");
    }
    let trace_counts = |p: &Pass| -> Observed {
        let t = trace_of(p);
        let mut counts: Vec<(String, u64)> = EVENT_KINDS
            .iter()
            .zip(t.events.by_kind)
            .map(|(k, v)| (format!("events.{k}"), v))
            .collect();
        counts.extend([
            ("cycles".to_string(), t.cycles),
            ("examined".to_string(), t.examined),
            ("started".to_string(), t.started),
            ("hook_calls".to_string(), t.hook_calls),
            ("pulls".to_string(), t.pulls),
            ("kernels_routed".to_string(), t.kernels_routed),
        ]);
        counts.extend(p.observed.counts.iter().cloned());
        Observed {
            digest: p.observed.digest,
            counts,
        }
    };
    let first = trace_counts(traced[0]);
    for pass in &traced {
        if let Some(diff) = difference(&first, &trace_counts(pass)) {
            tally.errors.push(format!("traced pass: {diff}"));
            tally.failed += pass.jobs;
        }
    }
    check_expected(args, &first, tally);
    eprintln!(
        "{}: {} untraced + traced pair(s), seed {}, {threads} thread(s), digest {:016x}",
        args.workload.name(),
        rounds.len(),
        args.seed,
        first.digest
    );
    for (name, value) in &first.counts {
        eprintln!("  count {name} = {value}");
    }
    layer_metrics(args.workload, threads, &plain, &traced)
}

fn trace_of(pass: &Pass) -> &workloads::Traced {
    pass.traced.as_ref().expect("traced passes carry a trace")
}

fn layer_metrics(
    workload: Workload,
    threads: usize,
    plain: &[&Pass],
    traced: &[&Pass],
) -> Vec<Metric> {
    let t0 = trace_of(traced[0]);
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let plain_med =
        |f: &dyn Fn(&Pass) -> f64| median(&plain.iter().map(|p| f(p)).collect::<Vec<_>>());

    let layer = |l: Layer| med(&|p| trace_of(p).times.total_s(l));
    let count = |n: u64| n as f64;
    let cycles = t0.cycles.max(1) as f64;
    let examined = t0.examined.max(1) as f64;
    let events = t0.events.total().max(1) as f64;
    let pulls = t0.pulls.max(1) as f64;
    let sched_busy = layer(Layer::Sched);
    // Time outside every wrapped layer: the event loop, built-in
    // observers and the benchmark's own event counter.
    let core_self = med(&|p| {
        let t = trace_of(p);
        t.sim_s - t.times.all_self_s()
    });
    let attribution = layer(Layer::Attribution);
    // Streamed runs carry the attribution observer only when traced; its
    // work is not tracing cost.
    let extra = if workload == Workload::SweepMix {
        0.0
    } else {
        attribution
    };
    let plain_wall = plain_med(&|p| p.wall_s);
    let traced_wall = med(&|p| p.wall_s);
    let cell_s: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.cell_s.iter().copied())
        .collect();
    let parallel_eff = plain_med(&|p| {
        p.cell_s.iter().sum::<f64>() / (threads.min(p.cell_s.len()).max(1) as f64 * p.wall_s)
    });
    let mut metrics = vec![
        metric("sched.cycles", count(t0.cycles), "count"),
        metric(
            "sched.mean_queue_depth",
            t0.examined as f64 / cycles,
            "jobs",
        ),
        metric("sched.examined", count(t0.examined), "count"),
        metric("sched.start_yield", t0.started as f64 / examined, "frac"),
        metric("sched.busy_s", sched_busy, "s"),
        metric("sched.order_s", layer(Layer::Order), "s"),
        metric("sched.admit_s", layer(Layer::Admit), "s"),
        metric(
            "sched.self_s",
            med(&|p| trace_of(p).times.self_s(Layer::Sched)),
            "s",
        ),
        metric("sched.us_per_cycle", sched_busy / cycles * 1e6, "us"),
        metric("cluster.allocate_s", layer(Layer::Allocate), "s"),
        metric("drivers.hook_calls", count(t0.hook_calls), "count"),
        metric("drivers.busy_s", layer(Layer::Drivers), "s"),
        metric("gen.pulls", count(t0.pulls), "count"),
        metric("gen.ns_per_job", layer(Layer::Gen) / pulls * 1e9, "ns"),
        metric("core.events", count(t0.events.total()), "count"),
    ];
    for (kind, n) in EVENT_KINDS.iter().zip(t0.events.by_kind) {
        metrics.push(metric(format!("core.events.{kind}"), count(n), "count"));
    }
    metrics.extend([
        metric("core.self_s", core_self, "s"),
        metric("core.ns_per_event", core_self / events * 1e9, "ns"),
        metric(
            "core.peak_in_flight_jobs",
            count(traced[0].peak_in_flight),
            "jobs",
        ),
        metric("trace.attribution_s", attribution, "s"),
        metric(
            "trace.overhead_frac",
            (traced_wall - extra - plain_wall) / plain_wall,
            "frac",
        ),
        metric("fleet.kernels_routed", count(t0.kernels_routed), "count"),
        metric(
            "fleet.reroutes",
            count(t0.events.get("kernel_rerouted")),
            "count",
        ),
        metric(
            "faults.kernel_failures",
            count(t0.events.get("kernel_failed")),
            "count",
        ),
        metric(
            "faults.kernel_retries",
            count(t0.events.get("kernel_retried")),
            "count",
        ),
        metric(
            "faults.device_failures",
            count(t0.events.get("device_failed")),
            "count",
        ),
        metric(
            "faults.job_restarts",
            count(t0.events.get("job_restarted")),
            "count",
        ),
        metric("sweep.cell_s_p50", quantile(&cell_s, 0.5), "s"),
        metric("sweep.cell_s_p90", quantile(&cell_s, 0.9), "s"),
        metric("sweep.parallel_eff", parallel_eff, "frac"),
        metric("sweep.workload_build_s", med(&|p| trace_of(p).build_s), "s"),
        metric("sweep.report_s", plain_med(&|p| p.report_s), "s"),
    ]);
    let largest = [
        ("sched.order_s", Layer::Order),
        ("sched.admit_s", Layer::Admit),
        ("cluster.allocate_s", Layer::Allocate),
        ("drivers.busy_s", Layer::Drivers),
        ("gen", Layer::Gen),
        ("trace.attribution_s", Layer::Attribution),
    ]
    .into_iter()
    .map(|(name, l)| (name, layer(l)))
    .chain([
        (
            "sched.self_s",
            med(&|p| trace_of(p).times.self_s(Layer::Sched)),
        ),
        ("core.self_s", core_self),
    ])
    .max_by(|a, b| a.1.total_cmp(&b.1))
    .expect("layers are listed");
    eprintln!(
        "  largest layer: {} ({:.1}% of traced wall {:.3} s; untraced {:.3} s)",
        largest.0,
        100.0 * largest.1 / med(&|p| trace_of(p).sim_s),
        traced_wall,
        plain_wall
    );
    metrics
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("perfbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, threads, &mut tally)
    } else {
        untraced(&args, threads, &mut tally)
    };
    for m in &metrics {
        eprintln!("  {:<28} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    for e in &tally.errors {
        eprintln!("perfbench: output check failed: {e}");
    }
    let correct = tally.errors.is_empty();
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted.max(1),
        tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
