//! Per-layer tracing from outside the program.
//!
//! Every layer is timed at a public hook of the simulator, never inside
//! it: a wrapping [`JobSource`] for the generator, a wrapping
//! [`StrategyDriver`] for the drivers, a [`CycleProbe`] for the
//! scheduler's planning cycle and its order/admit/allocate phases, and
//! wrapping or counting [`SimObserver`]s for the observers and the event
//! mix. All wrappers of one simulation share one [`Spans`] stack, so a
//! span opened inside another (an observer called while a driver hook
//! shrinks an allocation, say) is charged to the inner layer only, and
//! the time outside every span is the event loop's own.

use hpcqc_core::driver::{SimCtx, StrategyDriver, SubmissionPlan};
use hpcqc_core::observer::{SimEvent, SimObserver};
use hpcqc_core::sim::SimError;
use hpcqc_core::source::JobSource;
use hpcqc_sched::probe::{CyclePhase, CycleProbe};
use hpcqc_simcore::time::SimTime;
use hpcqc_workload::job::{JobId, JobSpec};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Reads the wall clock. The benchmark's own timing only: readings never
/// reach the simulator.
#[allow(clippy::disallowed_methods)]
pub fn wall_now() -> Instant {
    Instant::now()
}

/// The layers a traced run separates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The job generator or slice source (`hpcqc-gen`), per pull.
    Gen,
    /// Strategy-driver hooks (`hpcqc-core::drivers`).
    Drivers,
    /// A whole planning cycle (`hpcqc-sched`), outside its phases.
    Sched,
    /// Queue ordering and availability-profile build.
    Order,
    /// Per-job admission decisions.
    Admit,
    /// Live allocation on the cluster (`hpcqc-cluster`).
    Allocate,
    /// The wait-attribution observer (`hpcqc-trace`).
    Attribution,
}

const LAYERS: usize = 7;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }
}

/// Span totals per layer, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// Inclusive time: from each span's start to its end.
    pub total_ns: [u64; LAYERS],
    /// Self time: inclusive time minus the spans opened inside it.
    pub self_ns: [u64; LAYERS],
}

impl LayerTimes {
    /// Inclusive seconds spent in `layer`.
    pub fn total_s(&self, layer: Layer) -> f64 {
        self.total_ns[layer.index()] as f64 * 1e-9
    }

    /// Self time of `layer`, seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 * 1e-9
    }

    /// Self time of every layer together, seconds.
    pub fn all_self_s(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Adds another simulation's totals (sweep cells).
    pub fn add(&mut self, other: &LayerTimes) {
        for i in 0..LAYERS {
            self.total_ns[i] += other.total_ns[i];
            self.self_ns[i] += other.self_ns[i];
        }
    }
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

/// The open-span stack of one simulation.
#[derive(Debug, Default)]
pub struct Spans {
    stack: Vec<Open>,
    times: LayerTimes,
}

impl Spans {
    fn enter(&mut self, layer: Layer) {
        self.stack.push(Open {
            layer,
            start: wall_now(),
            child_ns: 0,
        });
    }

    fn exit(&mut self, layer: Layer) {
        let open = self.stack.pop().expect("span exit matches an enter");
        assert_eq!(open.layer, layer, "spans close in the order they open");
        let ns = u64::try_from(open.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.times.total_ns[layer.index()] += ns;
        self.times.self_ns[layer.index()] += ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
    }

    /// The totals so far.
    pub fn times(&self) -> LayerTimes {
        self.times
    }
}

/// A handle every wrapper of one simulation shares.
pub type SharedSpans = Rc<RefCell<Spans>>;

fn timed<T>(spans: &SharedSpans, layer: Layer, f: impl FnOnce() -> T) -> T {
    spans.borrow_mut().enter(layer);
    let out = f();
    spans.borrow_mut().exit(layer);
    out
}

/// A [`JobSource`] that times and counts pulls from the wrapped source.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    spans: SharedSpans,
    /// Jobs pulled so far (the final `None` is not counted).
    pub pulls: u64,
}

impl<S: JobSource> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, spans: SharedSpans) -> Self {
        TimedSource {
            inner,
            spans,
            pulls: 0,
        }
    }
}

impl<S: JobSource> JobSource for TimedSource<S> {
    fn next_job(&mut self) -> Option<JobSpec> {
        let job = timed(&self.spans, Layer::Gen, || self.inner.next_job());
        self.pulls += u64::from(job.is_some());
        job
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// A [`StrategyDriver`] that times and counts every hook of the wrapped
/// driver and otherwise forwards it unchanged.
#[derive(Debug)]
pub struct TimedDriver {
    inner: Box<dyn StrategyDriver>,
    spans: SharedSpans,
    calls: Rc<Cell<u64>>,
}

impl TimedDriver {
    /// Wraps `inner`; `calls` receives the hook-call count.
    pub fn new(inner: Box<dyn StrategyDriver>, spans: SharedSpans, calls: Rc<Cell<u64>>) -> Self {
        TimedDriver {
            inner,
            spans,
            calls,
        }
    }

    fn hook<T>(&mut self, f: impl FnOnce(&mut dyn StrategyDriver) -> T) -> T {
        self.calls.set(self.calls.get() + 1);
        let inner = self.inner.as_mut();
        timed(&self.spans, Layer::Drivers, || f(inner))
    }
}

impl StrategyDriver for TimedDriver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gres_per_device(&self) -> u32 {
        self.calls.set(self.calls.get() + 1);
        timed(&self.spans, Layer::Drivers, || self.inner.gres_per_device())
    }

    fn submission_plan(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> SubmissionPlan {
        self.hook(|d| d.submission_plan(ctx, job))
    }

    fn holds_qpu_exclusively(&self, job: JobId) -> bool {
        self.calls.set(self.calls.get() + 1);
        timed(&self.spans, Layer::Drivers, || {
            self.inner.holds_qpu_exclusively(job)
        })
    }

    fn on_started(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        self.hook(|d| d.on_started(ctx, job))
    }

    fn on_quantum_enter(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        self.hook(|d| d.on_quantum_enter(ctx, job))
    }

    fn on_quantum_exit(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        self.hook(|d| d.on_quantum_exit(ctx, job))
    }

    fn on_phase_advanced(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        self.hook(|d| d.on_phase_advanced(ctx, job))
    }

    fn on_abort(&mut self, ctx: &mut SimCtx<'_, '_>, job: JobId) -> Result<(), SimError> {
        self.hook(|d| d.on_abort(ctx, job))
    }
}

/// A [`CycleProbe`] that times planning cycles and their phases and
/// counts cycles, examined jobs and starts.
#[derive(Debug)]
pub struct TimedProbe {
    spans: SharedSpans,
    /// Cycles run with a non-empty queue.
    pub cycles: u64,
    /// Queued jobs examined, summed over cycles.
    pub examined: u64,
    /// Jobs started.
    pub started: u64,
}

impl TimedProbe {
    /// A probe recording into `spans`.
    pub fn new(spans: SharedSpans) -> Self {
        TimedProbe {
            spans,
            cycles: 0,
            examined: 0,
            started: 0,
        }
    }
}

fn phase_layer(phase: CyclePhase) -> Layer {
    match phase {
        CyclePhase::Order => Layer::Order,
        CyclePhase::Admit => Layer::Admit,
        CyclePhase::Allocate => Layer::Allocate,
    }
}

impl CycleProbe for TimedProbe {
    fn cycle_start(&mut self, _now: SimTime, queue_depth: usize) {
        self.cycles += 1;
        self.examined += queue_depth as u64;
        self.spans.borrow_mut().enter(Layer::Sched);
    }

    fn phase_start(&mut self, phase: CyclePhase) {
        self.spans.borrow_mut().enter(phase_layer(phase));
    }

    fn phase_end(&mut self, phase: CyclePhase) {
        self.spans.borrow_mut().exit(phase_layer(phase));
    }

    fn cycle_end(&mut self, started: usize, _held: usize) {
        self.started += started as u64;
        self.spans.borrow_mut().exit(Layer::Sched);
    }
}

/// A [`SimObserver`] that times the wrapped observer, charging its time
/// to [`Layer::Attribution`].
#[derive(Debug)]
pub struct TimedObserver<'a, O: SimObserver> {
    inner: &'a mut O,
    spans: SharedSpans,
}

impl<'a, O: SimObserver> TimedObserver<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut O, spans: SharedSpans) -> Self {
        TimedObserver { inner, spans }
    }
}

impl<O: SimObserver> SimObserver for TimedObserver<'_, O> {
    fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
        timed(&self.spans, Layer::Attribution, || {
            self.inner.on_event(now, event)
        });
    }
}

/// Names of the [`SimEvent`] kinds, in the order [`EventCounter`]
/// counts them; `other` catches kinds added after this benchmark.
pub const EVENT_KINDS: [&str; 20] = [
    "job_submitted",
    "job_held",
    "job_started",
    "allocation_changed",
    "phase_started",
    "phase_ended",
    "kernel_enqueued",
    "kernel_exec_started",
    "kernel_exec_ended",
    "job_finalized",
    "node_failed",
    "node_repaired",
    "device_failed",
    "device_repaired",
    "kernel_failed",
    "kernel_retried",
    "kernel_rerouted",
    "checkpoint_taken",
    "job_restarted",
    "other",
];

/// Counts events by kind.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EventCounter {
    /// One count per entry of [`EVENT_KINDS`].
    pub by_kind: [u64; EVENT_KINDS.len()],
}

impl EventCounter {
    /// Count of the kind named `name`.
    pub fn get(&self, name: &str) -> u64 {
        EVENT_KINDS
            .iter()
            .position(|k| *k == name)
            .map_or(0, |i| self.by_kind[i])
    }

    /// Every event counted.
    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    /// Adds another simulation's counts (sweep cells).
    pub fn add(&mut self, other: &EventCounter) {
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
    }
}

impl SimObserver for EventCounter {
    fn on_event(&mut self, _now: SimTime, event: &SimEvent<'_>) {
        #[allow(unreachable_patterns)]
        let kind = match event {
            SimEvent::JobSubmitted { .. } => 0,
            SimEvent::JobHeld { .. } => 1,
            SimEvent::JobStarted { .. } => 2,
            SimEvent::AllocationChanged { .. } => 3,
            SimEvent::PhaseStarted { .. } => 4,
            SimEvent::PhaseEnded { .. } => 5,
            SimEvent::KernelEnqueued { .. } => 6,
            SimEvent::KernelExecStarted { .. } => 7,
            SimEvent::KernelExecEnded { .. } => 8,
            SimEvent::JobFinalized { .. } => 9,
            SimEvent::NodeFailed { .. } => 10,
            SimEvent::NodeRepaired { .. } => 11,
            SimEvent::DeviceFailed { .. } => 12,
            SimEvent::DeviceRepaired { .. } => 13,
            SimEvent::KernelFailed { .. } => 14,
            SimEvent::KernelRetried { .. } => 15,
            SimEvent::KernelRerouted { .. } => 16,
            SimEvent::CheckpointTaken { .. } => 17,
            SimEvent::JobRestarted { .. } => 18,
            _ => 19,
        };
        self.by_kind[kind] += 1;
    }
}

/// Records the wall-clock instant of the first event it sees.
#[derive(Debug, Default)]
pub struct FirstEvent {
    /// When the first event arrived.
    pub at: Option<Instant>,
}

impl SimObserver for FirstEvent {
    fn on_event(&mut self, _now: SimTime, _event: &SimEvent<'_>) {
        if self.at.is_none() {
            self.at = Some(wall_now());
        }
    }
}

/// Times a streamed run in segments: the wall time from its start to
/// the `every`-th finalized job, from there to the `2 × every`-th, and so
/// on. One virtual call per event, as cheap as the built-in observers.
#[derive(Debug)]
pub struct SegmentClock {
    every: u64,
    finalized: u64,
    last: Instant,
    /// Seconds each completed segment took.
    pub segment_s: Vec<f64>,
}

impl SegmentClock {
    /// Starts the clock; call just before the simulation.
    pub fn new(every: u64) -> Self {
        SegmentClock {
            every: every.max(1),
            finalized: 0,
            last: wall_now(),
            segment_s: Vec::new(),
        }
    }
}

impl SimObserver for SegmentClock {
    fn on_event(&mut self, _now: SimTime, event: &SimEvent<'_>) {
        if let SimEvent::JobFinalized { .. } = event {
            self.finalized += 1;
            if self.finalized % self.every == 0 {
                let now = wall_now();
                self.segment_s
                    .push(now.duration_since(self.last).as_secs_f64());
                self.last = now;
            }
        }
    }
}
