//! Scenario configuration: the machine + policy + strategy under test.

use crate::strategy::Strategy;
use hpcqc_faults::{FaultPlan, NodeFaults};
use hpcqc_fleet::FleetSpec;
use hpcqc_qpu::remote::AccessMode;
use hpcqc_qpu::technology::Technology;
use hpcqc_sched::PolicySpec;
use hpcqc_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// How requested walltimes are enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WalltimePolicy {
    /// Walltimes are planning hints only (backfill reservations); jobs run
    /// to completion regardless.
    #[default]
    Advisory,
    /// SLURM semantics: a job (or workflow step) exceeding its requested
    /// walltime is killed and requeued up to `max_requeues` times; after
    /// that it is recorded as failed.
    Kill {
        /// Automatic requeues granted before the job is recorded failed.
        max_requeues: u32,
    },
}

impl fmt::Display for WalltimePolicy {
    /// Short label used in sweep tables: `advisory` / `kill(n)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalltimePolicy::Advisory => f.write_str("advisory"),
            WalltimePolicy::Kill { max_requeues } => write!(f, "kill({max_requeues})"),
        }
    }
}

/// Random node failures (failure injection for resilience experiments).
///
/// The legacy spelling of a [`FaultPlan`] node section: the simulator
/// folds it into one via [`FailureModel::node_faults`] (see
/// [`Scenario::effective_faults`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Cluster-wide mean time between node failures, seconds.
    pub mtbf: hpcqc_simcore::dist::Dist,
    /// Node repair duration, seconds.
    pub repair: hpcqc_simcore::dist::Dist,
    /// How many times a job hit by failures is requeued before being
    /// recorded failed.
    pub max_requeues: u32,
}

impl FailureModel {
    /// Exponential failures with the given cluster-wide MTBF and a
    /// log-normal ~30 min repair, 3 requeues — a plausible ops profile.
    pub fn exponential(mtbf_secs: f64) -> Self {
        FailureModel {
            mtbf: hpcqc_simcore::dist::Dist::exponential(mtbf_secs),
            repair: hpcqc_simcore::dist::Dist::log_normal_mean_cv(1_800.0, 0.5)
                .clamped(300.0, 14_400.0),
            max_requeues: 3,
        }
    }

    /// The fault-plan node section this model is equivalent to: the same
    /// failure and repair processes and the same requeue budget.
    pub fn node_faults(&self) -> NodeFaults {
        NodeFaults {
            mtbf: self.mtbf.clone(),
            repair: self.repair.clone(),
            max_requeues: Some(self.max_requeues),
        }
    }
}

/// Everything the facility simulator needs besides the workload.
///
/// # Examples
///
/// ```
/// use hpcqc_core::{Scenario, Strategy};
/// use hpcqc_qpu::Technology;
///
/// let scenario = Scenario::builder()
///     .classical_nodes(64)
///     .device(Technology::Superconducting)
///     .strategy(Strategy::Vqpu { vqpus: 4 })
///     .seed(42)
///     .build();
/// assert_eq!(scenario.classical_nodes, 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Nodes in the `classical` partition.
    pub classical_nodes: u32,
    /// One entry per physical QPU device in the `quantum` partition, when
    /// no [`Scenario::fleet`] is set. The simulator normalizes the list to
    /// a fleet on construction (see [`Scenario::effective_fleet`]).
    pub devices: Vec<Technology>,
    /// Batch-scheduler policy.
    pub policy: PolicySpec,
    /// Integration strategy for hybrid jobs.
    pub strategy: Strategy,
    /// Root RNG seed (drives device timing, overheads, workloads do their own).
    pub seed: u64,
    /// Workflow-manager overhead added before each step submission
    /// (Fig. 2's inter-step handling cost; queue wait comes on top).
    pub workflow_overhead: SimDuration,
    /// Whether devices run periodic recalibration windows.
    pub device_calibration: bool,
    /// Optional access-model overhead per kernel (None = negligible
    /// on-prem path; used by experiment E7).
    pub access: Option<AccessMode>,
    /// Record a Gantt trace (costs memory; examples turn it on).
    pub record_gantt: bool,
    /// Walltime enforcement (advisory by default).
    pub walltime_policy: WalltimePolicy,
    /// Optional random node failures (none by default), the legacy form of
    /// a [`FaultPlan`] node section. The simulator folds it into
    /// [`Scenario::faults`] on construction (see
    /// [`Scenario::effective_faults`]).
    pub node_failures: Option<FailureModel>,
    /// Optional heterogeneous QPU fleet. When set it supersedes
    /// [`Scenario::devices`]. Either way the simulator builds a fleet and
    /// routes every kernel through its
    /// [`RoutePolicy`](hpcqc_fleet::RoutePolicy): `None` stands for the
    /// device list wrapped via [`FleetSpec::from_legacy`].
    pub fleet: Option<FleetSpec>,
    /// Optional dependability plan: node/device fault processes,
    /// calibration drift, transient kernel errors and the recovery policy
    /// countering them. Its node section supersedes
    /// [`Scenario::node_failures`]; when it has none, the legacy model
    /// fills it. `None` (or an inert plan) leaves the simulation
    /// byte-identical to a fault-free run.
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// Starts building a scenario (defaults: 16 nodes, one superconducting
    /// QPU, EASY backfill, co-scheduling, seed 1).
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            inner: Scenario::default(),
        }
    }

    /// The fleet the simulator builds: [`Scenario::fleet`] when set, the
    /// legacy device list wrapped via [`FleetSpec::from_legacy`]
    /// otherwise (one `qpu{i}` device per entry, routed pin-first).
    pub fn effective_fleet(&self) -> Cow<'_, FleetSpec> {
        match &self.fleet {
            Some(fleet) => Cow::Borrowed(fleet),
            None => Cow::Owned(FleetSpec::from_legacy(&self.devices)),
        }
    }

    /// The fault plan the simulator runs: [`Scenario::faults`], with the
    /// legacy [`Scenario::node_failures`] folded into an absent node
    /// section. `None` when neither is set.
    pub fn effective_faults(&self) -> Option<FaultPlan> {
        let legacy = self.node_failures.as_ref().map(FailureModel::node_faults);
        match &self.faults {
            Some(plan) => {
                let mut plan = plan.clone();
                plan.node = plan.node.or(legacy);
                Some(plan)
            }
            None => legacy.map(|node| FaultPlan::default().node(node)),
        }
    }

    /// How many QPU devices the simulator will build.
    pub fn device_count(&self) -> usize {
        self.effective_fleet().devices.len()
    }

    /// The label of device `index` (the effective fleet's device name;
    /// `qpu{i}` for an out-of-range index).
    pub fn device_label(&self, index: usize) -> String {
        self.effective_fleet()
            .devices
            .get(index)
            .map_or_else(|| format!("qpu{index}"), |d| d.name.clone())
    }

    /// The technology of device `index` (`None` when out of range).
    pub fn device_technology(&self, index: usize) -> Option<Technology> {
        self.effective_fleet()
            .devices
            .get(index)
            .map(|d| d.technology)
    }

    /// Checks what [`ScenarioBuilder::build`] asserts, for a scenario
    /// that came from untrusted input (a JSON file) rather than the
    /// builder.
    ///
    /// # Errors
    ///
    /// The first reason the scenario cannot be simulated.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.classical_nodes == 0 {
            Err(ScenarioError::NoClassicalNodes)
        } else if self.device_count() == 0 {
            Err(ScenarioError::NoQpuDevices)
        } else {
            Ok(())
        }
    }
}

/// Why a [`Scenario`] cannot be simulated (see [`Scenario::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioError {
    /// `classical_nodes` is 0.
    NoClassicalNodes,
    /// The effective fleet has no QPU device.
    NoQpuDevices,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoClassicalNodes => {
                f.write_str("scenario needs classical nodes: classical_nodes must be positive")
            }
            ScenarioError::NoQpuDevices => f.write_str("scenario needs at least one QPU device"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            classical_nodes: 16,
            devices: vec![Technology::Superconducting],
            policy: PolicySpec::easy(),
            strategy: Strategy::CoSchedule,
            seed: 1,
            workflow_overhead: SimDuration::from_secs(2),
            device_calibration: false,
            access: None,
            record_gantt: false,
            walltime_policy: WalltimePolicy::Advisory,
            node_failures: None,
            fleet: None,
            faults: None,
        }
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    inner: Scenario,
}

impl ScenarioBuilder {
    /// Sets the classical partition size.
    pub fn classical_nodes(mut self, nodes: u32) -> Self {
        self.inner.classical_nodes = nodes;
        self
    }

    /// Replaces the device list with a single device.
    pub fn device(mut self, technology: Technology) -> Self {
        self.inner.devices = vec![technology];
        self
    }

    /// Replaces the whole device list.
    pub fn devices(mut self, technologies: Vec<Technology>) -> Self {
        self.inner.devices = technologies;
        self
    }

    /// Sets the scheduling policy.
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.inner.policy = policy;
        self
    }

    /// Sets the integration strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.inner.strategy = strategy;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Sets the per-step workflow-manager overhead.
    pub fn workflow_overhead(mut self, overhead: SimDuration) -> Self {
        self.inner.workflow_overhead = overhead;
        self
    }

    /// Enables periodic device recalibration windows.
    pub fn device_calibration(mut self, on: bool) -> Self {
        self.inner.device_calibration = on;
        self
    }

    /// Adds a per-kernel access-model overhead (E7).
    pub fn access(mut self, access: AccessMode) -> Self {
        self.inner.access = Some(access);
        self
    }

    /// Enables Gantt recording.
    pub fn record_gantt(mut self, on: bool) -> Self {
        self.inner.record_gantt = on;
        self
    }

    /// Sets the walltime-enforcement policy.
    pub fn walltime_policy(mut self, policy: WalltimePolicy) -> Self {
        self.inner.walltime_policy = policy;
        self
    }

    /// Enables random node failures.
    pub fn node_failures(mut self, model: FailureModel) -> Self {
        self.inner.node_failures = Some(model);
        self
    }

    /// Installs a heterogeneous QPU fleet (supersedes the device list).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`FleetSpec::validate`] — fleets from
    /// untrusted input should be validated before building the scenario.
    pub fn fleet(mut self, fleet: FleetSpec) -> Self {
        let invalid = fleet.validate().err();
        assert!(invalid.is_none(), "invalid fleet spec: {invalid:?}");
        self.inner.fleet = Some(fleet);
        self
    }

    /// Installs a dependability plan (fault injection + recovery policy).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] — plans from
    /// untrusted input should be validated before building the scenario.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        let invalid = plan.validate().err();
        assert!(invalid.is_none(), "invalid fault plan: {invalid:?}");
        self.inner.faults = Some(plan);
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Panics
    ///
    /// Panics if there are zero classical nodes or the effective fleet
    /// has zero devices.
    pub fn build(self) -> Scenario {
        assert!(
            self.inner.classical_nodes > 0,
            "scenario needs classical nodes"
        );
        assert!(
            self.inner.device_count() > 0,
            "scenario needs at least one QPU device"
        );
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let s = Scenario::builder().build();
        assert_eq!(s.classical_nodes, 16);
        assert_eq!(s.devices, vec![Technology::Superconducting]);
        assert_eq!(s.policy, PolicySpec::easy());
        assert_eq!(s.strategy, Strategy::CoSchedule);
        assert!(!s.record_gantt);
    }

    #[test]
    fn builder_overrides() {
        let s = Scenario::builder()
            .classical_nodes(128)
            .devices(vec![Technology::NeutralAtom, Technology::TrappedIon])
            .policy(PolicySpec::fcfs())
            .strategy(Strategy::Malleable { min_nodes: 2 })
            .seed(99)
            .device_calibration(true)
            .record_gantt(true)
            .build();
        assert_eq!(s.devices.len(), 2);
        assert_eq!(s.seed, 99);
        assert!(s.device_calibration);
    }

    #[test]
    fn walltime_policy_display() {
        assert_eq!(WalltimePolicy::Advisory.to_string(), "advisory");
        assert_eq!(
            WalltimePolicy::Kill { max_requeues: 2 }.to_string(),
            "kill(2)"
        );
    }

    #[test]
    fn walltime_policy_configurable() {
        let s = Scenario::builder()
            .walltime_policy(WalltimePolicy::Kill { max_requeues: 2 })
            .build();
        assert_eq!(s.walltime_policy, WalltimePolicy::Kill { max_requeues: 2 });
        assert_eq!(
            Scenario::default().walltime_policy,
            WalltimePolicy::Advisory
        );
    }

    #[test]
    fn validate_names_what_build_asserts() {
        assert_eq!(Scenario::default().validate(), Ok(()));
        let s = Scenario {
            classical_nodes: 0,
            ..Scenario::default()
        };
        assert_eq!(s.validate(), Err(ScenarioError::NoClassicalNodes));
        let mut s = Scenario::default();
        s.devices.clear();
        assert_eq!(s.validate(), Err(ScenarioError::NoQpuDevices));
    }

    #[test]
    #[should_panic(expected = "classical nodes")]
    fn zero_nodes_panics() {
        let _ = Scenario::builder().classical_nodes(0).build();
    }

    #[test]
    #[should_panic(expected = "QPU device")]
    fn zero_devices_panics() {
        let _ = Scenario::builder().devices(vec![]).build();
    }

    #[test]
    fn fleet_supplies_devices_for_an_empty_list() {
        use hpcqc_fleet::FleetDevice;
        let fleet = FleetSpec::new("solo").device(FleetDevice::new("ion", Technology::TrappedIon));
        let s = Scenario::builder().devices(vec![]).fleet(fleet).build();
        assert_eq!(s.device_count(), 1);
        assert_eq!(s.device_label(0), "ion");
        assert_eq!(s.device_technology(0), Some(Technology::TrappedIon));
    }

    #[test]
    fn effective_fleet_wraps_the_legacy_list() {
        let s = Scenario::builder()
            .devices(vec![Technology::Superconducting, Technology::NeutralAtom])
            .build();
        assert_eq!(
            *s.effective_fleet(),
            FleetSpec::from_legacy(&[Technology::Superconducting, Technology::NeutralAtom])
        );
        assert_eq!(s.device_label(1), "qpu1");
        assert_eq!(s.device_label(7), "qpu7", "out of range");
        assert_eq!(s.device_technology(1), Some(Technology::NeutralAtom));
        assert_eq!(s.device_technology(2), None);
    }

    #[test]
    fn effective_faults_folds_the_legacy_failure_model() {
        let model = FailureModel::exponential(3_600.0);
        let mut s = Scenario::builder().build();
        assert_eq!(s.effective_faults(), None);

        s.node_failures = Some(model.clone());
        let folded = s.effective_faults().expect("legacy model becomes a plan");
        assert_eq!(folded.node, Some(model.node_faults()));
        assert_eq!(
            folded.node.as_ref().map(NodeFaults::requeue_budget),
            Some(3)
        );
        assert!(folded.device.is_none() && folded.recovery.is_none());

        // A plan without a node section takes the legacy model...
        s.faults = Some(FaultPlan::named("devices-only"));
        let merged = s.effective_faults().expect("plan set");
        assert_eq!(merged.label(), "devices-only");
        assert_eq!(merged.node, Some(model.node_faults()));

        // ...and a plan with one supersedes it.
        let own = NodeFaults::exponential(600.0, 60.0);
        s.faults = Some(FaultPlan::named("nodes").node(own.clone()));
        assert_eq!(s.effective_faults().and_then(|p| p.node), Some(own));
    }
}
