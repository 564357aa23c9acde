//! Benchmark kernels defined once and timed by both the criterion benches
//! (`benches/*.rs`) and `bench-export`, so the two cannot drift apart.

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::gres::GresKind;
use hpcqc_sched::scheduler::{BatchScheduler, PendingJob};
use hpcqc_sched::PolicySpec;
use hpcqc_simcore::rng::SimRng;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::job::JobId;

/// Classical nodes of the planning-cycle machine.
pub const SCHED_NODES: u32 = 128;
/// QPU tokens of the planning-cycle machine.
const SCHED_QPUS: u32 = 4;

/// The `sched` suite's kernel: one full planning cycle — priority
/// ordering, a live check per queued job, and whatever profile planning
/// the policy does — over a queue of a given depth, against a machine
/// that real running jobs fill.
///
/// [`PlanningCycle::new`] starts [`SCHED_NODES`] one-node jobs through
/// the scheduler (the first four also hold the four QPU tokens), with
/// staggered walltimes, so the availability profile has a segment per
/// running job. It then queues `depth` jobs of 1–32 nodes behind them,
/// every eighth also asking for a QPU token. Nothing can start, so every
/// [`cycle`](PlanningCycle::cycle) is the same pure planning pass.
#[derive(Debug)]
pub struct PlanningCycle {
    cluster: Cluster,
    sched: BatchScheduler,
    now: SimTime,
}

impl PlanningCycle {
    /// The filled machine and the queue of `depth` jobs under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the fill does not start every running job.
    pub fn new(policy: PolicySpec, depth: usize) -> Self {
        let mut cluster = ClusterBuilder::new()
            .partition("classical", SCHED_NODES)
            .partition_with_gres("quantum", 0, GresKind::qpu(), SCHED_QPUS)
            .build(SimTime::ZERO);
        let mut sched = BatchScheduler::new(policy);
        let job = |id: u64, request: AllocRequest, walltime: u64, submit: u64| PendingJob {
            id: JobId::new(id),
            request,
            walltime: SimDuration::from_secs(walltime),
            submit: SimTime::from_secs(submit),
            user: format!("user{}", id % 8),
            qos_boost: 0.0,
        };
        let with_qpu = |request: AllocRequest| {
            request.group(GroupRequest::gres("quantum", GresKind::qpu(), 1))
        };
        // The cycle runs at `now`, before every running job's expected end.
        let now = 10_000;
        for i in 0..SCHED_NODES {
            let mut request = AllocRequest::new().group(GroupRequest::nodes("classical", 1));
            if i < SCHED_QPUS {
                request = with_qpu(request);
            }
            let walltime = now + 600 + 97 * u64::from(i);
            sched
                .submit(job(u64::from(i), request, walltime, 0), &cluster)
                .expect("fill job fits the machine");
        }
        let started = sched.try_schedule(&mut cluster, SimTime::ZERO);
        assert_eq!(started.len(), SCHED_NODES as usize, "the fill starts");

        let mut rng = SimRng::seed_from(11);
        for i in 0..depth as u64 {
            let nodes = 1 + rng.below(32) as u32;
            let mut request = AllocRequest::new().group(GroupRequest::nodes("classical", nodes));
            if i % 8 == 0 {
                request = with_qpu(request);
            }
            let walltime = 600 + rng.below(7_200);
            let id = u64::from(SCHED_NODES) + i;
            sched
                .submit(job(id, request, walltime, 1 + i), &cluster)
                .expect("queued job fits the machine");
        }
        PlanningCycle {
            cluster,
            sched,
            now: SimTime::from_secs(now),
        }
    }

    /// Runs one planning cycle; returns the queue depth it planned over.
    ///
    /// # Panics
    ///
    /// Panics if the cycle starts a job (the machine is full).
    pub fn cycle(&mut self) -> usize {
        let started = self.sched.try_schedule(&mut self.cluster, self.now);
        assert!(started.is_empty(), "a full machine starts nothing");
        self.sched.pending_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_plan_against_the_running_jobs_and_start_nothing() {
        for policy in [
            PolicySpec::fcfs(),
            PolicySpec::easy(),
            PolicySpec::conservative(),
        ] {
            let mut kernel = PlanningCycle::new(policy, 50);
            assert_eq!(kernel.sched.running_len(), SCHED_NODES as usize);
            assert_eq!(kernel.cycle(), 50);
            assert_eq!(kernel.cycle(), 50, "{policy}: cycles repeat");
            let profile = kernel
                .sched
                .availability_profile(&kernel.cluster, kernel.now);
            assert_eq!(profile.segments(), 1 + SCHED_NODES as usize);
        }
    }
}
