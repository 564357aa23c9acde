//! Lockstep admission oracle. Each built-in policy decides every examined
//! job with one live check whose failure is the hold reason. The oracle
//! is the older, obviously correct admission written against the public
//! `Cluster::can_allocate`: the profile walk first, then `can_allocate`,
//! then a hold diagnosis that re-runs `can_allocate` on a gres-only
//! residue request to break the nodes-versus-gres tie. It reuses the
//! built-in policy's queue order, and both schedulers are driven through
//! the same queues, completions, walltime overruns and node failures;
//! every cycle must start the same jobs on the same allocations and
//! record the same holds. The oracle builds the cycle's profile at every
//! admission, so it also plans against the eagerly built profile.

mod common;

use common::{all_policies, op, shape, Lockstep};
use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::Cluster;
use hpcqc_cluster::error::ClusterError;
use hpcqc_sched::{
    BatchScheduler, Discipline, HoldReason, PolicySpec, ProfileCell, QueuePolicy, QueuedJob,
    SchedCtx, Verdict,
};
use hpcqc_simcore::time::SimTime;
use proptest::prelude::*;

/// `true` if the gres-only residue of `request` (every group's token
/// demands, with the node demands dropped) cannot be satisfied either.
fn gres_also_blocked(cluster: &Cluster, request: &AllocRequest) -> bool {
    let mut residue = AllocRequest::new();
    for group in request.groups() {
        if group.gres.iter().any(|(_, n)| *n > 0) {
            residue = residue.group(GroupRequest {
                partition: group.partition.clone(),
                nodes: 0,
                gres: group.gres.clone(),
            });
        }
    }
    !residue.is_empty() && cluster.can_allocate(&residue).is_err()
}

/// The hold diagnosis as a chain of `can_allocate` calls.
fn oracle_hold_reason(cluster: &Cluster, request: &AllocRequest) -> HoldReason {
    match cluster.can_allocate(request) {
        Ok(()) => HoldReason::PolicyHold,
        Err(ClusterError::InsufficientNodes { .. }) => {
            if gres_also_blocked(cluster, request) {
                HoldReason::InsufficientGres
            } else {
                HoldReason::InsufficientNodes
            }
        }
        Err(ClusterError::InsufficientGres { .. } | ClusterError::NoSuchGres { .. }) => {
            HoldReason::InsufficientGres
        }
        Err(_) => HoldReason::PolicyHold,
    }
}

/// The reference admission for one built-in discipline. Queue order is
/// delegated to the built-in policy; admission and hold handling are
/// re-implemented from `can_allocate`.
#[derive(Debug)]
struct OracleAdmit {
    discipline: Discipline,
    ordering: Box<dyn QueuePolicy>,
    /// FCFS: the queue head blocked. EASY family: the head is reserved.
    blocked: bool,
}

impl OracleAdmit {
    fn new(spec: PolicySpec) -> Self {
        OracleAdmit {
            discipline: spec.discipline,
            ordering: spec.build(),
            blocked: false,
        }
    }
}

impl QueuePolicy for OracleAdmit {
    fn name(&self) -> &str {
        "oracle-admit"
    }

    fn begin_cycle(&mut self, ctx: &SchedCtx<'_>) {
        self.blocked = false;
        self.ordering.begin_cycle(ctx);
    }

    fn order(&mut self, queue: &mut [QueuedJob], ctx: &SchedCtx<'_>) {
        self.ordering.order(queue, ctx);
    }

    fn admit(
        &mut self,
        job: &QueuedJob,
        profile: &mut ProfileCell<'_>,
        ctx: &SchedCtx<'_>,
    ) -> Verdict {
        let cluster = ctx.cluster();
        let now = ctx.now();
        let demand = job.demand();
        let fits = |request: &AllocRequest| cluster.can_allocate(request).is_ok();
        // The oracle also pins the public diagnosis helpers to the chain.
        assert_eq!(
            ctx.hold_reason(demand),
            oracle_hold_reason(cluster, &job.request),
            "SchedCtx::hold_reason drifted for {:?}",
            job.request
        );
        assert_eq!(ctx.can_allocate(demand), fits(&job.request));
        let profile = profile.get();
        match self.discipline {
            Discipline::Fcfs => {
                if !self.blocked && fits(&job.request) {
                    Verdict::Start
                } else {
                    Verdict::Hold(oracle_hold_reason(cluster, &job.request))
                }
            }
            Discipline::ConservativeBackfill => {
                let slot = profile.find_slot(demand, job.walltime, now);
                if slot > now {
                    profile.reserve(demand, slot, job.walltime);
                    Verdict::Hold(match oracle_hold_reason(cluster, &job.request) {
                        HoldReason::PolicyHold => HoldReason::HeadShadow,
                        reason => reason,
                    })
                } else if fits(&job.request) {
                    Verdict::Start
                } else {
                    Verdict::Hold(oracle_hold_reason(cluster, &job.request))
                }
            }
            _ => {
                let can_start = if self.blocked {
                    profile.find_slot(demand, job.walltime, now) == now && fits(&job.request)
                } else {
                    fits(&job.request)
                };
                if can_start {
                    Verdict::Start
                } else {
                    Verdict::Hold(match oracle_hold_reason(cluster, &job.request) {
                        HoldReason::PolicyHold if self.blocked => HoldReason::HeadShadow,
                        reason => reason,
                    })
                }
            }
        }
    }

    fn held(&mut self, job: &QueuedJob, profile: &mut ProfileCell<'_>, ctx: &SchedCtx<'_>) {
        match self.discipline {
            Discipline::Fcfs => self.blocked = true,
            Discipline::ConservativeBackfill => {}
            _ => {
                if !self.blocked {
                    self.blocked = true;
                    let profile = profile.get();
                    let shadow = profile.find_slot(job.demand(), job.walltime, ctx.now());
                    if shadow != SimTime::MAX {
                        profile.reserve(job.demand(), shadow, job.walltime);
                    }
                }
            }
        }
    }
}

fn lockstep(shape: common::Shape, spec: PolicySpec) -> Lockstep {
    let oracle =
        BatchScheduler::custom(Box::new(OracleAdmit::new(spec))).with_priority(spec.calculator());
    Lockstep::new(shape, [BatchScheduler::new(spec), oracle])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every built-in policy starts and holds exactly what the
    /// `can_allocate`-chain oracle does, cycle after cycle.
    #[test]
    fn builtin_admission_matches_oracle(
        shape in shape(),
        ops in prop::collection::vec(op(), 1..80),
    ) {
        for spec in all_policies() {
            let mut run = lockstep(shape, spec);
            for op in ops.iter().cloned() {
                run.apply(op)?;
                run.cycle(&spec.to_string())?;
            }
        }
    }
}

/// A fixed QPU-contended scenario with a failed node stays in lockstep
/// under every policy while holding many jobs, so the comparison above
/// is known to reach held queues and not only empty ones.
#[test]
fn lockstep_cases_hold_jobs() {
    use common::Op;
    let ops: Vec<Op> = (0..40)
        .map(|i| match i % 5 {
            0 | 1 => Op::Submit(vec![(0, 3, vec![]), (1, 0, vec![(0, 1)])], 600, i % 3, 0.0),
            2 => Op::Submit(vec![(0, 2, vec![])], 300, i % 3, 0.0),
            3 => Op::Advance(120),
            _ => Op::Finish(i),
        })
        .collect();
    for spec in all_policies() {
        let mut run = lockstep((6, 1, 1, 0, 0), spec);
        run.apply(Op::Fail(0)).unwrap();
        for op in ops.iter().cloned() {
            run.apply(op).unwrap();
            run.cycle(&spec.to_string()).unwrap();
        }
        assert!(
            run.cycles >= 40 && run.holds > 40,
            "{spec}: {} holds",
            run.holds
        );
    }
}
