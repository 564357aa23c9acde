//! Lockstep admission oracle. Each built-in policy decides every examined
//! job with one live check whose failure is the hold reason. The oracle
//! is the older, obviously correct admission written against the public
//! `Cluster::can_allocate`: the profile walk first, then `can_allocate`,
//! then a hold diagnosis that re-runs `can_allocate` on a gres-only
//! residue request to break the nodes-versus-gres tie. It reuses the
//! built-in policy's queue order, and both schedulers are driven through
//! the same queues, completions and node failures; every cycle must start
//! the same jobs on the same allocations and record the same holds.

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::error::ClusterError;
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::{AllocationId, NodeId};
use hpcqc_sched::{
    BatchScheduler, Demand, Discipline, HoldReason, PendingJob, PolicySpec, Profile, QueuePolicy,
    SchedCtx, Verdict,
};
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::job::JobId;
use proptest::prelude::*;

/// Partition names a request may name; the last one never exists.
const PARTITIONS: [&str; 4] = ["classical", "quantum", "gpu", "nowhere"];
/// Gres kinds a request may name; `tpu` is never pooled.
const KINDS: [&str; 4] = ["qpu", "fpga", "gpu", "tpu"];
const USERS: [&str; 3] = ["ana", "bo", "cy"];

/// `(classical nodes, qpu units, fpga units, gpu nodes, gpu units)`; the
/// quantum partition has one node and carries both the qpu and the fpga
/// pool, so clusters always have two gres pools in one partition.
type Shape = (u32, u32, u32, u32, u32);

/// One group: `(partition index, nodes, [(kind index, count)])`.
type GroupSpec = (usize, u32, Vec<(usize, u32)>);

#[derive(Debug, Clone)]
enum Op {
    /// Submit a job: groups, walltime (s), user index, QoS boost.
    Submit(Vec<GroupSpec>, u64, usize, f64),
    /// Advance the clock by this many seconds, finishing every job whose
    /// walltime ends by then.
    Advance(u64),
    /// Finish the running job at this index (modulo the running count)
    /// before its walltime ends.
    Finish(usize),
    /// Fail the node with this id (modulo the node count).
    Fail(u32),
    /// Return the node with this id (modulo the node count) to service.
    Restore(u32),
}

fn shape() -> impl Strategy<Value = Shape> {
    (2u32..12, 1u32..3, 1u32..3, 0u32..3, 0u32..3)
}

/// Mostly well-formed groups on the three real partitions, with a few
/// unknown partitions and zero counts mixed in.
fn group() -> impl Strategy<Value = GroupSpec> {
    (
        prop_oneof![
            Just(0usize),
            Just(0usize),
            Just(1usize),
            Just(1usize),
            Just(2usize),
            0usize..PARTITIONS.len(),
        ],
        prop_oneof![Just(0u32), 1u32..6, 1u32..6],
        prop::collection::vec(
            (
                0usize..KINDS.len(),
                prop_oneof![Just(0u32), 1u32..3, 1u32..3],
            ),
            0..3,
        ),
    )
}

fn submit() -> impl Strategy<Value = Op> {
    (
        prop::collection::vec(group(), 1..4),
        60u64..7_200,
        0usize..USERS.len(),
        prop_oneof![Just(0.0f64), 0.0f64..50.0],
    )
        .prop_map(|(groups, walltime, user, boost)| Op::Submit(groups, walltime, user, boost))
}

/// Submissions come twice as often as any other operation, so queues
/// grow deep enough for heads to block and jobs to backfill.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        submit(),
        submit(),
        prop_oneof![Just(0u64), 1u64..4_000].prop_map(Op::Advance),
        (0usize..16).prop_map(Op::Finish),
        (0u32..20).prop_map(Op::Fail),
        (0u32..20).prop_map(Op::Restore),
    ]
}

fn build(shape: Shape) -> Cluster {
    let (classical, qpus, fpga, gpu_nodes, gpus) = shape;
    ClusterBuilder::new()
        .partition("classical", classical)
        .partition_with_gres("quantum", 1, GresKind::qpu(), qpus)
        .gres(GresKind::new("fpga"), fpga)
        .partition_with_gres("gpu", gpu_nodes, GresKind::new("gpu"), gpus)
        .build(SimTime::ZERO)
}

fn to_request(groups: &[GroupSpec]) -> AllocRequest {
    groups
        .iter()
        .fold(AllocRequest::new(), |req, (part, nodes, gres)| {
            let group = gres.iter().fold(
                GroupRequest::nodes(PARTITIONS[*part], *nodes),
                |g, (kind, n)| g.with_gres(GresKind::new(KINDS[*kind]), *n),
            );
            req.group(group)
        })
}

fn all_policies() -> [PolicySpec; 5] {
    [
        PolicySpec::fcfs(),
        PolicySpec::easy(),
        PolicySpec::conservative(),
        PolicySpec::priority_backfill(1.0),
        PolicySpec::quantum_aware(1_000.0),
    ]
}

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

    fn order(&mut self, queue: &mut [PendingJob], ctx: &SchedCtx<'_>) {
        self.ordering.order(queue, ctx);
    }

    fn admit(
        &mut self,
        job: &PendingJob,
        demand: &Demand,
        profile: &mut Profile,
        ctx: &SchedCtx<'_>,
    ) -> Verdict {
        let cluster = ctx.cluster();
        let now = ctx.now();
        let fits = |request: &AllocRequest| cluster.can_allocate(request).is_ok();
        // The oracle also pins the public diagnosis helpers to the chain.
        assert_eq!(
            ctx.hold_reason(&job.request),
            oracle_hold_reason(cluster, &job.request),
            "SchedCtx::hold_reason drifted for {:?}",
            job.request
        );
        assert_eq!(ctx.can_allocate(&job.request), fits(&job.request));
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

    fn held(
        &mut self,
        job: &PendingJob,
        demand: &Demand,
        profile: &mut Profile,
        ctx: &SchedCtx<'_>,
    ) {
        match self.discipline {
            Discipline::Fcfs => self.blocked = true,
            Discipline::ConservativeBackfill => {}
            _ => {
                if !self.blocked {
                    self.blocked = true;
                    let shadow = profile.find_slot(demand, job.walltime, ctx.now());
                    if shadow != SimTime::MAX {
                        profile.reserve(demand, shadow, job.walltime);
                    }
                }
            }
        }
    }
}

/// Two clusters and two schedulers driven through the same operations.
struct Lockstep {
    clusters: [Cluster; 2],
    scheds: [BatchScheduler; 2],
    /// Running jobs' allocations with their walltime ends.
    running: Vec<(SimTime, AllocationId)>,
    walltimes: Vec<SimDuration>,
    now: SimTime,
    next_id: u64,
    cycles: usize,
    holds: usize,
}

impl Lockstep {
    fn new(shape: Shape, spec: PolicySpec) -> Self {
        let oracle = BatchScheduler::custom(Box::new(OracleAdmit::new(spec)))
            .with_priority(spec.calculator());
        Lockstep {
            clusters: [build(shape), build(shape)],
            scheds: [BatchScheduler::new(spec), oracle],
            running: Vec::new(),
            walltimes: Vec::new(),
            now: SimTime::ZERO,
            next_id: 0,
            cycles: 0,
            holds: 0,
        }
    }

    fn cycle(&mut self, spec: PolicySpec) -> Result<(), TestCaseError> {
        let [ca, cb] = &mut self.clusters;
        let [sa, sb] = &mut self.scheds;
        let started = sa.try_schedule(ca, self.now);
        let expected = sb.try_schedule(cb, self.now);
        prop_assert_eq!(
            &started,
            &expected,
            "{} starts differ at {}",
            spec,
            self.now
        );
        prop_assert_eq!(
            sa.last_holds(),
            sb.last_holds(),
            "{} holds differ at {}",
            spec,
            self.now
        );
        let ids = |s: &BatchScheduler| s.pending().iter().map(|p| p.id).collect::<Vec<_>>();
        prop_assert_eq!(ids(sa), ids(sb));
        let now = self.now;
        let walltimes = &self.walltimes;
        self.running.extend(
            started
                .iter()
                .map(|s| (now + walltimes[s.job.raw() as usize], s.alloc)),
        );
        self.cycles += 1;
        self.holds += sa.last_holds().len();
        Ok(())
    }

    fn finish(&mut self, alloc: AllocationId, at: SimTime) {
        for (cluster, sched) in self.clusters.iter_mut().zip(&mut self.scheds) {
            cluster.release(alloc, at).unwrap();
            sched.finished(alloc, at);
        }
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        let node_count = self.clusters[0].nodes().len() as u32;
        match op {
            Op::Submit(groups, walltime, user, qos_boost) => {
                let job = PendingJob {
                    id: JobId::new(self.next_id),
                    request: to_request(&groups),
                    walltime: SimDuration::from_secs(walltime),
                    submit: self.now,
                    user: USERS[user].to_string(),
                    qos_boost,
                };
                self.next_id += 1;
                self.walltimes.push(job.walltime);
                let [ca, cb] = &self.clusters;
                let [sa, sb] = &mut self.scheds;
                let accepted = sa.submit(job.clone(), ca);
                prop_assert_eq!(accepted, sb.submit(job, cb));
            }
            Op::Advance(secs) => {
                self.now += SimDuration::from_secs(secs);
                self.running.sort();
                let due = self.running.partition_point(|(end, _)| *end <= self.now);
                for (end, alloc) in self.running.drain(..due).collect::<Vec<_>>() {
                    self.finish(alloc, end);
                }
            }
            Op::Finish(idx) => {
                if !self.running.is_empty() {
                    let (_, alloc) = self.running.remove(idx % self.running.len());
                    self.finish(alloc, self.now);
                }
            }
            Op::Fail(node) => {
                for cluster in &mut self.clusters {
                    cluster.fail_node(NodeId::new(node % node_count)).unwrap();
                }
            }
            Op::Restore(node) => {
                for cluster in &mut self.clusters {
                    cluster
                        .restore_node(NodeId::new(node % node_count))
                        .unwrap();
                }
            }
        }
        Ok(())
    }
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
            let mut run = Lockstep::new(shape, spec);
            for op in ops.iter().cloned() {
                run.apply(op)?;
                run.cycle(spec)?;
            }
        }
    }
}

/// A fixed QPU-contended scenario with a failed node stays in lockstep
/// under every policy while holding many jobs, so the comparison above
/// is known to reach held queues and not only empty ones.
#[test]
fn lockstep_cases_hold_jobs() {
    let ops: Vec<Op> = (0..40)
        .map(|i| match i % 5 {
            0 | 1 => Op::Submit(vec![(0, 3, vec![]), (1, 0, vec![(0, 1)])], 600, i % 3, 0.0),
            2 => Op::Submit(vec![(0, 2, vec![])], 300, i % 3, 0.0),
            3 => Op::Advance(120),
            _ => Op::Finish(i),
        })
        .collect();
    for spec in all_policies() {
        let mut run = Lockstep::new((6, 1, 1, 0, 0), spec);
        run.apply(Op::Fail(0)).unwrap();
        for op in ops.iter().cloned() {
            run.apply(op).unwrap();
            run.cycle(spec).unwrap();
        }
        assert!(
            run.cycles >= 40 && run.holds > 40,
            "{spec}: {} holds",
            run.holds
        );
    }
}
