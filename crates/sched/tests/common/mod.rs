//! Shared lockstep harness for the scheduler's differential tests: the
//! operation generators (queues, completions, walltime overruns, node
//! failures) and a lockstep runner for two schedulers on two identical
//! clusters through the same operations, comparing every cycle.

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::{AllocationId, NodeId};
use hpcqc_sched::{BatchScheduler, CycleProbe, PendingJob, PolicySpec};
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
pub type Shape = (u32, u32, u32, u32, u32);

/// One group: `(partition index, nodes, [(kind index, count)])`.
pub type GroupSpec = (usize, u32, Vec<(usize, u32)>);

#[derive(Debug, Clone)]
pub enum Op {
    /// Submit a job: groups, walltime (s), user index, QoS boost.
    Submit(Vec<GroupSpec>, u64, usize, f64),
    /// Advance the clock by this many seconds, finishing every job whose
    /// walltime ends by then.
    Advance(u64),
    /// Advance the clock by this many seconds and finish nothing: jobs
    /// past their walltime overrun, and the availability profile clamps
    /// their releases to the cycle instant.
    Overrun(u64),
    /// Finish the running job at this index (modulo the running count)
    /// before its walltime ends.
    Finish(usize),
    /// Fail the node with this id (modulo the node count).
    Fail(u32),
    /// Return the node with this id (modulo the node count) to service.
    Restore(u32),
}

pub fn shape() -> impl Strategy<Value = Shape> {
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

/// A group every generated cluster has the pools for: plain nodes on the
/// classical partition, the quantum node with qpu and fpga units, or gpu
/// nodes with gpu units.
fn well_formed_group() -> impl Strategy<Value = GroupSpec> {
    (
        0usize..3,
        0u32..6,
        prop::collection::vec((0usize..2, 0u32..3), 0..3),
    )
        .prop_map(|(part, nodes, gres)| match part {
            0 => (0, nodes.max(1), Vec::new()),
            1 => (1, nodes.min(1), gres),
            _ => (2, nodes, gres.into_iter().map(|(_, n)| (2, n)).collect()),
        })
}

fn submit() -> impl Strategy<Value = Op> {
    submit_of(group())
}

fn well_formed_submit() -> impl Strategy<Value = Op> {
    submit_of(well_formed_group())
}

fn submit_of(group: impl Strategy<Value = GroupSpec>) -> impl Strategy<Value = Op> {
    (
        prop::collection::vec(group, 1..4),
        60u64..7_200,
        0usize..USERS.len(),
        prop_oneof![Just(0.0f64), 0.0f64..50.0],
    )
        .prop_map(|(groups, walltime, user, boost)| Op::Submit(groups, walltime, user, boost))
}

/// Submissions come three times as often as any other operation, most
/// of them of requests the cluster can grant someday (the others are
/// rejected at submission), so queues grow deep enough for heads to
/// block and jobs to backfill.
pub fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        submit(),
        well_formed_submit(),
        well_formed_submit(),
        prop_oneof![Just(0u64), 1u64..4_000].prop_map(Op::Advance),
        (1u64..4_000).prop_map(Op::Overrun),
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

pub fn all_policies() -> [PolicySpec; 5] {
    [
        PolicySpec::fcfs(),
        PolicySpec::easy(),
        PolicySpec::conservative(),
        PolicySpec::priority_backfill(1.0),
        PolicySpec::quantum_aware(1_000.0),
    ]
}

/// Counts the availability profiles a scheduler builds.
#[derive(Debug, Default)]
pub struct BuildCounter {
    pub builds: u64,
}

impl CycleProbe for BuildCounter {
    fn profile_built(&mut self, _segments: usize) {
        self.builds += 1;
    }
}

/// Two clusters and two schedulers driven through the same operations.
pub struct Lockstep {
    clusters: [Cluster; 2],
    scheds: [BatchScheduler; 2],
    /// Profile builds per scheduler.
    pub probes: [BuildCounter; 2],
    /// Running jobs' allocations with their walltime ends.
    running: Vec<(SimTime, AllocationId)>,
    walltimes: Vec<SimDuration>,
    now: SimTime,
    next_id: u64,
    pub cycles: usize,
    pub holds: usize,
    /// Cycles that started more than one job.
    pub multi_start_cycles: usize,
}

impl Lockstep {
    pub fn new(shape: Shape, scheds: [BatchScheduler; 2]) -> Self {
        Lockstep {
            clusters: [build(shape), build(shape)],
            scheds,
            probes: Default::default(),
            running: Vec::new(),
            walltimes: Vec::new(),
            now: SimTime::ZERO,
            next_id: 0,
            cycles: 0,
            holds: 0,
            multi_start_cycles: 0,
        }
    }

    /// Runs one cycle on both schedulers; they must start the same jobs
    /// on the same allocations, record the same holds and leave the same
    /// queue order.
    pub fn cycle(&mut self, label: &str) -> Result<(), TestCaseError> {
        let [ca, cb] = &mut self.clusters;
        let [sa, sb] = &mut self.scheds;
        let [pa, pb] = &mut self.probes;
        let started = sa.try_schedule_probed(ca, self.now, pa);
        let expected = sb.try_schedule_probed(cb, self.now, pb);
        prop_assert_eq!(
            &started,
            &expected,
            "{} starts differ at {}",
            label,
            self.now
        );
        prop_assert_eq!(
            sa.last_holds(),
            sb.last_holds(),
            "{} holds differ at {}",
            label,
            self.now
        );
        let ids = |s: &BatchScheduler| s.pending().iter().map(|p| p.id).collect::<Vec<_>>();
        prop_assert_eq!(ids(sa), ids(sb), "{} queue order differs", label);
        let now = self.now;
        let walltimes = &self.walltimes;
        self.running.extend(
            started
                .iter()
                .map(|s| (now + walltimes[s.job.raw() as usize], s.alloc)),
        );
        self.cycles += 1;
        self.holds += sa.last_holds().len();
        self.multi_start_cycles += usize::from(started.len() > 1);
        Ok(())
    }

    fn finish(&mut self, alloc: AllocationId, at: SimTime) {
        for (cluster, sched) in self.clusters.iter_mut().zip(&mut self.scheds) {
            cluster.release(alloc, at).unwrap();
            sched.finished(alloc, at);
        }
    }

    pub fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
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
                let before = self.now;
                self.now += SimDuration::from_secs(secs);
                self.running.sort();
                let due = self.running.partition_point(|(end, _)| *end <= self.now);
                for (end, alloc) in self.running.drain(..due).collect::<Vec<_>>() {
                    // A job that overran finishes now, never in the past.
                    self.finish(alloc, end.max(before));
                }
            }
            Op::Overrun(secs) => self.now += SimDuration::from_secs(secs),
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
