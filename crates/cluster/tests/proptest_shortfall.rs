//! Property tests of the single-pass request classification: over
//! arbitrary cluster states and requests (empty ones, unknown partitions
//! and pools, zero-count gres entries, partitions repeated across
//! groups), `Cluster::can_allocate` returns exactly the error an
//! ordered-map reference computes, and `Cluster::shortfall` names the
//! same kind of failure, including the gres tie-break for node shortages.

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::error::{ClusterError, Shortfall};
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::{AllocationId, NodeId, PartitionId};
use hpcqc_simcore::time::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Partition names a request may name; the last one never exists.
const PARTITIONS: [&str; 4] = ["classical", "quantum", "gpu", "nowhere"];
/// Gres kinds a request may name; `tpu` is never pooled.
const KINDS: [&str; 4] = ["qpu", "fpga", "gpu", "tpu"];

/// `(classical nodes, quantum nodes, qpu units, fpga units, gpu nodes, gpu units)`;
/// a zero `fpga` count means the quantum partition has no fpga pool.
type Shape = (u32, u32, u32, u32, u32, u32);

/// One group: `(partition index, nodes, [(kind index, count)])`.
type GroupSpec = (usize, u32, Vec<(usize, u32)>);

#[derive(Debug, Clone)]
enum Op {
    Allocate(Vec<GroupSpec>),
    Release(usize),
    Fail(u32),
    Restore(u32),
}

fn shape() -> impl Strategy<Value = Shape> {
    (1u32..10, 0u32..3, 0u32..4, 0u32..3, 0u32..3, 0u32..3)
}

fn group() -> impl Strategy<Value = GroupSpec> {
    (
        0usize..PARTITIONS.len(),
        prop_oneof![Just(0u32), 0u32..7],
        prop::collection::vec((0usize..KINDS.len(), 0u32..3), 0..3),
    )
}

fn request() -> impl Strategy<Value = Vec<GroupSpec>> {
    prop::collection::vec(group(), 0..4)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        request().prop_map(Op::Allocate),
        (0usize..8).prop_map(Op::Release),
        (0u32..20).prop_map(Op::Fail),
        (0u32..20).prop_map(Op::Restore),
    ]
}

fn build(shape: Shape) -> Cluster {
    let (classical, quantum, qpus, fpga, gpu_nodes, gpus) = shape;
    let mut builder = ClusterBuilder::new()
        .partition("classical", classical)
        .partition_with_gres("quantum", quantum, GresKind::qpu(), qpus);
    if fpga > 0 {
        builder = builder.gres(GresKind::new("fpga"), fpga);
    }
    builder
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

/// The ordered-map accumulation `can_allocate` used before the single
/// pass: empty request, then partitions resolved in group order, then
/// node needs by partition id, then gres needs by `(partition id, kind)`.
fn reference_can_allocate(cluster: &Cluster, request: &AllocRequest) -> Result<(), ClusterError> {
    if request.is_empty() {
        return Err(ClusterError::EmptyRequest);
    }
    let mut node_need: BTreeMap<PartitionId, u32> = BTreeMap::new();
    let mut gres_need: BTreeMap<(PartitionId, GresKind), u32> = BTreeMap::new();
    for g in request.groups() {
        let pid = cluster
            .partition(&g.partition)
            .ok_or_else(|| ClusterError::UnknownPartition(g.partition.clone()))?
            .id();
        *node_need.entry(pid).or_default() += g.nodes;
        for (kind, n) in &g.gres {
            *gres_need.entry((pid, kind.clone())).or_default() += n;
        }
    }
    let part = |pid: &PartitionId| &cluster.partitions()[pid.raw() as usize];
    for (pid, need) in &node_need {
        let have = cluster.free_nodes(part(pid).name()).unwrap();
        if have < *need {
            return Err(ClusterError::InsufficientNodes {
                partition: part(pid).name().to_string(),
                requested: *need,
                available: have,
            });
        }
    }
    for ((pid, kind), need) in &gres_need {
        let pool = part(pid)
            .gres_pool(kind)
            .ok_or_else(|| ClusterError::NoSuchGres {
                partition: part(pid).name().to_string(),
                kind: kind.clone(),
            })?;
        if pool.available() < *need {
            return Err(ClusterError::InsufficientGres {
                partition: part(pid).name().to_string(),
                kind: kind.clone(),
                requested: *need,
                available: pool.available(),
            });
        }
    }
    Ok(())
}

/// The gres tie-break as a residue request: every group asking for at
/// least one gres unit, with its node demand dropped, still fails.
fn residue_blocked(cluster: &Cluster, request: &AllocRequest) -> bool {
    let residue = request
        .groups()
        .iter()
        .filter(|g| g.gres.iter().any(|(_, n)| *n > 0))
        .fold(AllocRequest::new(), |req, g| {
            req.group(GroupRequest {
                partition: g.partition.clone(),
                nodes: 0,
                gres: g.gres.clone(),
            })
        });
    !residue.is_empty() && reference_can_allocate(cluster, &residue).is_err()
}

fn check(cluster: &Cluster, request: &AllocRequest) -> Result<(), TestCaseError> {
    let expected = reference_can_allocate(cluster, request);
    prop_assert_eq!(
        cluster.can_allocate(request),
        expected.clone(),
        "can_allocate drifted from the reference for {:?}",
        request
    );
    let shortfall = cluster.shortfall(request);
    prop_assert_eq!(shortfall.is_none(), expected.is_ok());
    match (shortfall, expected) {
        (None, Ok(())) => {}
        (
            Some(Shortfall::Nodes { gres_also_short }),
            Err(ClusterError::InsufficientNodes { .. }),
        ) => {
            prop_assert_eq!(
                gres_also_short,
                residue_blocked(cluster, request),
                "gres tie-break drifted for {:?}",
                request
            );
        }
        (
            Some(Shortfall::Gres),
            Err(ClusterError::InsufficientGres { .. } | ClusterError::NoSuchGres { .. }),
        ) => {}
        (
            Some(Shortfall::Invalid),
            Err(ClusterError::EmptyRequest | ClusterError::UnknownPartition(_)),
        ) => {}
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "shortfall {got:?} does not match {want:?} for {request:?}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every operation of an arbitrary allocate/release/fail/restore
    /// sequence, every probe request classifies as the reference does.
    #[test]
    fn shortfall_matches_can_allocate(
        shape in shape(),
        ops in prop::collection::vec(op(), 0..24),
        probes in prop::collection::vec(request(), 1..12),
    ) {
        let mut cluster = build(shape);
        let mut live: Vec<AllocationId> = Vec::new();
        let node_count = cluster.nodes().len() as u32;
        let probes: Vec<AllocRequest> = probes.iter().map(|p| to_request(p)).collect();
        for p in &probes {
            check(&cluster, p)?;
        }
        for (t, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(t as u64);
            match op {
                Op::Allocate(groups) => {
                    let request = to_request(&groups);
                    check(&cluster, &request)?;
                    if let Ok(id) = cluster.allocate(&request, now) {
                        live.push(id);
                    }
                }
                Op::Release(idx) => {
                    if !live.is_empty() {
                        let id = live.remove(idx % live.len());
                        cluster.release(id, now).unwrap();
                    }
                }
                Op::Fail(node) => {
                    cluster.fail_node(NodeId::new(node % node_count)).unwrap();
                }
                Op::Restore(node) => {
                    cluster.restore_node(NodeId::new(node % node_count)).unwrap();
                }
            }
            for p in &probes {
                check(&cluster, p)?;
            }
        }
    }
}

#[test]
fn tie_break_names_gres_only_for_gres_bearing_groups() {
    let mut cluster = build((2, 0, 1, 0, 0, 0));
    let hog = to_request(&[(0, 2, vec![]), (1, 0, vec![(0, 1)])]);
    cluster.allocate(&hog, SimTime::ZERO).unwrap();
    // Nodes and the QPU are both exhausted: the QPU takes the blame.
    let hybrid = to_request(&[(0, 1, vec![]), (1, 0, vec![(0, 1)])]);
    assert_eq!(
        cluster.shortfall(&hybrid),
        Some(Shortfall::Nodes {
            gres_also_short: true
        })
    );
    // A missing pool named only at zero count by a group that asks for
    // no gres at all does not take the blame from the nodes.
    let zero = to_request(&[(0, 1, vec![]), (2, 0, vec![(3, 0)])]);
    assert_eq!(
        cluster.shortfall(&zero),
        Some(Shortfall::Nodes {
            gres_also_short: false
        })
    );
    assert!(matches!(
        cluster.can_allocate(&zero),
        Err(ClusterError::InsufficientNodes { .. })
    ));
    // The same missing pool in a gres-bearing group does.
    let bearing = to_request(&[(0, 1, vec![]), (1, 0, vec![(0, 0), (3, 0), (1, 0)])]);
    let bearing = bearing.group(GroupRequest::gres("gpu", GresKind::new("gpu"), 0));
    assert_eq!(
        cluster.shortfall(&bearing),
        Some(Shortfall::Nodes {
            gres_also_short: false
        }),
        "zero-count entries alone do not make a group gres-bearing"
    );
    let bearing = to_request(&[(0, 1, vec![]), (2, 0, vec![(2, 1), (3, 0)])]);
    assert_eq!(
        cluster.shortfall(&bearing),
        Some(Shortfall::Nodes {
            gres_also_short: true
        })
    );
    assert_eq!(
        cluster.shortfall(&AllocRequest::new()),
        Some(Shortfall::Invalid)
    );
    assert_eq!(
        cluster.shortfall(&to_request(&[(3, 1, vec![])])),
        Some(Shortfall::Invalid)
    );
}

#[test]
fn capacity_shortfall_ignores_load_but_not_shape() {
    // Two classical nodes, one QPU, no fpga pool.
    let mut cluster = build((2, 1, 1, 0, 0, 0));
    let whole = to_request(&[(0, 2, vec![]), (1, 1, vec![(0, 1)])]);
    cluster.allocate(&whole, SimTime::ZERO).unwrap();
    cluster.fail_node(NodeId::new(0)).unwrap();
    // Nothing is free, yet the whole machine is still grantable someday.
    assert!(cluster.shortfall(&whole).is_some());
    assert_eq!(cluster.capacity_shortfall(&whole), None);
    assert_eq!(
        cluster.capacity_shortfall(&to_request(&[(0, 3, vec![])])),
        Some(Shortfall::Nodes {
            gres_also_short: false
        })
    );
    assert_eq!(
        cluster.capacity_shortfall(&to_request(&[(1, 0, vec![(0, 1)]), (1, 0, vec![(0, 1)])])),
        Some(Shortfall::Gres),
        "demands on one pool accumulate across groups"
    );
    // Shapes no capacity ever grants, whatever their counts.
    assert_eq!(
        cluster.capacity_shortfall(&AllocRequest::new()),
        Some(Shortfall::Invalid)
    );
    assert_eq!(
        cluster.capacity_shortfall(&to_request(&[(0, 1, vec![]), (3, 0, vec![])])),
        Some(Shortfall::Invalid)
    );
    assert_eq!(
        cluster.capacity_shortfall(&to_request(&[(1, 1, vec![(1, 0)])])),
        Some(Shortfall::Gres),
        "a zero-count gres on a pool the partition lacks"
    );
}
