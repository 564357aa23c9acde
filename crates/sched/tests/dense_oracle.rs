//! Differential oracle for the dense resource rows. The string-keyed
//! `Demand`/`Profile` the scheduler used to plan with live on as a
//! test-only reference (`common/reference.rs`). Over generated clusters
//! (several partitions, node-less partitions, several gres pools per
//! partition, zero capacities, failed nodes) and generated requests
//! (gres-only groups, repeated partitions, zero counts, unknown
//! partitions and pools):
//!
//! * `Cluster::demand_row` accepts exactly the requests the reference
//!   finds grantable on an empty machine, with the same count in every
//!   slot, and rejects the rest with the right kind of shortfall;
//! * for every accepted request, the slot-wise live check
//!   (`ResourceIndex::shortfall` against `Cluster::free_row`) classifies
//!   exactly as `Cluster::shortfall` does the request, in every state;
//! * the flat `Profile` answers `build`, `free_at`, `fits`, `find_slot`
//!   and `reserve` exactly as the reference does, operation after
//!   operation.

#[path = "common/reference.rs"]
mod reference;

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::error::Shortfall;
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::NodeId;
use hpcqc_cluster::resources::ResourceRow;
use hpcqc_sched::Profile;
use hpcqc_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Gres kinds a pool or request may name; a partition pools each kind
/// whose bit is set in its mask.
const KINDS: [&str; 4] = ["qpu", "fpga", "gpu", "tpu"];

/// One partition: `(nodes, pool mask, [capacity per kind])`.
type PartSpec = (u32, u32, (u32, u32, u32, u32));

/// One group: `(partition index, nodes, [(kind index, count)])`; an index
/// past the cluster's partitions names a partition that does not exist.
type GroupSpec = (usize, u32, Vec<(usize, u32)>);

fn partition() -> impl Strategy<Value = PartSpec> {
    (
        prop_oneof![Just(0u32), 1u32..5, 1u32..5],
        0u32..16,
        (0u32..3, 0u32..3, 0u32..3, 0u32..3),
    )
}

fn group() -> impl Strategy<Value = GroupSpec> {
    (
        0usize..5,
        prop_oneof![Just(0u32), 1u32..4],
        prop::collection::vec(
            (0usize..KINDS.len(), prop_oneof![Just(0u32), 1u32..3]),
            0..3,
        ),
    )
}

fn request() -> impl Strategy<Value = Vec<GroupSpec>> {
    prop::collection::vec(group(), 0..4)
}

/// A request as generated, or (two times in three) reshaped to the
/// cluster so that it is mostly grantable someday.
fn probe() -> impl Strategy<Value = (bool, Vec<GroupSpec>)> {
    ((0u32..3).prop_map(|n| n > 0), request())
}

fn name(part: usize) -> String {
    format!("p{part}")
}

fn build(parts: &[PartSpec]) -> Cluster {
    let mut builder = ClusterBuilder::new();
    for (i, (nodes, mask, (a, b, c, d))) in parts.iter().enumerate() {
        builder = builder.partition(name(i), *nodes);
        for (k, cap) in [a, b, c, d].into_iter().enumerate() {
            if mask & (1 << k) != 0 {
                builder = builder.gres(GresKind::new(KINDS[k]), *cap);
            }
        }
    }
    builder.build(SimTime::ZERO)
}

fn to_request(parts: usize, groups: &[GroupSpec]) -> AllocRequest {
    groups
        .iter()
        .fold(AllocRequest::new(), |req, (part, nodes, gres)| {
            let partition = if *part < parts {
                name(*part)
            } else {
                "nowhere".to_string()
            };
            let group = gres
                .iter()
                .fold(GroupRequest::nodes(partition, *nodes), |g, (kind, n)| {
                    g.with_gres(GresKind::new(KINDS[*kind]), *n)
                });
            req.group(group)
        })
}

/// `groups` reshaped to the cluster: only its partitions, only the kinds
/// each pools, no count above the partition's nodes or the pool's units.
fn reshape(parts: &[PartSpec], groups: &[GroupSpec]) -> Vec<GroupSpec> {
    groups
        .iter()
        .map(|(part, nodes, gres)| {
            let part = part % parts.len();
            let (node_count, mask, (a, b, c, d)) = parts[part];
            let caps = [a, b, c, d];
            let gres = gres
                .iter()
                .filter(|(kind, _)| mask & (1 << kind) != 0)
                .map(|(kind, n)| (*kind, (*n).min(caps[*kind])))
                .collect();
            (part, (*nodes).min(node_count), gres)
        })
        .collect()
}

fn to_probes(parts: &[PartSpec], probes: &[(bool, Vec<GroupSpec>)]) -> Vec<AllocRequest> {
    probes
        .iter()
        .map(|(fit, groups)| {
            if *fit {
                to_request(parts.len(), &reshape(parts, groups))
            } else {
                to_request(parts.len(), groups)
            }
        })
        .collect()
}

/// Why the reference finds `request` never grantable, even on an empty
/// machine: the kind of shortfall, or `None` if it is grantable.
fn reference_capacity(cluster: &Cluster, request: &AllocRequest) -> Option<Shortfall> {
    if request.is_empty() {
        return Some(Shortfall::Invalid);
    }
    let mut missing_pool = false;
    for g in request.groups() {
        let Some(part) = cluster.partition(&g.partition) else {
            return Some(Shortfall::Invalid);
        };
        missing_pool |= g
            .gres
            .iter()
            .any(|(kind, _)| part.gres_pool(kind).is_none());
    }
    let demand = reference::Demand::of_request(request);
    let mut nodes_short = false;
    let mut gres_short = missing_pool;
    for (partition, kind) in demand.keys() {
        let part = cluster.partition(partition).expect("resolved above");
        match kind {
            None => nodes_short |= demand.nodes_in(partition) > part.node_count() as u32,
            Some(kind) => gres_short |= demand.gres_in(partition, kind) > part.gres_capacity(kind),
        }
    }
    if nodes_short {
        Some(Shortfall::Nodes {
            gres_also_short: false,
        })
    } else if gres_short {
        Some(Shortfall::Gres)
    } else {
        None
    }
}

/// `true` if the dense row and the reference demand agree on every slot,
/// and the reference names nothing outside the slots.
fn same(cluster: &Cluster, dense: &[u32], reference: &reference::Demand) -> bool {
    let slots_agree = cluster.partitions().iter().all(|part| {
        let nodes = cluster
            .node_slot(part.name())
            .is_none_or(|slot| dense[slot] == reference.nodes_in(part.name()));
        nodes
            && part.gres_pools().iter().all(|pool| {
                let slot = cluster.gres_slot(part.name(), pool.kind()).unwrap();
                dense[slot] == reference.gres_in(part.name(), pool.kind())
            })
    });
    let keys_known = reference.keys().all(|(partition, kind)| match kind {
        None => cluster.node_slot(partition).is_some(),
        Some(kind) => cluster.gres_slot(partition, kind).is_some(),
    });
    slots_agree && keys_known
}

/// Fails `fails` nodes (ids modulo the node count) and grants the
/// grantable `allocs` in order, so free capacity varies.
fn load(cluster: &mut Cluster, fails: &[u32], allocs: &[AllocRequest]) {
    let node_count = cluster.nodes().len() as u32;
    if node_count > 0 {
        for node in fails {
            cluster.fail_node(NodeId::new(node % node_count)).unwrap();
        }
    }
    for request in allocs {
        let _ = cluster.allocate(request, SimTime::ZERO);
    }
}

/// Checks every probe against the reference in the cluster's current
/// state; returns how many were accepted.
fn check_probes(cluster: &Cluster, probes: &[AllocRequest]) -> Result<usize, TestCaseError> {
    let free = cluster.free_row();
    prop_assert!(same(cluster, &free, &reference::Demand::free_of(cluster)));
    let mut accepted = 0;
    for request in probes {
        match cluster.demand_row(request) {
            Ok(row) => {
                accepted += 1;
                prop_assert_eq!(reference_capacity(cluster, request), None);
                prop_assert!(
                    same(cluster, &row, &reference::Demand::of_request(request)),
                    "row {:?} of {:?}",
                    row,
                    request
                );
                prop_assert_eq!(
                    cluster.resources().shortfall(&row, &free),
                    cluster.shortfall(request),
                    "live check of {:?}",
                    request
                );
            }
            Err(shortfall) => {
                let expected = reference_capacity(cluster, request);
                let kind = |s: Option<Shortfall>| {
                    s.map(|s| match s {
                        Shortfall::Nodes { .. } => "nodes",
                        Shortfall::Gres => "gres",
                        Shortfall::Invalid => "invalid",
                    })
                };
                prop_assert_eq!(kind(Some(shortfall)), kind(expected), "{:?}", request);
                prop_assert_eq!(Some(shortfall), cluster.capacity_shortfall(request));
            }
        }
    }
    Ok(accepted)
}

/// An instant for a profile operation: a segment boundary of the
/// reference profile, or one from 200 s before its start on.
fn instant(reference: &reference::Profile, (pick, secs, idx): (u32, u64, usize)) -> SimTime {
    let times = reference.times();
    if pick == 0 {
        times[idx % times.len()]
    } else {
        SimTime::from_secs(800 + secs)
    }
}

fn duration(secs: u64) -> SimDuration {
    if secs == 0 {
        SimDuration::ZERO
    } else if secs >= 5_000 {
        SimDuration::MAX
    } else {
        SimDuration::from_secs(secs)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `demand_row` and the slot-wise live check agree with the
    /// reference and with `Cluster::shortfall` in every state of an
    /// arbitrary allocate/release/fail/restore sequence.
    #[test]
    fn live_check_matches_cluster_shortfall(
        parts in prop::collection::vec(partition(), 1..5),
        probes in prop::collection::vec(probe(), 1..12),
        ops in prop::collection::vec((0u32..4, 0usize..16, 0u32..20), 0..16),
    ) {
        let mut cluster = build(&parts);
        let probes = to_probes(&parts, &probes);
        let node_count = cluster.nodes().len() as u32;
        let mut live = Vec::new();
        check_probes(&cluster, &probes)?;
        for (t, (op, idx, node)) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(t as u64);
            match op {
                0 => {
                    if let Ok(id) = cluster.allocate(&probes[idx % probes.len()], now) {
                        live.push(id);
                    }
                }
                1 if !live.is_empty() => {
                    let id = live.remove(idx % live.len());
                    cluster.release(id, now).unwrap();
                }
                2 if node_count > 0 => {
                    cluster.fail_node(NodeId::new(node % node_count)).unwrap();
                }
                3 if node_count > 0 => {
                    cluster.restore_node(NodeId::new(node % node_count)).unwrap();
                }
                _ => {}
            }
            check_probes(&cluster, &probes)?;
        }
    }

    /// The flat profile answers every query and carves every
    /// reservation exactly as the string-keyed reference does.
    #[test]
    fn dense_profile_matches_reference(
        parts in prop::collection::vec(partition(), 1..5),
        fails in prop::collection::vec(0u32..20, 0..3),
        probes in prop::collection::vec(probe(), 1..12),
        releases in prop::collection::vec((0usize..12, 0u64..3_000), 0..10),
        ops in prop::collection::vec(
            (
                0u32..4,
                0usize..12,
                (0u32..3, 0u64..4_000, 0usize..16),
                prop_oneof![Just(0u64), 1u64..3_000, 1u64..3_000, Just(5_000u64)],
            ),
            1..16,
        ),
    ) {
        let mut cluster = build(&parts);
        let probes = to_probes(&parts, &probes);
        let demands: Vec<(ResourceRow, reference::Demand)> = probes
            .iter()
            .filter_map(|r| Some((cluster.demand_row(r).ok()?, reference::Demand::of_request(r))))
            .collect();
        prop_assume!(!demands.is_empty());
        load(&mut cluster, &fails, &probes[..probes.len() / 2]);
        let now = SimTime::from_secs(1_000);
        // Releases 1000 s either side of `now`: past ones clamp to it.
        let releases: Vec<(SimTime, usize)> = releases
            .iter()
            .map(|(d, secs)| (SimTime::from_secs(*secs), d % demands.len()))
            .collect();
        let mut dense = Profile::build(
            now,
            &cluster.free_row(),
            releases.iter().map(|(t, d)| (*t, &demands[*d].0)),
        );
        let mut reference = reference::Profile::build(
            now,
            reference::Demand::free_of(&cluster),
            releases.iter().map(|(t, d)| (*t, &demands[*d].1)),
        );
        for (op, d, at, secs) in ops {
            prop_assert_eq!(dense.segments(), reference.segments());
            for t in reference.times().to_vec() {
                prop_assert!(same(&cluster, dense.free_at(t), reference.free_at(t)), "at {}", t);
            }
            let (row, demand) = &demands[d % demands.len()];
            let start = instant(&reference, at);
            let span = duration(secs);
            match op {
                0 => prop_assert_eq!(
                    dense.fits(row, start, span),
                    reference.fits(demand, start, span),
                    "fits {:?} at {} for {:?}", row, start, span
                ),
                1 | 2 => prop_assert_eq!(
                    dense.find_slot(row, span, start),
                    reference.find_slot(demand, span, start),
                    "find_slot {:?} from {} for {:?}", row, start, span
                ),
                _ => {
                    dense.reserve(row, start, span);
                    reference.reserve(demand, start, span);
                }
            }
        }
    }
}

/// The live check is exercised on held and fitting requests alike, and
/// the profile oracle reaches multi-segment profiles, so neither
/// property above passes vacuously.
#[test]
fn generators_reach_accepted_requests_and_deep_profiles() {
    let parts: Vec<PartSpec> = vec![(4, 0b0001, (2, 0, 0, 0)), (0, 0b0011, (1, 2, 0, 0))];
    let mut cluster = build(&parts);
    let probes: Vec<AllocRequest> = [
        vec![(0, 3, vec![])],
        vec![(0, 2, vec![(0, 1)]), (1, 0, vec![(1, 1)])],
        vec![(1, 0, vec![(0, 1), (1, 0)]), (1, 0, vec![(0, 0)])],
        vec![(0, 5, vec![])],
        vec![(2, 0, vec![])],
        vec![(1, 0, vec![(2, 0)])],
    ]
    .iter()
    .map(|groups| to_request(parts.len(), groups))
    .collect();
    assert_eq!(check_probes(&cluster, &probes).unwrap(), 3);
    load(&mut cluster, &[3], &probes[..2]);
    assert_eq!(check_probes(&cluster, &probes).unwrap(), 3);
    assert!(cluster.shortfall(&probes[0]).is_some(), "a held request");

    let row = cluster.demand_row(&probes[0]).unwrap();
    let gres_only = cluster.demand_row(&probes[2]).unwrap();
    let releases = [
        (SimTime::from_secs(10), &gres_only),
        (SimTime::from_secs(30), &row),
        (SimTime::from_secs(30), &row),
    ];
    let profile = Profile::build(SimTime::ZERO, &cluster.free_row(), releases);
    assert_eq!(profile.segments(), 3);
    assert_eq!(
        profile.find_slot(&row, SimDuration::from_secs(5), SimTime::ZERO),
        SimTime::from_secs(30)
    );
    // A zero duration from inside a segment needs that segment; from a
    // boundary, the boundary's own segment (the gres release at t=10
    // frees no node).
    assert_eq!(
        profile.find_slot(&row, SimDuration::ZERO, SimTime::from_secs(5)),
        SimTime::from_secs(30)
    );
}
