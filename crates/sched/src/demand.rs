//! Resource demand vectors and the free-capacity timeline ([`Profile`])
//! that backfilling plans against.
//!
//! A [`Demand`] is the flattened resource footprint of an allocation
//! request: nodes per partition plus gres units per `(partition, kind)`.
//! A [`Profile`] is a piecewise-constant map `time → free Demand`,
//! constructed from the cluster's current free capacity plus the expected
//! release times of running jobs; reservations carve capacity out of it.

use hpcqc_cluster::alloc::AllocRequest;
use hpcqc_cluster::cluster::Cluster;
use hpcqc_cluster::gres::GresKind;
use hpcqc_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A flattened resource footprint.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Demand {
    nodes: BTreeMap<String, u32>,
    gres: BTreeMap<(String, GresKind), u32>,
}

impl Demand {
    /// The empty demand.
    pub fn new() -> Self {
        Demand::default()
    }

    /// Builds the footprint of an allocation request.
    pub fn of_request(request: &AllocRequest) -> Self {
        let mut d = Demand::new();
        for g in request.groups() {
            if g.nodes > 0 {
                *d.nodes.entry(g.partition.clone()).or_default() += g.nodes;
            }
            for (kind, n) in &g.gres {
                if *n > 0 {
                    *d.gres
                        .entry((g.partition.clone(), kind.clone()))
                        .or_default() += n;
                }
            }
        }
        d
    }

    /// The currently free capacity of a cluster, as a demand vector.
    pub fn free_of(cluster: &Cluster) -> Self {
        let mut d = Demand::new();
        for part in cluster.partitions() {
            // The partition name came from this cluster's own iterator, so
            // the lookup cannot miss; degrade to 0 free rather than panic.
            let free = cluster.free_nodes(part.name()).unwrap_or(0);
            if part.node_count() > 0 {
                d.nodes.insert(part.name().to_string(), free);
            }
            for pool in part.gres_pools() {
                d.gres.insert(
                    (part.name().to_string(), pool.kind().clone()),
                    pool.available(),
                );
            }
        }
        d
    }

    /// Node demand on a partition.
    pub fn nodes_in(&self, partition: &str) -> u32 {
        self.nodes.get(partition).copied().unwrap_or(0)
    }

    /// Gres demand on a `(partition, kind)`.
    pub fn gres_in(&self, partition: &str, kind: &GresKind) -> u32 {
        self.gres
            .get(&(partition.to_string(), kind.clone()))
            .copied()
            .unwrap_or(0)
    }

    /// `true` if this demand asks for nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes.values().all(|n| *n == 0) && self.gres.values().all(|n| *n == 0)
    }

    /// Component-wise: does `self` (a free vector) cover `other` (a demand)?
    pub fn covers(&self, other: &Demand) -> bool {
        other
            .nodes
            .iter()
            .all(|(k, need)| self.nodes.get(k).copied().unwrap_or(0) >= *need)
            && other
                .gres
                .iter()
                .all(|(k, need)| self.gres.get(k).copied().unwrap_or(0) >= *need)
    }

    /// Component-wise saturating subtraction (`self -= other`).
    pub fn subtract(&mut self, other: &Demand) {
        for (k, v) in &other.nodes {
            let e = self.nodes.entry(k.clone()).or_default();
            *e = e.saturating_sub(*v);
        }
        for (k, v) in &other.gres {
            let e = self.gres.entry(k.clone()).or_default();
            *e = e.saturating_sub(*v);
        }
    }

    /// Component-wise addition (`self += other`).
    pub fn add(&mut self, other: &Demand) {
        for (k, v) in &other.nodes {
            *self.nodes.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.gres {
            *self.gres.entry(k.clone()).or_default() += v;
        }
    }
}

/// A piecewise-constant timeline of free capacity.
///
/// Segment `i` spans `[times[i], times[i+1])` with free capacity `free[i]`;
/// the last segment extends to the far horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    times: Vec<SimTime>,
    free: Vec<Demand>,
}

impl Profile {
    /// Builds the availability profile seen at `now`: current free capacity
    /// plus the capacity each running job returns at its expected end.
    ///
    /// `releases` pairs each expected release instant with the demand it
    /// frees; instants in the past are clamped to `now` (an overrunning job
    /// is optimistically assumed to finish imminently — re-planning happens
    /// on every completion event anyway, and real starts always re-validate
    /// against the live cluster).
    pub fn build<'a>(
        now: SimTime,
        mut current_free: Demand,
        releases: impl IntoIterator<Item = (SimTime, &'a Demand)>,
    ) -> Self {
        let mut events: Vec<(SimTime, &Demand)> =
            releases.into_iter().map(|(t, d)| (t.max(now), d)).collect();
        events.sort_by_key(|(t, _)| *t);
        let mut times = vec![now];
        let mut free = vec![current_free.clone()];
        for (t, d) in events {
            current_free.add(d);
            if times.last() == Some(&t) {
                if let Some(slot) = free.last_mut() {
                    *slot = current_free.clone();
                }
            } else {
                times.push(t);
                free.push(current_free.clone());
            }
        }
        Profile { times, free }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.times.len()
    }

    /// The free capacity at instant `t`.
    pub fn free_at(&self, t: SimTime) -> &Demand {
        // Last segment whose start ≤ t; profile starts at `now` so earlier
        // queries clamp to the first segment.
        let idx = match self.times.binary_search(&t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        &self.free[idx]
    }

    /// `true` if `demand` fits everywhere in `[start, start + duration)`.
    pub fn fits(&self, demand: &Demand, start: SimTime, duration: SimDuration) -> bool {
        let end = start.saturating_add(duration);
        let mut idx = match self.times.binary_search(&start) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        while idx < self.times.len() {
            if self.times[idx] >= end {
                break;
            }
            let seg_end = self.times.get(idx + 1).copied().unwrap_or(SimTime::MAX);
            if seg_end > start && !self.free[idx].covers(demand) {
                return false;
            }
            idx += 1;
        }
        true
    }

    /// Earliest instant ≥ `from` at which `demand` fits for `duration`.
    ///
    /// Candidate starts are segment boundaries (capacity only ever changes
    /// there), so the search is exact. Returns [`SimTime::MAX`] if the
    /// demand can never fit (it exceeds total capacity).
    pub fn find_slot(&self, demand: &Demand, duration: SimDuration, from: SimTime) -> SimTime {
        if demand.is_empty() {
            return from;
        }
        if self.fits(demand, from, duration) {
            return from;
        }
        for (i, t) in self.times.iter().enumerate() {
            if *t <= from {
                continue;
            }
            if self.free[i].covers(demand) && self.fits(demand, *t, duration) {
                return *t;
            }
        }
        SimTime::MAX
    }

    /// Carves `demand` out of the profile over `[start, start + duration)`,
    /// splitting segments at the boundaries as needed.
    pub fn reserve(&mut self, demand: &Demand, start: SimTime, duration: SimDuration) {
        let end = start.saturating_add(duration);
        self.split_at(start);
        if end < SimTime::MAX {
            self.split_at(end);
        }
        for i in 0..self.times.len() {
            let seg_start = self.times[i];
            if seg_start >= end {
                break;
            }
            let seg_end = self.times.get(i + 1).copied().unwrap_or(SimTime::MAX);
            if seg_end <= start {
                continue;
            }
            self.free[i].subtract(demand);
        }
    }

    fn split_at(&mut self, t: SimTime) {
        match self.times.binary_search(&t) {
            Ok(_) => {}
            Err(0) => {} // before profile start: nothing to split
            Err(i) => {
                self.times.insert(i, t);
                let prev = self.free[i - 1].clone();
                self.free.insert(i, prev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_cluster::alloc::GroupRequest;
    use hpcqc_cluster::cluster::ClusterBuilder;

    fn demand(nodes: u32) -> Demand {
        Demand::of_request(&AllocRequest::new().group(GroupRequest::nodes("classical", nodes)))
    }

    fn free(nodes: u32) -> Demand {
        demand(nodes)
    }

    #[test]
    fn demand_of_listing1() {
        let req = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 10))
            .group(GroupRequest::gres("quantum", GresKind::qpu(), 1));
        let d = Demand::of_request(&req);
        assert_eq!(d.nodes_in("classical"), 10);
        assert_eq!(d.gres_in("quantum", &GresKind::qpu()), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn covers_and_subtract() {
        let mut a = free(10);
        let b = demand(4);
        assert!(a.covers(&b));
        a.subtract(&b);
        assert_eq!(a.nodes_in("classical"), 6);
        assert!(!a.covers(&demand(7)));
        a.add(&b);
        assert_eq!(a.nodes_in("classical"), 10);
    }

    #[test]
    fn free_of_cluster_reflects_state() {
        let mut c = ClusterBuilder::new()
            .partition("classical", 8)
            .partition_with_gres("quantum", 1, GresKind::qpu(), 2)
            .build(SimTime::ZERO);
        let d = Demand::free_of(&c);
        assert_eq!(d.nodes_in("classical"), 8);
        assert_eq!(d.gres_in("quantum", &GresKind::qpu()), 2);
        c.allocate(
            &AllocRequest::new().group(GroupRequest::nodes("classical", 3)),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(Demand::free_of(&c).nodes_in("classical"), 5);
    }

    #[test]
    fn profile_releases_merge() {
        // free 2 now; 3 more at t=10; 5 more at t=20.
        let p = Profile::build(
            SimTime::ZERO,
            free(2),
            [
                (SimTime::from_secs(10), &free(3)),
                (SimTime::from_secs(20), &free(5)),
            ],
        );
        assert_eq!(p.segments(), 3);
        assert_eq!(p.free_at(SimTime::from_secs(5)).nodes_in("classical"), 2);
        assert_eq!(p.free_at(SimTime::from_secs(10)).nodes_in("classical"), 5);
        assert_eq!(p.free_at(SimTime::from_secs(25)).nodes_in("classical"), 10);
    }

    #[test]
    fn find_slot_waits_for_release() {
        let p = Profile::build(SimTime::ZERO, free(2), [(SimTime::from_secs(30), &free(4))]);
        // 4 nodes fit only after the release at t=30.
        assert_eq!(
            p.find_slot(&demand(4), SimDuration::from_secs(100), SimTime::ZERO),
            SimTime::from_secs(30)
        );
        // 2 nodes fit immediately.
        assert_eq!(
            p.find_slot(&demand(2), SimDuration::from_secs(100), SimTime::ZERO),
            SimTime::ZERO
        );
        // 7 nodes never fit.
        assert_eq!(
            p.find_slot(&demand(7), SimDuration::from_secs(1), SimTime::ZERO),
            SimTime::MAX
        );
    }

    #[test]
    fn reservation_blocks_slot() {
        let mut p = Profile::build(SimTime::ZERO, free(4), []);
        p.reserve(
            &demand(3),
            SimTime::from_secs(50),
            SimDuration::from_secs(100),
        );
        // A 2-node job for 40 s fits before the reservation...
        assert_eq!(
            p.find_slot(&demand(2), SimDuration::from_secs(40), SimTime::ZERO),
            SimTime::ZERO
        );
        // ... but a 2-node job for 60 s would overlap it, so it must wait
        // for the reservation to end at t=150.
        assert_eq!(
            p.find_slot(&demand(2), SimDuration::from_secs(60), SimTime::ZERO),
            SimTime::from_secs(150)
        );
    }

    #[test]
    fn fits_checks_whole_span() {
        let p = Profile::build(SimTime::ZERO, free(4), []);
        let mut p2 = p.clone();
        p2.reserve(
            &demand(4),
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
        );
        assert!(p2.fits(&demand(1), SimTime::ZERO, SimDuration::from_secs(10)));
        assert!(!p2.fits(&demand(1), SimTime::ZERO, SimDuration::from_secs(11)));
        assert!(p2.fits(
            &demand(1),
            SimTime::from_secs(20),
            SimDuration::from_secs(1_000)
        ));
    }

    #[test]
    fn past_releases_clamped_to_now() {
        let now = SimTime::from_secs(100);
        let p = Profile::build(now, free(1), [(SimTime::from_secs(50), &free(9))]);
        assert_eq!(p.free_at(now).nodes_in("classical"), 10);
    }

    #[test]
    fn empty_demand_fits_anywhere() {
        let p = Profile::build(SimTime::ZERO, free(0), []);
        assert_eq!(
            p.find_slot(
                &Demand::new(),
                SimDuration::from_hours(1),
                SimTime::from_secs(5)
            ),
            SimTime::from_secs(5)
        );
    }
}
