//! The string-keyed demand maths the scheduler planned with before dense
//! resource rows, kept as a slow, obviously correct reference: a
//! [`Demand`] is a map from partition name to nodes plus a map from
//! `(partition, gres kind)` to units, and a [`Profile`] holds one cloned
//! `Demand` per segment.

use hpcqc_cluster::alloc::AllocRequest;
use hpcqc_cluster::cluster::Cluster;
use hpcqc_cluster::gres::GresKind;
use hpcqc_simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A flattened resource footprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Demand {
    nodes: BTreeMap<String, u32>,
    gres: BTreeMap<(String, GresKind), u32>,
}

impl Demand {
    /// The footprint of an allocation request.
    pub fn of_request(request: &AllocRequest) -> Self {
        let mut d = Demand::default();
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

    /// The currently free capacity of a cluster.
    pub fn free_of(cluster: &Cluster) -> Self {
        let mut d = Demand::default();
        for part in cluster.partitions() {
            if part.node_count() > 0 {
                let free = cluster.free_nodes(part.name()).unwrap();
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

    /// Every key this demand names, as `(partition, kind)` with `None`
    /// for the node count.
    pub fn keys(&self) -> impl Iterator<Item = (&str, Option<&GresKind>)> {
        self.nodes
            .keys()
            .map(|p| (p.as_str(), None))
            .chain(self.gres.keys().map(|(p, k)| (p.as_str(), Some(k))))
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.values().all(|n| *n == 0) && self.gres.values().all(|n| *n == 0)
    }

    /// Component-wise: does `self` (a free vector) cover `other`?
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

    /// Component-wise saturating subtraction.
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

    /// Component-wise addition.
    pub fn add(&mut self, other: &Demand) {
        for (k, v) in &other.nodes {
            *self.nodes.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.gres {
            *self.gres.entry(k.clone()).or_default() += v;
        }
    }
}

/// A piecewise-constant timeline of free capacity: segment `i` spans
/// `[times[i], times[i+1])` with free capacity `free[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    times: Vec<SimTime>,
    free: Vec<Demand>,
}

impl Profile {
    /// Current free capacity plus each release, clamped to `now`.
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

    pub fn segments(&self) -> usize {
        self.times.len()
    }

    /// The segment start instants.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    pub fn free_at(&self, t: SimTime) -> &Demand {
        let idx = match self.times.binary_search(&t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        &self.free[idx]
    }

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

    /// Tries `from`, then every later segment boundary, in order.
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
            Err(0) => {}
            Err(i) => {
                self.times.insert(i, t);
                let prev = self.free[i - 1].clone();
                self.free.insert(i, prev);
            }
        }
    }
}
