//! Dense resource rows: a cluster's partitions and gres pools interned to
//! integer slots once, when the cluster is built.
//!
//! A [`ResourceIndex`] gives one *slot* to every partition that has nodes,
//! then one to every `(partition, gres pool)`. A [`ResourceRow`] holds one
//! count per slot, and it is the one representation of both a request's
//! footprint ([`Cluster::demand_row`]) and free capacity
//! ([`Cluster::free_row`]). Checking a demand against capacity is then a
//! slot-wise integer compare, with no partition or gres name looked up.
//!
//! [`Cluster::demand_row`]: crate::Cluster::demand_row
//! [`Cluster::free_row`]: crate::Cluster::free_row

use crate::error::Shortfall;
use crate::gres::GresKind;
use crate::partition::Partition;
use std::ops::{Deref, DerefMut};

/// The slot layout of one cluster. Node slots come first, in partition
/// order; gres slots follow, in partition order and, within a partition,
/// in [`Partition::gres_pools`] order.
#[derive(Debug)]
pub struct ResourceIndex {
    /// The node slot of each partition (by partition id), if it has nodes.
    node_slot: Vec<Option<usize>>,
    /// The slot of each partition's first gres pool (by partition id).
    gres_base: Vec<usize>,
    /// The kind of each gres slot, from slot `node_slots` on.
    gres_kinds: Vec<GresKind>,
    node_slots: usize,
    /// Every node and every gres unit the machine has.
    total: ResourceRow,
}

impl ResourceIndex {
    pub(crate) fn new(partitions: &[Partition]) -> Self {
        let mut node_slot = Vec::with_capacity(partitions.len());
        let mut totals = Vec::new();
        for part in partitions {
            let count = part.node_count() as u32;
            node_slot.push((count > 0).then_some(totals.len()));
            if count > 0 {
                totals.push(count);
            }
        }
        let node_slots = totals.len();
        let mut gres_base = Vec::with_capacity(partitions.len());
        let mut gres_kinds = Vec::new();
        for part in partitions {
            gres_base.push(totals.len());
            for pool in part.gres_pools() {
                gres_kinds.push(pool.kind().clone());
                totals.push(pool.capacity());
            }
        }
        ResourceIndex {
            node_slot,
            gres_base,
            gres_kinds,
            node_slots,
            total: ResourceRow::from(totals),
        }
    }

    /// Number of slots: the width of every row of this cluster.
    pub fn width(&self) -> usize {
        self.total.len()
    }

    /// The total capacity row: every node in or out of service, every gres
    /// unit free or held.
    pub fn total(&self) -> &ResourceRow {
        &self.total
    }

    /// The node slot of the partition at index `partition`, if it has nodes.
    pub(crate) fn node_slot(&self, partition: usize) -> Option<usize> {
        self.node_slot.get(partition).copied().flatten()
    }

    /// The slot of pool number `pool` of the partition at index `partition`.
    pub(crate) fn gres_slot(&self, partition: usize, pool: usize) -> usize {
        self.gres_base[partition] + pool
    }

    /// The slots of every pool of `kind`, across partitions.
    pub fn gres_slots<'a>(&'a self, kind: &'a GresKind) -> impl Iterator<Item = usize> + 'a {
        self.gres_kinds
            .iter()
            .enumerate()
            .filter(move |(_, k)| *k == kind)
            .map(|(i, _)| self.node_slots + i)
    }

    /// Classifies `demand` against `free` as [`Cluster::shortfall`] does
    /// for any request [`Cluster::demand_row`] accepted: `None` if every
    /// slot fits, else [`Shortfall::Nodes`] if a node slot is short (with
    /// the gres tie-break set when a gres slot is short too), else
    /// [`Shortfall::Gres`].
    ///
    /// [`Cluster::shortfall`]: crate::Cluster::shortfall
    /// [`Cluster::demand_row`]: crate::Cluster::demand_row
    pub fn shortfall(&self, demand: &[u32], free: &[u32]) -> Option<Shortfall> {
        debug_assert_eq!(demand.len(), free.len(), "rows of one cluster");
        let short = |d: &[u32], f: &[u32]| d.iter().zip(f).any(|(d, f)| d > f);
        let (demand_nodes, demand_gres) = demand.split_at(self.node_slots);
        let (free_nodes, free_gres) = free.split_at(self.node_slots);
        let gres_short = short(demand_gres, free_gres);
        if short(demand_nodes, free_nodes) {
            Some(Shortfall::Nodes {
                gres_also_short: gres_short,
            })
        } else if gres_short {
            Some(Shortfall::Gres)
        } else {
            None
        }
    }
}

/// One count per slot of a cluster's [`ResourceIndex`]: a demand, or free
/// capacity. Dereferences to the slot counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRow(Box<[u32]>);

impl ResourceRow {
    /// The all-zero row of `width` slots.
    pub fn zeros(width: usize) -> Self {
        ResourceRow(vec![0; width].into_boxed_slice())
    }

    /// `true` if every slot is zero (as a demand: asks for nothing).
    pub fn is_zero(&self) -> bool {
        self.iter().all(|n| *n == 0)
    }

    /// `true` if this demand fits `free` in every slot.
    pub fn fits_in(&self, free: &[u32]) -> bool {
        debug_assert_eq!(self.len(), free.len(), "rows of one cluster");
        self.iter().zip(free).all(|(d, f)| d <= f)
    }

    /// Adds this row into `row`, slot by slot.
    pub fn add_to(&self, row: &mut [u32]) {
        debug_assert_eq!(self.len(), row.len(), "rows of one cluster");
        for (r, d) in row.iter_mut().zip(self.iter()) {
            *r += d;
        }
    }

    /// Takes this row out of `row`, slot by slot, stopping at zero.
    pub fn take_from(&self, row: &mut [u32]) {
        debug_assert_eq!(self.len(), row.len(), "rows of one cluster");
        for (r, d) in row.iter_mut().zip(self.iter()) {
            *r = r.saturating_sub(*d);
        }
    }
}

impl From<Vec<u32>> for ResourceRow {
    fn from(counts: Vec<u32>) -> Self {
        ResourceRow(counts.into_boxed_slice())
    }
}

impl Deref for ResourceRow {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.0
    }
}

impl DerefMut for ResourceRow {
    fn deref_mut(&mut self) -> &mut [u32] {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, PartitionId};

    fn partitions() -> Vec<Partition> {
        let node = |i| NodeId::new(i);
        vec![
            Partition::new(PartitionId::new(0), "classical", vec![node(0), node(1)]),
            Partition::new(PartitionId::new(1), "quantum", vec![])
                .with_gres(GresKind::qpu(), 2)
                .with_gres(GresKind::new("fpga"), 1),
            Partition::new(PartitionId::new(2), "gpu", vec![node(2)]).with_gres(GresKind::qpu(), 1),
        ]
    }

    #[test]
    fn node_slots_first_then_pools_in_partition_order() {
        let index = ResourceIndex::new(&partitions());
        assert_eq!(index.width(), 5);
        assert_eq!(&index.total()[..], &[2, 1, 2, 1, 1]);
        assert_eq!(index.node_slot(0), Some(0));
        assert_eq!(index.node_slot(1), None, "a node-less partition");
        assert_eq!(index.node_slot(2), Some(1));
        assert_eq!(index.gres_slot(1, 1), 3);
        let qpu = GresKind::qpu();
        assert_eq!(index.gres_slots(&qpu).collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn shortfall_blames_nodes_first_and_breaks_ties_to_gres() {
        let index = ResourceIndex::new(&partitions());
        let free = [1, 1, 0, 1, 1];
        assert_eq!(index.shortfall(&[1, 1, 0, 1, 0], &free), None);
        assert_eq!(
            index.shortfall(&[2, 0, 0, 0, 0], &free),
            Some(Shortfall::Nodes {
                gres_also_short: false
            })
        );
        assert_eq!(
            index.shortfall(&[2, 0, 1, 0, 0], &free),
            Some(Shortfall::Nodes {
                gres_also_short: true
            })
        );
        assert_eq!(
            index.shortfall(&[0, 0, 1, 0, 0], &free),
            Some(Shortfall::Gres)
        );
    }

    #[test]
    fn row_arithmetic() {
        let demand = ResourceRow::from(vec![1, 0, 2]);
        let mut free = ResourceRow::from(vec![1, 5, 3]);
        assert!(demand.fits_in(&free));
        demand.take_from(&mut free);
        assert_eq!(&free[..], &[0, 5, 1]);
        assert!(!demand.fits_in(&free));
        demand.take_from(&mut free);
        assert_eq!(&free[..], &[0, 5, 0], "saturates at zero");
        demand.add_to(&mut free);
        assert_eq!(&free[..], &[1, 5, 2]);
        assert!(ResourceRow::zeros(3).is_zero() && !demand.is_zero());
    }
}
