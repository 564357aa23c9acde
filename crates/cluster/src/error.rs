//! Error types for cluster operations.

use crate::gres::GresKind;
use crate::ids::{AllocationId, NodeId};
use std::error::Error;
use std::fmt;

/// Why a cluster operation could not be carried out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No partition with the given name exists.
    UnknownPartition(String),
    /// Not enough schedulable free nodes in the partition.
    InsufficientNodes {
        /// Partition name.
        partition: String,
        /// Nodes requested.
        requested: u32,
        /// Schedulable free nodes available.
        available: u32,
    },
    /// Not enough free gres units of the kind in the partition.
    InsufficientGres {
        /// Partition name.
        partition: String,
        /// Resource kind requested.
        kind: GresKind,
        /// Units requested.
        requested: u32,
        /// Units available.
        available: u32,
    },
    /// The partition has no pool of the requested gres kind at all.
    NoSuchGres {
        /// Partition name.
        partition: String,
        /// Resource kind requested.
        kind: GresKind,
    },
    /// The allocation id is unknown (already released or never issued).
    UnknownAllocation(AllocationId),
    /// A shrink/expand touched more nodes than the allocation holds.
    InvalidResize {
        /// The allocation being resized.
        allocation: AllocationId,
        /// Human-readable reason.
        reason: String,
    },
    /// The node id is out of range for this cluster.
    UnknownNode(NodeId),
    /// A request asked for zero resources in every group.
    EmptyRequest,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownPartition(name) => write!(f, "unknown partition `{name}`"),
            ClusterError::InsufficientNodes {
                partition,
                requested,
                available,
            } => write!(
                f,
                "partition `{partition}` has {available} free nodes, {requested} requested"
            ),
            ClusterError::InsufficientGres {
                partition,
                kind,
                requested,
                available,
            } => write!(
                f,
                "partition `{partition}` has {available} free {kind} units, {requested} requested"
            ),
            ClusterError::NoSuchGres { partition, kind } => {
                write!(f, "partition `{partition}` has no gres of kind `{kind}`")
            }
            ClusterError::UnknownAllocation(id) => write!(f, "unknown allocation {id}"),
            ClusterError::InvalidResize { allocation, reason } => {
                write!(f, "invalid resize of {allocation}: {reason}")
            }
            ClusterError::UnknownNode(id) => write!(f, "unknown node {id}"),
            ClusterError::EmptyRequest => write!(f, "allocation request asks for no resources"),
        }
    }
}

impl Error for ClusterError {}

/// Why a request cannot be granted right now, as classified by
/// [`Cluster::shortfall`](crate::Cluster::shortfall): the kind of the
/// [`ClusterError`] that [`Cluster::can_allocate`](crate::Cluster::can_allocate)
/// would return, without its names and counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shortfall {
    /// Some partition has too few free schedulable nodes
    /// ([`ClusterError::InsufficientNodes`]); nodes are checked before
    /// any gres pool.
    Nodes {
        /// `true` if the gres is short as well: some pool named by a group
        /// that asks for at least one gres unit is missing or has too few
        /// free units for the request's accumulated demand.
        gres_also_short: bool,
    },
    /// Every partition has the nodes, but a gres pool is missing or short
    /// ([`ClusterError::NoSuchGres`] or [`ClusterError::InsufficientGres`]).
    Gres,
    /// The request can never be granted as written: it asks for nothing
    /// ([`ClusterError::EmptyRequest`]) or names an unknown partition
    /// ([`ClusterError::UnknownPartition`]).
    Invalid,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ClusterError::InsufficientNodes {
            partition: "classical".into(),
            requested: 10,
            available: 3,
        };
        assert_eq!(
            e.to_string(),
            "partition `classical` has 3 free nodes, 10 requested"
        );
        let e = ClusterError::NoSuchGres {
            partition: "classical".into(),
            kind: GresKind::qpu(),
        };
        assert!(e.to_string().contains("no gres of kind `qpu`"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ClusterError>();
    }
}
