//! Worker nodes (virtual machines) hosting function instances.
//!
//! The interference analysis in §II-B observes that commercial platforms pack
//! instances of the *same* function onto the same VM, so nodes track how many
//! pods of each function they currently host — that count drives the
//! [`crate::interference::InterferenceModel`].

use crate::error::SimError;
use crate::pod::{FunctionId, PodId};
use crate::resources::Millicores;
use crate::FixedState;
use crate::SimResult;
use serde::{Deserialize, Serialize};
// janus-lint: allow(nondeterminism) — per-node pod map for keyed lookup only; capacity math folds over values commutatively
use std::collections::hash_map::{Entry, HashMap};

/// Identifier of a worker node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// A worker node with a fixed CPU capacity hosting function pods.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    capacity: Millicores,
    allocated: Millicores,
    /// Allocation per pod currently placed here.
    pods: HashMap<PodId, PodPlacement, FixedState>,
    /// Number of pods per function (for co-location interference), indexed
    /// by [`FunctionId`]; grows the first time a function lands here.
    per_function: Vec<u32>,
}

/// Book-keeping for one pod placed on a node.
#[derive(Debug, Clone, PartialEq)]
struct PodPlacement {
    function: FunctionId,
    allocation: Millicores,
}

impl Node {
    /// Create a node with the given CPU capacity.
    pub fn new(id: NodeId, capacity: Millicores) -> Self {
        Node {
            id,
            capacity,
            allocated: Millicores::ZERO,
            pods: HashMap::default(),
            per_function: Vec::new(),
        }
    }

    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Total CPU capacity.
    pub fn capacity(&self) -> Millicores {
        self.capacity
    }

    /// Currently allocated CPU.
    pub fn allocated(&self) -> Millicores {
        self.allocated
    }

    /// Free CPU capacity.
    pub fn free(&self) -> Millicores {
        self.capacity.saturating_sub(self.allocated)
    }

    /// CPU utilisation in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity.get() == 0 {
            return 0.0;
        }
        f64::from(self.allocated.get()) / f64::from(self.capacity.get())
    }

    /// Number of pods hosted.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// Number of pods of `function` hosted (the co-location degree used by the
    /// interference model).
    pub fn colocated_count(&self, function: FunctionId) -> usize {
        self.per_function
            .get(function.index())
            .map_or(0, |count| *count as usize)
    }

    /// Whether the node can host an extra `allocation`.
    pub fn can_fit(&self, allocation: Millicores) -> bool {
        self.free() >= allocation
    }

    /// Place a pod of `function` with `allocation` CPU on this node.
    pub fn place(
        &mut self,
        pod: PodId,
        function: FunctionId,
        allocation: Millicores,
    ) -> SimResult<()> {
        if !self.can_fit(allocation) {
            return Err(SimError::InsufficientCapacity {
                requested: allocation,
                available: self.free(),
            });
        }
        self.place_overcommitted(pod, function, allocation)
    }

    /// [`place`](Self::place) without the capacity check: the overload path.
    /// A saturated cluster still has to run the pod *somewhere*, and an
    /// overcommitted node contends — `allocated` may exceed `capacity` and
    /// the co-location count keeps growing, which is what drives the
    /// interference model during overload.
    pub fn place_overcommitted(
        &mut self,
        pod: PodId,
        function: FunctionId,
        allocation: Millicores,
    ) -> SimResult<()> {
        match self.pods.entry(pod) {
            Entry::Occupied(_) => return Err(already_placed(pod, self.id)),
            Entry::Vacant(slot) => {
                slot.insert(PodPlacement {
                    function,
                    allocation,
                });
            }
        }
        self.allocated += allocation;
        *function.slot(&mut self.per_function) += 1;
        Ok(())
    }

    /// Remove a pod and release its allocation. Returns the function the
    /// pod ran and the allocation released.
    pub fn evict(&mut self, pod: PodId) -> SimResult<(FunctionId, Millicores)> {
        let placement = self
            .pods
            .remove(&pod)
            .ok_or_else(|| not_hosted(pod, self.id))?;
        self.allocated = self.allocated.saturating_sub(placement.allocation);
        // Every hosted pod counted itself in on placement.
        if let Some(count) = self.per_function.get_mut(placement.function.index()) {
            *count -= 1;
        }
        Ok((placement.function, placement.allocation))
    }

    /// Change the CPU allocation of an already-placed pod (the late-binding
    /// resize operation). Fails if growth does not fit.
    pub fn resize(&mut self, pod: PodId, new_allocation: Millicores) -> SimResult<()> {
        let current = self
            .pods
            .get(&pod)
            .ok_or_else(|| not_hosted(pod, self.id))?
            .allocation;
        let after = self.allocated.saturating_sub(current) + new_allocation;
        if after > self.capacity {
            return Err(SimError::InsufficientCapacity {
                requested: new_allocation,
                available: self.free() + current,
            });
        }
        self.allocated = after;
        if let Some(p) = self.pods.get_mut(&pod) {
            p.allocation = new_allocation;
        }
        Ok(())
    }

    /// Allocation of one hosted pod.
    pub fn pod_allocation(&self, pod: PodId) -> Option<Millicores> {
        self.pods.get(&pod).map(|p| p.allocation)
    }

    /// Iterate over `(pod, function, allocation)` of hosted pods.
    pub fn pods(&self) -> impl Iterator<Item = (PodId, FunctionId, Millicores)> + '_ {
        self.pods
            .iter()
            .map(|(id, p)| (*id, p.function, p.allocation))
    }
}

/// Cold path: the error for a second placement of a hosted pod.
fn already_placed(pod: PodId, node: NodeId) -> SimError {
    SimError::InvalidTransition {
        entity: format!("{pod}"),
        detail: format!("already placed on {node}"),
    }
}

/// Cold path: the error for a pod this node does not host.
fn not_hosted(pod: PodId, node: NodeId) -> SimError {
    SimError::UnknownEntity(format!("{pod} on {node}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const OD: FunctionId = FunctionId(0);
    const QA: FunctionId = FunctionId(1);
    const TS: FunctionId = FunctionId(2);

    fn node() -> Node {
        Node::new(NodeId(0), Millicores::from_cores(8))
    }

    #[test]
    fn placement_tracks_allocation_and_colocation() {
        let mut n = node();
        n.place(PodId(1), OD, Millicores::new(2000)).unwrap();
        n.place(PodId(2), OD, Millicores::new(1000)).unwrap();
        n.place(PodId(3), QA, Millicores::new(1000)).unwrap();
        assert_eq!(n.allocated().get(), 4000);
        assert_eq!(n.free().get(), 4000);
        assert_eq!(n.colocated_count(OD), 2);
        assert_eq!(n.colocated_count(QA), 1);
        assert_eq!(n.colocated_count(TS), 0);
        assert!((n.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(n.pod_count(), 3);
    }

    #[test]
    fn overcommit_is_rejected() {
        let mut n = node();
        n.place(PodId(1), OD, Millicores::new(7000)).unwrap();
        let err = n.place(PodId(2), OD, Millicores::new(2000)).unwrap_err();
        assert!(matches!(err, SimError::InsufficientCapacity { .. }));
    }

    #[test]
    fn duplicate_placement_is_rejected() {
        let mut n = node();
        n.place(PodId(1), OD, Millicores::new(1000)).unwrap();
        assert!(n.place(PodId(1), OD, Millicores::new(1000)).is_err());
    }

    #[test]
    fn evict_releases_capacity_and_colocation() {
        let mut n = node();
        n.place(PodId(1), OD, Millicores::new(2000)).unwrap();
        n.place(PodId(2), OD, Millicores::new(1000)).unwrap();
        let (function, released) = n.evict(PodId(1)).unwrap();
        assert_eq!(function, OD);
        assert_eq!(released.get(), 2000);
        assert_eq!(n.allocated().get(), 1000);
        assert_eq!(n.colocated_count(OD), 1);
        assert!(n.evict(PodId(1)).is_err());
    }

    #[test]
    fn resize_respects_capacity() {
        let mut n = node();
        n.place(PodId(1), OD, Millicores::new(1000)).unwrap();
        n.place(PodId(2), QA, Millicores::new(6000)).unwrap();
        n.resize(PodId(1), Millicores::new(2000)).unwrap();
        assert_eq!(n.pod_allocation(PodId(1)), Some(Millicores::new(2000)));
        assert_eq!(n.allocated().get(), 8000);
        let err = n.resize(PodId(1), Millicores::new(3000)).unwrap_err();
        assert!(matches!(err, SimError::InsufficientCapacity { .. }));
        // Shrinking always succeeds.
        n.resize(PodId(1), Millicores::new(1000)).unwrap();
        assert_eq!(n.allocated().get(), 7000);
        assert!(n.resize(PodId(9), Millicores::new(1000)).is_err());
    }
}
