//! Function instances (pods) and their lifecycle.
//!
//! A pod corresponds to a Fission function pod: it is created cold or drawn
//! warm from the pool manager, specialises to one function, executes requests
//! (possibly batched), and is eventually reclaimed.

use crate::resources::Millicores;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Identifier of a pod (function instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PodId(pub u64);

impl std::fmt::Display for PodId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pod-{}", self.0)
    }
}

/// Dense identifier of a workflow function: its position in the workflow.
///
/// Function names are unique within a workflow, so the position interns
/// the name. Every per-function table of the simulator (a node's
/// co-location counts, the warm pool's queues, the cluster's per-zone
/// instance counts) is a vector indexed by this id, so the per-event path
/// never builds or hashes a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FunctionId(pub u32);

impl FunctionId {
    /// Position of the function in its workflow (the table index).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// This function's entry in a table indexed by [`FunctionId`]; the
    /// table grows with default entries the first time it meets the id.
    pub(crate) fn slot<T: Default>(self, table: &mut Vec<T>) -> &mut T {
        if self.index() >= table.len() {
            table.resize_with(self.index() + 1, T::default);
        }
        &mut table[self.index()]
    }
}

/// Lifecycle states of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PodState {
    /// Created but not yet specialised to a function (generic warm pool pod).
    Generic,
    /// Specialised to a function and idle, ready to serve.
    Warm,
    /// Currently executing a (batch of) request(s).
    Running,
}

/// A function instance with a mutable CPU allocation.
///
/// Its transitions belong to the [`crate::pool::PoolManager`], which holds
/// every pod in the table of its state and so only ever dispatches an idle
/// pod and finishes a running one: neither transition can fail.
#[derive(Debug, Clone)]
pub struct Pod {
    id: PodId,
    function: Option<FunctionId>,
    state: PodState,
    allocation: Millicores,
    created_at: SimTime,
    executions: u64,
    resizes: u64,
}

impl Pod {
    /// Create a generic (unspecialised) pod, as the pool manager does.
    pub fn generic(id: PodId, allocation: Millicores, created_at: SimTime) -> Self {
        Pod {
            id,
            function: None,
            state: PodState::Generic,
            allocation,
            created_at,
            executions: 0,
            resizes: 0,
        }
    }

    /// Pod identifier.
    pub fn id(&self) -> PodId {
        self.id
    }

    /// Function the pod is specialised to, if any.
    pub fn function(&self) -> Option<FunctionId> {
        self.function
    }

    /// Current lifecycle state.
    pub fn state(&self) -> PodState {
        self.state
    }

    /// Current CPU allocation.
    pub fn allocation(&self) -> Millicores {
        self.allocation
    }

    /// Creation time.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// Number of completed executions.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Number of allocation changes applied at dispatch.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Bind an idle pod to `function` at `allocation` and start executing:
    /// the Fission specialisation step for a generic pod, then the
    /// adapter's resize (counted only when the allocation changes). The
    /// pool dispatches only generic pods and warm pods of `function`'s own
    /// queue.
    pub(crate) fn dispatch(&mut self, function: FunctionId, allocation: Millicores) {
        self.function = Some(function);
        if allocation != self.allocation {
            self.allocation = allocation;
            self.resizes += 1;
        }
        self.state = PodState::Running;
    }

    /// End the current execution; the pod is warm again.
    pub(crate) fn finish(&mut self) {
        self.state = PodState::Warm;
        self.executions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod() -> Pod {
        Pod::generic(PodId(1), Millicores::new(1000), SimTime::ZERO)
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut p = pod();
        assert_eq!(p.state(), PodState::Generic);
        assert_eq!(p.function(), None);
        p.dispatch(FunctionId(0), Millicores::new(1000));
        assert_eq!(p.state(), PodState::Running);
        assert_eq!(p.function(), Some(FunctionId(0)));
        p.finish();
        assert_eq!(p.state(), PodState::Warm);
        assert_eq!(p.executions(), 1);
        p.dispatch(FunctionId(0), Millicores::new(1000));
        p.finish();
        assert_eq!(p.executions(), 2);
    }

    #[test]
    fn resize_counts_only_changes() {
        let mut p = pod();
        p.dispatch(FunctionId(0), Millicores::new(1000));
        assert_eq!(p.resizes(), 0, "no-op resize not counted");
        p.finish();
        p.dispatch(FunctionId(0), Millicores::new(2500));
        assert_eq!(p.allocation(), Millicores::new(2500));
        assert_eq!(p.resizes(), 1);
    }
}
