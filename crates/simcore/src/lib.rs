//! # janus-simcore
//!
//! Discrete-event simulation substrate used by the Janus reproduction in place
//! of the paper's Fission-on-Kubernetes testbed.
//!
//! The paper's contribution (the profiler / synthesizer / adapter control
//! loop) only observes *function execution times* and only actuates two knobs:
//! the CPU allocation of a function instance (millicores) and the batch size.
//! This crate provides a platform that exposes exactly those observables and
//! knobs on top of a deterministic, seedable discrete-event engine:
//!
//! * [`time`] — simulated clock ([`SimTime`]) and durations ([`SimDuration`]),
//!   millisecond-granular like the paper's hint tables.
//! * [`resources`] — the [`Millicores`] resource knob (1000–3000 mc in the
//!   paper) and allocation ranges.
//! * [`event`] / [`engine`] — a binary-heap event queue and simulation driver.
//! * [`node`], [`pod`], [`cluster`] — worker VMs, function instances and
//!   placement, mirroring Fission pods on Kubernetes nodes.
//! * [`pool`] — a warm-pool manager modelled on the Fission PoolManager
//!   executor (cold-start avoidance).
//! * [`interference`] — co-location performance-interference model used to
//!   reproduce Figure 1c and the runtime-dynamics experiments.
//! * [`stats`] — percentile / CDF utilities shared by the profiler and the
//!   evaluation harness.
//! * [`rng`] — deterministic random-number helpers (log-normal, Zipf,
//!   truncated ranges) so every experiment is reproducible from a seed.
//! * [`metrics`] — counters and sample recorders with pre-interned handles
//!   so per-event recording pays no name lookup.
//! * [`registry`] — the one ordered, open [`Registry`] every named plug-in
//!   kind (policies, scenarios, capacity and fault controls, observers,
//!   experiments, lint rules) is registered in.
//!
//! Everything here is deliberately independent of Janus itself so that the
//! baselines (ORION, GrandSLAM, …) run on the identical substrate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod engine;
pub mod error;
pub mod event;
pub mod interference;
pub mod metrics;
pub mod node;
pub mod pod;
pub mod pool;
pub mod registry;
pub mod resources;
pub mod rng;
pub mod stats;
pub mod time;

pub use cluster::{Cluster, ClusterConfig, NodeState, PlacementPolicy};
pub use engine::{Engine, EngineConfig};
pub use error::SimError;
pub use event::{EventQueue, ScheduledEvent};
pub use interference::{InterferenceModel, ResourceDimension};
pub use metrics::{CounterHandle, MetricsRegistry, MetricsSnapshot, SeriesHandle, StreamingHandle};
pub use node::{Node, NodeId};
pub use pod::{FunctionId, Pod, PodId, PodState};
pub use pool::{PoolConfig, PoolManager};
pub use registry::{BuildKind, Registry, RegistryKind};
pub use resources::{CoreGrid, Millicores};
pub use rng::SimRng;
pub use stats::{percentile, Cdf, RunningStats, StreamingSummary, Summary};
pub use time::{SimDuration, SimTime};

/// Fixed-key hasher state for the simulator's keyed lookup tables.
///
/// `RandomState` draws fresh keys per process, and the keys decide where a
/// removal leaves a tombstone and so when a table grows. No output depends
/// on that, but the allocation counts `tests/perf_counters.rs` pins would:
/// with a fixed hash they are the same in every process. Every key hashed
/// is a pod or request id the program numbers itself, so
/// collision-flooding protection buys nothing and [`IdHasher`] replaces
/// SipHash with one multiply per key.
pub type FixedState = std::hash::BuildHasherDefault<IdHasher>;

/// Multiplicative integer hasher behind [`FixedState`].
///
/// Each written word is folded in with one xor and one multiply by an odd
/// 64-bit constant, so sequential ids spread over every bucket; `finish`
/// rotates the well-mixed high bits down to where the table indexes.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;
}

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(Self::K);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Result alias used across the simulator substrate.
pub type SimResult<T> = Result<T, SimError>;
