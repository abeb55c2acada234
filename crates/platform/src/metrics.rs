//! Pre-interned metric handles for the serving hot path.
//!
//! A serving run observes millions of events; paying a string hash and a
//! registry map lock per sample would dominate the simulation itself. A
//! [`ServingMetrics`] bundle resolves every per-event metric name **once**
//! (at session setup) into [`CounterHandle`] / [`StreamingHandle`]s; the
//! serving loop then records each event through the pre-resolved handles
//! with no lookup on the hot path (see [`janus_simcore::metrics`] for the
//! handle contract).
//!
//! Latency samples go to **streaming** series deliberately: sweeps run many
//! sessions and the exact per-request data already lives in each
//! [`ServingReport`](crate::outcome::ServingReport), so the registry-side
//! series only has to answer "how many samples, what shape" in O(1) memory.

use janus_simcore::metrics::{CounterHandle, MetricsRegistry, StreamingHandle};

/// The per-event serving metrics, pre-interned against one registry.
///
/// Cloning is cheap (handles are `Arc`s); every clone feeds the same
/// underlying metrics.
#[derive(Debug, Clone)]
pub struct ServingMetrics {
    /// Requests admitted (closed- and open-loop arrivals alike).
    pub requests: CounterHandle,
    /// Function executions completed.
    pub functions: CounterHandle,
    /// Pod acquisitions that paid a startup (cold-start / specialisation)
    /// delay.
    pub cold_starts: CounterHandle,
    /// Requests that finished over their SLO.
    pub slo_violations: CounterHandle,
    /// Requests shed by admission control at arrival (never served).
    pub shed: CounterHandle,
    /// Admitted requests lost to injected faults (retry budget exhausted).
    pub failed: CounterHandle,
    /// Fault-interrupted requests that re-enqueued and started over.
    pub retried: CounterHandle,
    /// Autoscaler scale-up actions applied.
    pub scale_ups: CounterHandle,
    /// Autoscaler scale-down (drain) actions applied.
    pub scale_downs: CounterHandle,
    /// Per-function execution times in milliseconds (streaming).
    pub function_ms: StreamingHandle,
    /// End-to-end request latencies in milliseconds (streaming).
    pub e2e_ms: StreamingHandle,
}

impl ServingMetrics {
    /// Registry name of [`requests`](Self::requests).
    pub const REQUESTS: &'static str = "serving.requests";
    /// Registry name of [`functions`](Self::functions).
    pub const FUNCTIONS: &'static str = "serving.functions";
    /// Registry name of [`cold_starts`](Self::cold_starts).
    pub const COLD_STARTS: &'static str = "serving.cold_starts";
    /// Registry name of [`slo_violations`](Self::slo_violations).
    pub const SLO_VIOLATIONS: &'static str = "serving.slo_violations";
    /// Registry name of [`shed`](Self::shed).
    pub const SHED: &'static str = "serving.shed";
    /// Registry name of [`failed`](Self::failed).
    pub const FAILED: &'static str = "serving.failed";
    /// Registry name of [`retried`](Self::retried).
    pub const RETRIED: &'static str = "serving.retried";
    /// Registry name of [`scale_ups`](Self::scale_ups).
    pub const SCALE_UPS: &'static str = "serving.scale_ups";
    /// Registry name of [`scale_downs`](Self::scale_downs).
    pub const SCALE_DOWNS: &'static str = "serving.scale_downs";
    /// Registry name of [`function_ms`](Self::function_ms).
    pub const FUNCTION_MS: &'static str = "serving.function_ms";
    /// Registry name of [`e2e_ms`](Self::e2e_ms).
    pub const E2E_MS: &'static str = "serving.e2e_ms";

    /// Resolve every serving metric against `registry` — the one-time
    /// setup-cost half of the hot-path contract.
    pub fn intern(registry: &MetricsRegistry) -> Self {
        ServingMetrics {
            requests: registry.counter_handle(Self::REQUESTS),
            functions: registry.counter_handle(Self::FUNCTIONS),
            cold_starts: registry.counter_handle(Self::COLD_STARTS),
            slo_violations: registry.counter_handle(Self::SLO_VIOLATIONS),
            shed: registry.counter_handle(Self::SHED),
            failed: registry.counter_handle(Self::FAILED),
            retried: registry.counter_handle(Self::RETRIED),
            scale_ups: registry.counter_handle(Self::SCALE_UPS),
            scale_downs: registry.counter_handle(Self::SCALE_DOWNS),
            function_ms: registry.streaming_handle(Self::FUNCTION_MS),
            e2e_ms: registry.streaming_handle(Self::E2E_MS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_twice_shares_the_underlying_metrics() {
        let registry = MetricsRegistry::new();
        let a = ServingMetrics::intern(&registry);
        let b = ServingMetrics::intern(&registry);
        assert!(a.requests.shares_storage(&b.requests));
        assert!(a.slo_violations.shares_storage(&b.slo_violations));
        assert!(a.e2e_ms.shares_storage(&b.e2e_ms));
        a.requests.incr(2);
        b.requests.incr(3);
        assert_eq!(registry.counter(ServingMetrics::REQUESTS), 5);
        a.e2e_ms.record(100.0);
        assert_eq!(b.e2e_ms.count(), 1);
    }
}
