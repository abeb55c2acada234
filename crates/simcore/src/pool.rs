//! Warm-pool manager, modelled on the Fission PoolManager executor.
//!
//! The paper uses the PoolManager "due to its excellent performance against
//! cold starts" (§V-A): a pool of generic pods is kept warm per node, and
//! specialising a warm pod to a function costs a small specialisation delay
//! rather than a full cold start.

use crate::pod::{FunctionId, Pod, PodId};
use crate::resources::Millicores;
use crate::time::{SimDuration, SimTime};
use crate::FixedState;
use serde::{Deserialize, Serialize};
// janus-lint: allow(nondeterminism) — running-pod table for keyed lookup; eviction/scheduling order comes from the VecDeques, never map iteration
use std::collections::{HashMap, VecDeque};

/// Pool-manager configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Number of generic pods kept warm.
    pub pool_size: usize,
    /// Initial CPU allocation of pool pods (resized on specialisation).
    pub initial_allocation: Millicores,
    /// Latency of specialising a warm generic pod to a function.
    pub specialization_delay: SimDuration,
    /// Latency of a full cold start (pool empty).
    pub cold_start_delay: SimDuration,
    /// Idle duration after which a specialised pod is recycled back to the
    /// generic pool.
    pub idle_recycle_after: SimDuration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            pool_size: 8,
            initial_allocation: Millicores::new(1000),
            // Fission poolmgr specialisation is tens of milliseconds; cold
            // starts (pod creation + image pull hit) are hundreds.
            specialization_delay: SimDuration::from_millis(25.0),
            cold_start_delay: SimDuration::from_millis(450.0),
            idle_recycle_after: SimDuration::from_secs(120.0),
        }
    }
}

/// Outcome of acquiring a pod for a function invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Acquisition {
    /// The pod serving the invocation.
    pub pod: PodId,
    /// Startup latency paid before execution can begin.
    pub startup_delay: SimDuration,
    /// True if this was a warm-pool hit (specialised pod reused or generic
    /// pod specialised), false for a cold start.
    pub warm_hit: bool,
}

/// Warm-pool manager tracking generic pods, specialised idle pods and
/// hit/miss statistics.
///
/// Each pod is owned by the table of its state: the generic queue, the
/// warm queue of its function, or the running table. Acquiring or releasing
/// a pod moves it between them, so a transition never looks a pod up in a
/// table it might be missing from, and never checks a state it might not be
/// in.
#[derive(Debug)]
pub struct PoolManager {
    config: PoolConfig,
    next_pod: u64,
    /// Generic warm pods ready to be specialised, oldest first.
    generic: VecDeque<Pod>,
    /// Idle specialised pods with the instant each went idle, one queue per
    /// function indexed by [`FunctionId`], least recently released first.
    warm: Vec<VecDeque<(Pod, SimTime)>>,
    /// Pods currently executing.
    running: HashMap<PodId, Pod, FixedState>,
    warm_hits: u64,
    cold_starts: u64,
}

impl PoolManager {
    /// Create a pool manager and pre-provision its generic pool at time zero.
    pub fn new(config: PoolConfig) -> Self {
        let mut mgr = PoolManager {
            config,
            next_pod: 0,
            generic: VecDeque::new(),
            warm: Vec::new(),
            running: HashMap::default(),
            warm_hits: 0,
            cold_starts: 0,
        };
        mgr.refill(SimTime::ZERO);
        mgr
    }

    /// Current pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Number of generic pods currently available.
    pub fn generic_available(&self) -> usize {
        self.generic.len()
    }

    /// Number of idle specialised pods for `function`.
    pub fn warm_available(&self, function: FunctionId) -> usize {
        self.warm.get(function.index()).map_or(0, VecDeque::len)
    }

    /// Total warm-pool hits so far.
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits
    }

    /// Total cold starts so far.
    pub fn cold_starts(&self) -> u64 {
        self.cold_starts
    }

    /// Warm-hit rate in `[0, 1]` (1.0 if nothing acquired yet).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.cold_starts;
        if total == 0 {
            return 1.0;
        }
        self.warm_hits as f64 / total as f64
    }

    fn new_pod(&mut self, now: SimTime) -> Pod {
        let id = PodId(self.next_pod);
        self.next_pod += 1;
        Pod::generic(id, self.config.initial_allocation, now)
    }

    /// Top the generic pool back up to its configured size.
    pub fn refill(&mut self, now: SimTime) {
        while self.generic.len() < self.config.pool_size {
            let pod = self.new_pod(now);
            self.generic.push_back(pod);
        }
    }

    /// Current target depth of the generic pool.
    pub fn target_pool_size(&self) -> usize {
        self.config.pool_size
    }

    /// Retarget the generic pool so warm-pool depth can follow load: grows
    /// provision new generic pods immediately, shrinks terminate surplus
    /// generic pods (idle specialised pods are untouched — they age out via
    /// [`recycle_idle`](Self::recycle_idle)).
    ///
    /// Terminated surplus pods are dropped outright — a generic pod was
    /// never specialised or handed out, so nothing can reference it again,
    /// and an oscillating autoscaler retargeting every tick must not grow
    /// the pool with dead entries.
    pub fn set_target_pool_size(&mut self, target: usize, now: SimTime) {
        self.config.pool_size = target;
        // Newest pods go first, keeping the oldest (warmest) provisioned.
        self.generic.truncate(target);
        self.refill(now);
    }

    /// Acquire a pod to run `function` with `allocation` CPU at time `now`.
    ///
    /// Preference order (mirroring Fission poolmgr):
    /// 1. an idle pod already specialised to the function → warm hit, no
    ///    specialisation delay;
    /// 2. a generic pool pod → warm hit, specialisation delay;
    /// 3. nothing available → cold start.
    pub fn acquire(
        &mut self,
        function: FunctionId,
        allocation: Millicores,
        now: SimTime,
    ) -> Acquisition {
        let reused = self
            .warm
            .get_mut(function.index())
            .and_then(VecDeque::pop_front);
        let (mut pod, startup_delay, warm_hit) = if let Some((pod, _)) = reused {
            // 1. Reuse a specialised idle pod.
            (pod, SimDuration::ZERO, true)
        } else if let Some(pod) = self.generic.pop_front() {
            // 2. Specialise a generic pod.
            (pod, self.config.specialization_delay, true)
        } else {
            // 3. Cold start.
            (self.new_pod(now), self.config.cold_start_delay, false)
        };
        if warm_hit {
            self.warm_hits += 1;
        } else {
            self.cold_starts += 1;
        }
        pod.dispatch(function, allocation);
        let id = pod.id();
        self.running.insert(id, pod);
        Acquisition {
            pod: id,
            startup_delay,
            warm_hit,
        }
    }

    /// Return a pod after its execution finished; it becomes an idle
    /// specialised pod available for reuse. Pods not running (lost to a
    /// crash, or unknown) are ignored.
    pub fn release(&mut self, pod_id: PodId, now: SimTime) {
        let Some(mut pod) = self.running.remove(&pod_id) else {
            return;
        };
        pod.finish();
        // A running pod was dispatched to a function, so this always holds.
        if let Some(function) = pod.function() {
            function.slot(&mut self.warm).push_back((pod, now));
        }
    }

    /// Recycle specialised pods idle for longer than the configured window
    /// and top the generic pool back up. Returns how many pods were recycled.
    ///
    /// One pass over the warm queues: each keeps its surviving pods in
    /// order, and a recycled pod is dropped outright (the open loop
    /// recycles on every capacity tick — long runs must stay bounded).
    pub fn recycle_idle(&mut self, now: SimTime) -> usize {
        let cutoff = self.config.idle_recycle_after;
        let mut recycled = 0;
        for queue in &mut self.warm {
            let before = queue.len();
            queue.retain(|(_, since)| now.saturating_since(*since) < cutoff);
            recycled += before - queue.len();
        }
        self.refill(now);
        recycled
    }

    /// Forget pods lost abruptly (a node crash, not a drain): each is
    /// removed from whichever table holds it — the running table, the
    /// generic pool or a warm queue — so nothing can hand a dead pod out
    /// again and the pool cannot grow dead entries across a crash-heavy
    /// run. Unknown ids are ignored (the pod may already have been
    /// recycled). Returns how many pods were actually dropped.
    pub fn drop_lost(&mut self, lost: &[PodId]) -> usize {
        let before = self.tracked_pods();
        for pod_id in lost {
            self.running.remove(pod_id);
        }
        self.generic.retain(|pod| !lost.contains(&pod.id()));
        for queue in &mut self.warm {
            queue.retain(|(pod, _)| !lost.contains(&pod.id()));
        }
        before - self.tracked_pods()
    }

    /// A tracked pod, wherever it is (running, generic or warm).
    pub fn pod(&self, pod_id: PodId) -> Option<&Pod> {
        self.running.get(&pod_id).or_else(|| {
            self.generic
                .iter()
                .chain(self.warm.iter().flatten().map(|(pod, _)| pod))
                .find(|pod| pod.id() == pod_id)
        })
    }

    /// Total pods ever created (including surplus generic pods already
    /// dropped by [`set_target_pool_size`](Self::set_target_pool_size)).
    pub fn total_pods(&self) -> usize {
        self.next_pod as usize
    }

    /// Pods currently tracked (generic, idle specialised or running).
    pub fn tracked_pods(&self) -> usize {
        self.running.len() + self.generic.len() + self.warm.iter().map(VecDeque::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::PodState;

    const OD: FunctionId = FunctionId(0);
    const QA: FunctionId = FunctionId(1);

    fn pool(size: usize) -> PoolManager {
        PoolManager::new(PoolConfig {
            pool_size: size,
            ..PoolConfig::default()
        })
    }

    #[test]
    fn generic_pool_is_preprovisioned() {
        let mgr = pool(4);
        assert_eq!(mgr.generic_available(), 4);
        assert_eq!(mgr.total_pods(), 4);
    }

    #[test]
    fn first_acquire_specialises_a_generic_pod() {
        let mut mgr = pool(2);
        let acq = mgr.acquire(OD, Millicores::new(2000), SimTime::ZERO);
        assert!(acq.warm_hit);
        assert_eq!(acq.startup_delay, mgr.config().specialization_delay);
        assert_eq!(mgr.generic_available(), 1);
        let pod = mgr.pod(acq.pod).unwrap();
        assert_eq!(pod.function(), Some(OD));
        assert_eq!(pod.allocation(), Millicores::new(2000));
        assert_eq!(pod.state(), PodState::Running);
    }

    #[test]
    fn released_pod_is_reused_without_delay() {
        let mut mgr = pool(2);
        let acq1 = mgr.acquire(OD, Millicores::new(1500), SimTime::ZERO);
        mgr.release(acq1.pod, SimTime::from_millis(100.0));
        assert_eq!(mgr.warm_available(OD), 1);
        let acq2 = mgr.acquire(OD, Millicores::new(2500), SimTime::from_millis(200.0));
        assert_eq!(acq2.pod, acq1.pod, "same pod reused");
        assert_eq!(acq2.startup_delay, SimDuration::ZERO);
        assert_eq!(
            mgr.pod(acq2.pod).unwrap().allocation(),
            Millicores::new(2500),
            "reuse applies the new allocation"
        );
    }

    #[test]
    fn exhausted_pool_falls_back_to_cold_start() {
        let mut mgr = pool(1);
        let a = mgr.acquire(OD, Millicores::new(1000), SimTime::ZERO);
        assert!(a.warm_hit);
        let b = mgr.acquire(QA, Millicores::new(1000), SimTime::ZERO);
        assert!(!b.warm_hit);
        assert_eq!(b.startup_delay, mgr.config().cold_start_delay);
        assert_eq!(mgr.cold_starts(), 1);
        assert_eq!(mgr.warm_hits(), 1);
        assert!((mgr.warm_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_pods_are_recycled_after_timeout() {
        let mut mgr = pool(1);
        let acq = mgr.acquire(OD, Millicores::new(1000), SimTime::ZERO);
        mgr.release(acq.pod, SimTime::from_millis(0.0));
        assert_eq!(mgr.warm_available(OD), 1);
        let not_yet = mgr.recycle_idle(SimTime::from_secs(1.0));
        assert_eq!(not_yet, 0);
        let recycled = mgr.recycle_idle(SimTime::from_secs(200.0));
        assert_eq!(recycled, 1);
        assert_eq!(mgr.warm_available(OD), 0);
        assert_eq!(
            mgr.generic_available(),
            1,
            "generic pool refilled after recycling"
        );
    }

    #[test]
    fn recycling_drops_expired_pods_and_keeps_each_queue_in_order() {
        // No generic pool: every acquire is a cold start with a fresh id.
        let mut mgr = pool(0);
        let functions = [OD, QA, OD, QA, OD, OD];
        let pods: Vec<PodId> = functions
            .iter()
            .map(|f| mgr.acquire(*f, Millicores::new(1000), SimTime::ZERO).pod)
            .collect();
        for (i, pod) in pods.iter().enumerate() {
            mgr.release(*pod, SimTime::from_secs(10.0 * (i + 1) as f64));
        }
        // The window is 120 s: at 150 s the pods idle since 10, 20 and 30 s
        // expire, the ones idle since 40 s and later survive.
        assert_eq!(mgr.recycle_idle(SimTime::from_secs(150.0)), 3);
        for pod in &pods[..3] {
            assert!(mgr.pod(*pod).is_none(), "{pod} recycled");
        }
        assert_eq!(mgr.tracked_pods(), 3);
        assert_eq!(mgr.warm_available(OD), 2);
        assert_eq!(mgr.warm_available(QA), 1);
        // Survivors are handed out in release order.
        let now = SimTime::from_secs(151.0);
        let od: Vec<PodId> = (0..2)
            .map(|_| mgr.acquire(OD, Millicores::new(1000), now).pod)
            .collect();
        assert_eq!(od, vec![pods[4], pods[5]]);
        assert_eq!(mgr.acquire(QA, Millicores::new(1000), now).pod, pods[3]);
        assert_eq!(mgr.warm_hits(), 3);
    }

    #[test]
    fn lost_pods_are_dropped_from_every_tracking_structure() {
        let mut mgr = pool(2);
        let running = mgr.acquire(OD, Millicores::new(1000), SimTime::ZERO);
        // One pod running, one generic; lose both plus an unknown id.
        let generic_id = PodId(mgr.total_pods() as u64 - 1);
        assert_ne!(running.pod, generic_id);
        let dropped = mgr.drop_lost(&[running.pod, generic_id, PodId(999)]);
        assert_eq!(dropped, 2, "unknown ids are ignored");
        assert_eq!(mgr.tracked_pods(), 0);
        assert_eq!(mgr.generic_available(), 0);
        // A release of a lost running pod is a safe no-op …
        mgr.release(running.pod, SimTime::from_millis(10.0));
        assert_eq!(mgr.warm_available(OD), 0);
        // … and recycling later never resurrects it.
        assert_eq!(mgr.recycle_idle(SimTime::from_secs(500.0)), 0);
        assert_eq!(mgr.tracked_pods(), 2, "refill provisions fresh pods only");
    }

    #[test]
    fn warm_hit_rate_defaults_to_one() {
        let mgr = pool(1);
        assert_eq!(mgr.warm_hit_rate(), 1.0);
    }

    #[test]
    fn target_pool_size_follows_load_both_ways() {
        let mut mgr = pool(2);
        assert_eq!(mgr.target_pool_size(), 2);
        // Grow: new generic pods are provisioned immediately.
        mgr.set_target_pool_size(5, SimTime::from_secs(1.0));
        assert_eq!(mgr.target_pool_size(), 5);
        assert_eq!(mgr.generic_available(), 5);
        // Shrink: surplus generic pods terminate, warm specialised pods stay.
        let acq = mgr.acquire(OD, Millicores::new(1000), SimTime::from_secs(2.0));
        mgr.release(acq.pod, SimTime::from_secs(2.5));
        mgr.set_target_pool_size(1, SimTime::from_secs(3.0));
        assert_eq!(mgr.generic_available(), 1);
        assert_eq!(mgr.warm_available(OD), 1, "specialised pod untouched");
        // Shrink-terminated generic pods are dropped from the tracking map:
        // retarget churn must not accumulate dead entries.
        assert_eq!(mgr.tracked_pods(), 2, "1 generic + 1 warm specialised");
        let before = mgr.tracked_pods();
        for i in 0..10 {
            mgr.set_target_pool_size(5, SimTime::from_secs(4.0 + i as f64));
            mgr.set_target_pool_size(1, SimTime::from_secs(4.5 + i as f64));
        }
        assert_eq!(mgr.tracked_pods(), before, "oscillation leaks no pods");
        assert!(mgr.total_pods() > before, "creation count keeps history");
        // Subsequent recycling refills to the *new* target, not the old one.
        let recycled = mgr.recycle_idle(SimTime::from_secs(300.0));
        assert_eq!(recycled, 1);
        assert_eq!(mgr.generic_available(), 1);
    }
}
