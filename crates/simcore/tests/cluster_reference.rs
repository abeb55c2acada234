//! Differential test of [`Cluster`] against a naive scan-based reference.
//!
//! The cluster keeps its live and active node lists and its per-zone
//! function counts up to date incrementally. The reference below keeps no
//! derived state at all: every query rescans every node slot, the way the
//! cluster used to. SimRng-driven sequences of every mutating operation run
//! against both, under both placement policies and one to three zones, and
//! after every step the two must agree on the node chosen and on every
//! observable count.

use janus_simcore::cluster::{Cluster, ClusterConfig, NodeState, PlacementPolicy};
use janus_simcore::error::SimError;
use janus_simcore::node::NodeId;
use janus_simcore::pod::{FunctionId, PodId};
use janus_simcore::resources::Millicores;
use janus_simcore::rng::SimRng;
use std::cmp::Reverse;

const FUNCTIONS: u64 = 4;
const STEPS: usize = 400;

struct RefNode {
    capacity: u32,
    zone: usize,
    state: NodeState,
    pods: Vec<(PodId, FunctionId, u32)>,
}

impl RefNode {
    fn allocated(&self) -> u32 {
        self.pods.iter().map(|(_, _, mc)| mc).sum()
    }

    fn free(&self) -> u32 {
        self.capacity.saturating_sub(self.allocated())
    }

    fn count(&self, function: FunctionId) -> usize {
        self.pods.iter().filter(|(_, f, _)| *f == function).count()
    }
}

/// Scan-based model of the cluster: no cached counts, no index lists.
struct Reference {
    nodes: Vec<RefNode>,
    zones: usize,
    placement: PlacementPolicy,
}

impl Reference {
    fn new(nodes: usize, capacity: u32, zones: usize, placement: PlacementPolicy) -> Self {
        let mut r = Reference {
            nodes: Vec::new(),
            zones,
            placement,
        };
        for _ in 0..nodes {
            r.add_node(capacity);
        }
        r
    }

    fn add_node(&mut self, capacity: u32) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(RefNode {
            capacity,
            zone: idx % self.zones,
            state: NodeState::Active,
            pods: Vec::new(),
        });
        idx
    }

    fn active(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].state == NodeState::Active)
    }

    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].state != NodeState::Retired)
    }

    fn zone_count(&self, zone: usize, function: FunctionId) -> usize {
        self.live()
            .filter(|&i| self.nodes[i].zone == zone)
            .map(|i| self.nodes[i].count(function))
            .sum()
    }

    fn host(&self, pod: PodId) -> Option<usize> {
        (0..self.nodes.len()).find(|&i| self.nodes[i].pods.iter().any(|(p, _, _)| *p == pod))
    }

    /// The chosen node, or the most free capacity of any active node.
    fn place(&mut self, pod: PodId, function: FunctionId, mc: u32) -> Result<usize, u32> {
        let fitting = self.active().filter(|&i| self.nodes[i].free() >= mc);
        let chosen = match self.placement {
            PlacementPolicy::PackSameFunction => {
                fitting.max_by_key(|&i| (self.nodes[i].count(function), self.nodes[i].free()))
            }
            PlacementPolicy::Spread => fitting.max_by_key(|&i| {
                (
                    Reverse(self.zone_count(self.nodes[i].zone, function)),
                    self.nodes[i].free(),
                )
            }),
        };
        match chosen {
            Some(i) => {
                self.nodes[i].pods.push((pod, function, mc));
                Ok(i)
            }
            None => Err(self
                .active()
                .map(|i| self.nodes[i].free())
                .max()
                .unwrap_or(0)),
        }
    }

    fn least_allocated(&self) -> Option<usize> {
        self.active()
            .min_by_key(|&i| (self.nodes[i].allocated(), i))
    }

    fn place_overcommitted(&mut self, pod: PodId, function: FunctionId, mc: u32) -> Option<usize> {
        let i = self.least_allocated()?;
        self.nodes[i].pods.push((pod, function, mc));
        Some(i)
    }

    fn try_retire(&mut self, i: usize) -> bool {
        let node = &mut self.nodes[i];
        if node.state == NodeState::Draining && node.pods.is_empty() {
            node.state = NodeState::Retired;
            true
        } else {
            false
        }
    }

    fn remove(&mut self, pod: PodId) -> bool {
        let Some(i) = self.host(pod) else {
            return false;
        };
        self.nodes[i].pods.retain(|(p, _, _)| *p != pod);
        self.try_retire(i);
        true
    }

    fn resize(&mut self, pod: PodId, mc: u32) -> bool {
        let Some(i) = self.host(pod) else {
            return false;
        };
        let node = &mut self.nodes[i];
        let current = node
            .pods
            .iter()
            .find(|(p, _, _)| *p == pod)
            .map_or(0, |p| p.2);
        if node.allocated() - current + mc > node.capacity {
            return false;
        }
        for p in &mut node.pods {
            if p.0 == pod {
                p.2 = mc;
            }
        }
        true
    }

    fn retirable(&self, i: usize) -> bool {
        self.nodes
            .get(i)
            .is_some_and(|n| n.state != NodeState::Retired)
    }

    fn drain_node(&mut self, i: usize) -> Option<bool> {
        if !self.retirable(i) {
            return None;
        }
        self.nodes[i].state = NodeState::Draining;
        Some(self.try_retire(i))
    }

    fn drain_least_allocated(&mut self, count: usize, min_active: usize) -> Vec<usize> {
        let mut drained = Vec::new();
        for _ in 0..count {
            if self.active().count() <= min_active.max(1) {
                break;
            }
            let Some(i) = self.least_allocated() else {
                break;
            };
            self.nodes[i].state = NodeState::Draining;
            self.try_retire(i);
            drained.push(i);
        }
        drained
    }

    fn crash_node(&mut self, i: usize) -> Option<Vec<(PodId, FunctionId)>> {
        if !self.retirable(i) {
            return None;
        }
        let mut lost: Vec<(PodId, FunctionId)> = self.nodes[i]
            .pods
            .iter()
            .map(|(p, f, _)| (*p, *f))
            .collect();
        lost.sort_by_key(|(p, _)| *p);
        self.nodes[i].pods.clear();
        self.nodes[i].state = NodeState::Retired;
        Some(lost)
    }

    fn utilization(&self) -> f64 {
        let cap: u32 = self.live().map(|i| self.nodes[i].capacity).sum();
        if cap == 0 {
            return 0.0;
        }
        let allocated: u32 = self.live().map(|i| self.nodes[i].allocated()).sum();
        f64::from(allocated) / f64::from(cap)
    }

    fn active_nodes_per_zone(&self) -> Vec<usize> {
        let mut per_zone = vec![0; self.zones];
        for i in self.active() {
            per_zone[self.nodes[i].zone] += 1;
        }
        per_zone
    }
}

fn node(i: usize) -> NodeId {
    NodeId(i as u32)
}

/// Every observable count of the cluster equals the reference's rescan.
fn assert_agrees(c: &Cluster, r: &Reference, context: &str) {
    assert_eq!(c.node_count(), r.live().count(), "{context}: node_count");
    assert_eq!(
        c.active_node_count(),
        r.active().count(),
        "{context}: active_node_count"
    );
    assert_eq!(
        c.active_nodes(),
        r.active().map(node).collect::<Vec<_>>(),
        "{context}: active_nodes"
    );
    assert_eq!(
        c.utilization().to_bits(),
        r.utilization().to_bits(),
        "{context}: utilization"
    );
    assert_eq!(
        c.active_nodes_per_zone(),
        r.active_nodes_per_zone(),
        "{context}: active_nodes_per_zone"
    );
    for zone in 0..r.zones {
        let live: Vec<NodeId> = r
            .live()
            .filter(|&i| r.nodes[i].zone == zone)
            .map(node)
            .collect();
        assert_eq!(c.zone_nodes(zone), live, "{context}: zone_nodes({zone})");
    }
    for (i, n) in r.nodes.iter().enumerate() {
        assert_eq!(
            c.node_state(node(i)),
            Some(n.state),
            "{context}: state of node {i}"
        );
        for &(pod, function, _) in &n.pods {
            assert_eq!(c.node_of(pod), Some(node(i)), "{context}: host of {pod}");
            assert_eq!(
                c.colocation_degree(pod, function),
                n.count(function).max(1),
                "{context}: colocation_degree of {pod}"
            );
        }
    }
}

fn run_case(seed: u64, placement: PlacementPolicy, zones: usize) {
    let mut rng = SimRng::seed_from_u64(seed);
    let initial = rng.int_range(1, 5) as usize;
    let capacity = 8_000;
    let mut c = Cluster::new(&ClusterConfig {
        nodes: initial,
        node_capacity: Millicores::new(capacity),
        placement,
        zones,
    })
    .unwrap();
    let mut r = Reference::new(initial, capacity, zones, placement);
    let mut next_pod = 0u64;
    for step in 0..STEPS {
        let context = format!("seed {seed}, {placement:?}, {zones} zones, step {step}");
        let placed: Vec<PodId> = r
            .nodes
            .iter()
            .flat_map(|n| n.pods.iter().map(|p| p.0))
            .collect();
        // A known pod most of the time, now and then one never placed.
        let some_pod = |rng: &mut SimRng| {
            if placed.is_empty() || rng.int_range(0, 9) == 0 {
                PodId(10_000 + rng.int_range(0, 99))
            } else {
                placed[rng.int_range(0, placed.len() as u64 - 1) as usize]
            }
        };
        let some_node = |rng: &mut SimRng| rng.int_range(0, r.nodes.len() as u64) as usize;
        match rng.int_range(0, 99) {
            0..=34 => {
                let pod = PodId(next_pod);
                next_pod += 1;
                let function = FunctionId(rng.int_range(0, FUNCTIONS - 1) as u32);
                let mc = rng.int_range(250, 4_000) as u32;
                match (
                    c.place(pod, function, Millicores::new(mc)),
                    r.place(pod, function, mc),
                ) {
                    (Ok(got), Ok(want)) => assert_eq!(got, node(want), "{context}: place"),
                    (Err(SimError::InsufficientCapacity { available, .. }), Err(best_free)) => {
                        assert_eq!(available.get(), best_free, "{context}: place error");
                    }
                    (got, want) => panic!("{context}: place {got:?} vs {want:?}"),
                }
            }
            35..=44 => {
                let pod = PodId(next_pod);
                next_pod += 1;
                let function = FunctionId(rng.int_range(0, FUNCTIONS - 1) as u32);
                let mc = rng.int_range(250, 4_000) as u32;
                let got = c
                    .place_overcommitted(pod, function, Millicores::new(mc))
                    .ok();
                let want = r.place_overcommitted(pod, function, mc).map(node);
                assert_eq!(got, want, "{context}: place_overcommitted");
            }
            45..=69 => {
                let pod = some_pod(&mut rng);
                assert_eq!(c.remove(pod).is_ok(), r.remove(pod), "{context}: remove");
            }
            70..=79 => {
                let pod = some_pod(&mut rng);
                let mc = rng.int_range(250, 6_000) as u32;
                assert_eq!(
                    c.resize(pod, Millicores::new(mc)).is_ok(),
                    r.resize(pod, mc),
                    "{context}: resize"
                );
            }
            80..=86 => {
                let mc = rng.int_range(4_000, 8_000) as u32;
                let got = c.add_node(Millicores::new(mc)).unwrap();
                assert_eq!(got, node(r.add_node(mc)), "{context}: add_node");
            }
            87..=91 => {
                let i = some_node(&mut rng);
                assert_eq!(
                    c.drain_node(node(i)).ok(),
                    r.drain_node(i),
                    "{context}: drain_node"
                );
            }
            92..=95 => {
                let count = rng.int_range(0, 3) as usize;
                let floor = rng.int_range(0, 3) as usize;
                let want: Vec<NodeId> = r
                    .drain_least_allocated(count, floor)
                    .into_iter()
                    .map(node)
                    .collect();
                assert_eq!(
                    c.drain_least_allocated(count, floor),
                    want,
                    "{context}: drain_least_allocated"
                );
            }
            _ => {
                let i = some_node(&mut rng);
                assert_eq!(
                    c.crash_node(node(i)).ok(),
                    r.crash_node(i),
                    "{context}: crash_node"
                );
            }
        }
        assert_agrees(&c, &r, &context);
    }
}

#[test]
fn incremental_cluster_matches_the_scan_based_reference() {
    for placement in [PlacementPolicy::PackSameFunction, PlacementPolicy::Spread] {
        for zones in 1..=3 {
            for seed in 0..8 {
                run_case(seed * 31 + zones as u64, placement, zones);
            }
        }
    }
}
