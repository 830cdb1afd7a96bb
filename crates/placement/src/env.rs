//! The placement environment: topology + routes + fleet, bundled.

use continuum_model::{DeviceId, DeviceSpec, Fleet};
use continuum_net::{NodeId, Path, RouteTable, Topology, TransferMatrix};
use continuum_sim::{SimDuration, SimTime};
use continuum_workflow::{Constraints, Task};
use std::sync::Arc;

/// Everything a placement policy may consult: the network, precomputed
/// routes, the transfer-cost cache, and the device fleet.
#[derive(Debug)]
pub struct Env {
    /// The continuum network, shared (cheap to clone out of a
    /// `BuiltContinuum` without copying the arenas).
    pub topology: Arc<Topology>,
    /// All-pairs latency-shortest routes over `topology`.
    pub routes: RouteTable,
    /// Dense node-pair transfer-cost cache over the canonical routes;
    /// planners query this instead of materializing paths per probe.
    pub xfer: TransferMatrix,
    /// Devices deployed on the topology.
    pub fleet: Fleet,
}

impl Env {
    /// Bundle a topology and fleet, computing the route table and the
    /// transfer-cost cache. Accepts an owned `Topology` or a shared
    /// `Arc<Topology>` (e.g. `built.topology.clone()`).
    ///
    /// # Panics
    /// If any device references a node outside the topology.
    pub fn new(topology: impl Into<Arc<Topology>>, fleet: Fleet) -> Env {
        let topology = topology.into();
        for d in fleet.devices() {
            assert!(
                (d.node.0 as usize) < topology.node_count(),
                "device {} at unknown node {}",
                d.id,
                d.node
            );
        }
        let routes = RouteTable::build(&topology);
        let xfer = routes.transfer_matrix(&topology);
        Env {
            topology,
            routes,
            xfer,
            fleet,
        }
    }

    /// Cached contention-free transfer time for `bytes` from `src` to
    /// `dst` along the canonical route (`None` if disconnected).
    /// Bit-identical to materializing [`Env::path`] and calling
    /// [`Path::transfer_time`], without the pred-walk or allocation.
    pub fn transfer_time(&self, src: NodeId, dst: NodeId, bytes: u64) -> Option<SimDuration> {
        self.xfer.transfer_time(src, dst, bytes)
    }

    /// Cached absolute arrival time of a transfer started at `start`
    /// (`None` if disconnected); see [`Env::transfer_time`].
    pub fn arrival(&self, src: NodeId, dst: NodeId, start: SimTime, bytes: u64) -> Option<SimTime> {
        self.xfer.arrival(src, dst, start, bytes)
    }

    /// The node a device sits at.
    pub fn node_of(&self, device: DeviceId) -> NodeId {
        self.fleet.device(device).node
    }

    /// Canonical shortest path between two nodes (`None` if disconnected).
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Path> {
        self.routes.path(&self.topology, src, dst)
    }

    /// One of the equal-cost shortest paths, chosen by `salt` (ECMP). The
    /// executors use per-flow salts to spread concurrent transfers across
    /// parallel links; the estimator sticks to the canonical path, exactly
    /// as a real scheduler that cannot predict flow hashing would.
    pub fn path_ecmp(&self, src: NodeId, dst: NodeId, salt: u64) -> Option<Path> {
        self.routes.path_ecmp(&self.topology, src, dst, salt)
    }

    /// Devices on which `task` may legally run: honors pinning, tier range,
    /// and memory floor.
    ///
    /// # Panics
    /// If no device satisfies the constraints — that is a workload/fleet
    /// mismatch the caller should fix, not a schedulable state.
    pub fn feasible_devices(&self, task: &Task) -> Vec<DeviceId> {
        let c = &task.constraints;
        let out: Vec<DeviceId> = self
            .fleet
            .devices()
            .iter()
            .filter(|d| c.pinned_node.is_none_or(|pin| d.node == pin) && admits(c, &d.spec))
            .map(|d| d.id)
            .collect();
        if out.is_empty() {
            no_feasible_device(task);
        }
        out
    }

    /// Mean per-core compute speed across the fleet (flop/s), used by
    /// rank computations.
    pub fn mean_core_flops(&self) -> f64 {
        let fleet = &self.fleet;
        let total: f64 = fleet
            .devices()
            .iter()
            .map(|d| d.spec.flops_per_core())
            .sum();
        total / fleet.len() as f64
    }

    /// Mean link bandwidth across the topology (bytes/s).
    pub fn mean_bandwidth(&self) -> f64 {
        let links = self.topology.links();
        if links.is_empty() {
            return f64::INFINITY;
        }
        links.iter().map(|l| l.bandwidth_bps).sum::<f64>() / links.len() as f64
    }
}

/// Whether a device with `spec` meets `c`'s tier range and memory floor
/// (pinning is a property of the device's node, not its spec).
pub(crate) fn admits(c: &Constraints, spec: &DeviceSpec) -> bool {
    c.tier_range
        .is_none_or(|(lo, hi)| spec.tier >= lo && spec.tier <= hi)
        && spec.mem_bytes >= c.min_mem_bytes
}

/// The panic every placement path raises for a task no device can host.
pub(crate) fn no_feasible_device(task: &Task) -> ! {
    let c = &task.constraints;
    panic!(
        "task '{}' has no feasible device (pin={:?}, tiers={:?}, mem>={})",
        task.name, c.pinned_node, c.tier_range, c.min_mem_bytes
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec, Tier};
    use continuum_workflow::{Constraints, TaskId};

    fn small_env() -> Env {
        let built = continuum(&ContinuumSpec::default());
        let fleet = standard_fleet(&built);
        Env::new(built.topology, fleet)
    }

    fn task_with(constraints: Constraints) -> Task {
        Task {
            id: TaskId(0),
            name: "t".into(),
            work_flops: 1.0,
            parallelism: 1,
            inputs: vec![],
            outputs: vec![],
            constraints,
        }
    }

    #[test]
    fn unconstrained_task_runs_anywhere() {
        let env = small_env();
        let t = task_with(Constraints::none());
        assert_eq!(env.feasible_devices(&t).len(), env.fleet.len());
    }

    #[test]
    fn tier_range_filters() {
        let env = small_env();
        let t = task_with(Constraints::tiers(Tier::Cloud, Tier::Cloud));
        let devs = env.feasible_devices(&t);
        assert!(!devs.is_empty());
        for d in devs {
            assert_eq!(env.fleet.device(d).spec.tier, Tier::Cloud);
        }
    }

    #[test]
    fn memory_floor_filters_motes() {
        let env = small_env();
        let t = task_with(Constraints {
            min_mem_bytes: 1 << 30,
            ..Default::default()
        });
        let devs = env.feasible_devices(&t);
        for d in devs {
            assert!(env.fleet.device(d).spec.mem_bytes >= 1 << 30);
        }
    }

    #[test]
    fn pinned_task_stays_home() {
        let env = small_env();
        let node = env.fleet.devices()[0].node;
        let t = task_with(Constraints::pinned(node));
        let devs = env.feasible_devices(&t);
        for d in devs {
            assert_eq!(env.node_of(d), node);
        }
    }

    #[test]
    #[should_panic(expected = "no feasible device")]
    fn infeasible_task_panics() {
        let env = small_env();
        let t = task_with(Constraints {
            min_mem_bytes: u64::MAX,
            ..Default::default()
        });
        env.feasible_devices(&t);
    }

    #[test]
    fn means_positive() {
        let env = small_env();
        assert!(env.mean_core_flops() > 0.0);
        assert!(env.mean_bandwidth() > 0.0);
    }
}
