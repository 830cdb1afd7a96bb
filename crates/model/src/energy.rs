//! Energy accounting.
//!
//! The model is the standard linear one: a device draws `idle_watts`
//! whenever powered, plus `watts_per_busy_core` for each busy core. The
//! meter accumulates joules per device from busy-interval reports and can
//! fold in idle energy over a makespan.

use crate::device::DeviceId;
use crate::fleet::Fleet;
use continuum_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Accumulates busy-time energy per device.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EnergyMeter {
    busy_joules: Vec<f64>,  // indexed by DeviceId
    busy_seconds: Vec<f64>, // core-seconds of busy time
}

impl EnergyMeter {
    /// Meter sized for a fleet.
    pub fn new(fleet: &Fleet) -> Self {
        EnergyMeter {
            busy_joules: vec![0.0; fleet.len()],
            busy_seconds: vec![0.0; fleet.len()],
        }
    }

    /// Record that `cores` cores of `device` were busy for `dur`.
    pub fn record_busy(&mut self, fleet: &Fleet, device: DeviceId, cores: u32, dur: SimDuration) {
        let spec = &fleet.device(device).spec;
        let secs = dur.as_secs_f64();
        self.busy_joules[device.0 as usize] += spec.watts_per_busy_core() * cores as f64 * secs;
        self.busy_seconds[device.0 as usize] += cores as f64 * secs;
    }

    /// Fold another meter for the same fleet into this one, device by
    /// device. Used when merging per-shard runs: each device accumulates
    /// busy time in exactly one shard, so for every index one operand is
    /// 0.0 and the elementwise add is bit-exact.
    ///
    /// # Panics
    /// If the meters were sized for different fleets.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.busy_joules.len(),
            other.busy_joules.len(),
            "merging energy meters of different fleets"
        );
        for (a, b) in self.busy_joules.iter_mut().zip(&other.busy_joules) {
            *a += b;
        }
        for (a, b) in self.busy_seconds.iter_mut().zip(&other.busy_seconds) {
            *a += b;
        }
    }

    /// Dynamic (busy) energy of one device, joules.
    pub fn busy_joules(&self, device: DeviceId) -> f64 {
        self.busy_joules[device.0 as usize]
    }

    /// Total dynamic energy across the fleet, joules.
    pub fn total_busy_joules(&self) -> f64 {
        self.busy_joules.iter().sum()
    }

    /// Total core-seconds of busy time across the fleet.
    pub fn total_busy_core_seconds(&self) -> f64 {
        self.busy_seconds.iter().sum()
    }

    /// Total energy including idle draw of every device over `makespan`
    /// (the whole fleet is assumed powered for the whole run).
    pub fn total_joules_with_idle(&self, fleet: &Fleet, makespan: SimDuration) -> f64 {
        let idle: f64 = fleet
            .devices()
            .iter()
            .map(|d| d.spec.idle_watts * makespan.as_secs_f64())
            .sum();
        idle + self.total_busy_joules()
    }

    /// Dynamic energy only of the devices actually used (nonzero busy time),
    /// plus their idle draw over the makespan. Models powering unused
    /// devices off — the "provision what you use" comparison point.
    pub fn used_devices_joules(&self, fleet: &Fleet, makespan: SimDuration) -> f64 {
        self.used_joules(fleet, makespan, fleet.devices().iter().map(|d| d.id))
    }

    /// [`Self::used_devices_joules`] summed over `devices` alone, which
    /// must be in ascending id order and include every device with busy
    /// time. The sum is then bit-identical to the fleet-wide one: the
    /// devices skipped contribute no term.
    pub fn used_devices_joules_of(
        &self,
        fleet: &Fleet,
        makespan: SimDuration,
        devices: &[DeviceId],
    ) -> f64 {
        self.used_joules(fleet, makespan, devices.iter().copied())
    }

    fn used_joules(
        &self,
        fleet: &Fleet,
        makespan: SimDuration,
        devices: impl Iterator<Item = DeviceId>,
    ) -> f64 {
        let mut total = 0.0;
        for id in devices {
            let i = id.0 as usize;
            if self.busy_seconds[i] > 0.0 {
                total +=
                    fleet.device(id).spec.idle_watts * makespan.as_secs_f64() + self.busy_joules[i];
            }
        }
        total
    }

    /// Zero the accumulators of `devices`, keeping the allocation, so one
    /// meter can score many schedules.
    pub fn clear_devices(&mut self, devices: &[DeviceId]) {
        for d in devices {
            self.busy_joules[d.0 as usize] = 0.0;
            self.busy_seconds[d.0 as usize] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;
    use continuum_net::{Tier, Topology};

    fn one_device_fleet() -> (Fleet, DeviceId) {
        let mut topo = Topology::new();
        let n = topo.add_node("x", Tier::Edge);
        let mut fleet = Fleet::new();
        let d = fleet.add_class(n, DeviceClass::EdgeGateway);
        (fleet, d)
    }

    #[test]
    fn busy_energy_linear_in_time_and_cores() {
        let (fleet, d) = one_device_fleet();
        let mut m = EnergyMeter::new(&fleet);
        m.record_busy(&fleet, d, 1, SimDuration::from_secs(10));
        let one = m.busy_joules(d);
        m.record_busy(&fleet, d, 2, SimDuration::from_secs(10));
        assert!((m.busy_joules(d) - 3.0 * one).abs() < 1e-9);
    }

    #[test]
    fn idle_energy_added_over_makespan() {
        let (fleet, d) = one_device_fleet();
        let mut m = EnergyMeter::new(&fleet);
        m.record_busy(&fleet, d, 1, SimDuration::from_secs(1));
        let spec = &fleet.device(d).spec;
        let total = m.total_joules_with_idle(&fleet, SimDuration::from_secs(100));
        let expected = spec.idle_watts * 100.0 + spec.watts_per_busy_core();
        assert!((total - expected).abs() < 1e-9);
    }

    #[test]
    fn unused_devices_excluded_when_powered_off() {
        let mut topo = Topology::new();
        let a = topo.add_node("a", Tier::Edge);
        let b = topo.add_node("b", Tier::Edge);
        let mut fleet = Fleet::new();
        let da = fleet.add_class(a, DeviceClass::EdgeGateway);
        let _db = fleet.add_class(b, DeviceClass::EdgeGateway);
        let mut m = EnergyMeter::new(&fleet);
        m.record_busy(&fleet, da, 1, SimDuration::from_secs(1));
        let all_on = m.total_joules_with_idle(&fleet, SimDuration::from_secs(10));
        let used_only = m.used_devices_joules(&fleet, SimDuration::from_secs(10));
        assert!(used_only < all_on);
        assert!(used_only > 0.0);
    }
}
