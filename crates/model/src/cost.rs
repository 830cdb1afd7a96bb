//! Dollar-cost accounting: occupancy billing plus egress charges.
//!
//! Cloud devices bill per-second at `usd_per_hour / 3600` while occupied by
//! tasks; bytes leaving a billing device's site are charged at
//! `egress_usd_per_gb`. Owned gear (sensors, edge, fog, HPC allocations)
//! has zero rates in the catalog, so the same meter works fleet-wide.

use crate::device::DeviceId;
use crate::fleet::Fleet;
use continuum_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Number of bytes in a (decimal) gigabyte, the billing unit.
pub const BYTES_PER_GB: f64 = 1e9;

/// Accumulates dollar costs per device.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CostMeter {
    occupancy_usd: Vec<f64>,
    egress_usd: Vec<f64>,
}

impl CostMeter {
    /// Meter sized for a fleet.
    pub fn new(fleet: &Fleet) -> Self {
        CostMeter {
            occupancy_usd: vec![0.0; fleet.len()],
            egress_usd: vec![0.0; fleet.len()],
        }
    }

    /// Record `cores` cores of `device` occupied for `dur`.
    ///
    /// Billing is per core-second: occupying 1 of 16 cores for an hour
    /// costs 1/16 of the hourly rate.
    pub fn record_occupancy(
        &mut self,
        fleet: &Fleet,
        device: DeviceId,
        cores: u32,
        dur: SimDuration,
    ) {
        let spec = &fleet.device(device).spec;
        let core_hours = cores as f64 * dur.as_secs_f64() / 3600.0;
        self.occupancy_usd[device.0 as usize] += spec.usd_per_hour * core_hours / spec.cores as f64;
    }

    /// Record `bytes` leaving `device`'s site.
    pub fn record_egress(&mut self, fleet: &Fleet, device: DeviceId, bytes: u64) {
        let spec = &fleet.device(device).spec;
        self.egress_usd[device.0 as usize] += spec.egress_usd_per_gb * bytes as f64 / BYTES_PER_GB;
    }

    /// Fold another meter for the same fleet into this one, device by
    /// device. Used when merging per-shard runs: each device bills in
    /// exactly one shard, so for every index one operand is 0.0 and the
    /// elementwise add is bit-exact.
    ///
    /// # Panics
    /// If the meters were sized for different fleets.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.occupancy_usd.len(),
            other.occupancy_usd.len(),
            "merging cost meters of different fleets"
        );
        for (a, b) in self.occupancy_usd.iter_mut().zip(&other.occupancy_usd) {
            *a += b;
        }
        for (a, b) in self.egress_usd.iter_mut().zip(&other.egress_usd) {
            *a += b;
        }
    }

    /// Occupancy dollars of one device.
    pub fn occupancy_usd(&self, device: DeviceId) -> f64 {
        self.occupancy_usd[device.0 as usize]
    }

    /// Egress dollars of one device.
    pub fn egress_usd(&self, device: DeviceId) -> f64 {
        self.egress_usd[device.0 as usize]
    }

    /// Total dollars across the fleet.
    pub fn total_usd(&self) -> f64 {
        self.occupancy_usd.iter().sum::<f64>() + self.egress_usd.iter().sum::<f64>()
    }

    /// [`Self::total_usd`] summed over `devices` alone, which must be in
    /// ascending id order and include every device with a nonzero charge.
    /// Bit-identical to the fleet-wide sum: every skipped term is `+0.0`.
    pub fn total_usd_of(&self, devices: &[DeviceId]) -> f64 {
        let occupancy: f64 = devices
            .iter()
            .map(|d| self.occupancy_usd[d.0 as usize])
            .sum();
        let egress: f64 = devices.iter().map(|d| self.egress_usd[d.0 as usize]).sum();
        occupancy + egress
    }

    /// Zero the charges of `devices`, keeping the allocation, so one meter
    /// can score many schedules.
    pub fn clear_devices(&mut self, devices: &[DeviceId]) {
        for d in devices {
            self.occupancy_usd[d.0 as usize] = 0.0;
            self.egress_usd[d.0 as usize] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;
    use continuum_net::{Tier, Topology};

    #[test]
    fn full_device_hour_bills_hourly_rate() {
        let mut topo = Topology::new();
        let n = topo.add_node("c", Tier::Cloud);
        let mut fleet = Fleet::new();
        let d = fleet.add_class(n, DeviceClass::CloudVm);
        let spec = fleet.device(d).spec.clone();
        let mut m = CostMeter::new(&fleet);
        m.record_occupancy(&fleet, d, spec.cores, SimDuration::from_secs(3600));
        assert!((m.occupancy_usd(d) - spec.usd_per_hour).abs() < 1e-9);
    }

    #[test]
    fn egress_bills_per_gb() {
        let mut topo = Topology::new();
        let n = topo.add_node("c", Tier::Cloud);
        let mut fleet = Fleet::new();
        let d = fleet.add_class(n, DeviceClass::CloudVm);
        let mut m = CostMeter::new(&fleet);
        m.record_egress(&fleet, d, 2_000_000_000);
        assert!((m.egress_usd(d) - 0.18).abs() < 1e-9);
    }

    #[test]
    fn owned_gear_is_free() {
        let mut topo = Topology::new();
        let n = topo.add_node("e", Tier::Edge);
        let mut fleet = Fleet::new();
        let d = fleet.add_class(n, DeviceClass::EdgeGateway);
        let mut m = CostMeter::new(&fleet);
        m.record_occupancy(&fleet, d, 4, SimDuration::from_secs(36_000));
        m.record_egress(&fleet, d, u32::MAX as u64);
        assert_eq!(m.total_usd(), 0.0);
    }
}
