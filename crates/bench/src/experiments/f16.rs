//! F16 — federated fabric: batched dispatch, placement quality, and
//! site-failure takeover.
//!
//! The federation runs the fabric as per-site brokers with batched
//! dispatch (`continuum_fabric::run_federation`). This experiment sweeps
//! site count × batch size on one world and load, reporting simulated
//! service quality (throughput, latency percentiles) alongside the
//! wall-clock dispatch cost and absolute dispatch throughput
//! (invocations per wall-second) of each arm; every arm is checked for
//! conservation before it is timed. A final pair of rows crashes one
//! site mid-run to show broker-peer takeover: work is adopted by a
//! surviving site, nothing is lost, and the p99 pays the outage.

use crate::report::{f, Table};
use continuum_core::prelude::*;
use continuum_fabric::{
    endpoints_on, run_federation, sites_from_partition, Admission, Backoff, FederationCfg,
    FunctionRegistry, Invocation, RoutingPolicy, SiteFaultEvent, SiteFaults, WarmPool,
};
use continuum_net::{continuum_regions, RegionPartition};
use continuum_obs::HealthSpec;
use serde::Serialize;
use std::time::Instant;

/// One measured arm.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Arm label.
    pub arm: String,
    /// Federation sites.
    pub sites: usize,
    /// Dispatch batch size.
    pub batch: usize,
    /// A mid-run site outage was injected.
    pub site_fault: bool,
    /// Completed invocations.
    pub completed: u64,
    /// Dropped invocations (site-fault rows only; 0 elsewhere).
    pub dropped: u64,
    /// Admission-rejected invocations.
    pub rejected: u64,
    /// Sustained completions/second of simulated time.
    pub throughput_hz: f64,
    /// Median latency, seconds.
    pub p50_s: f64,
    /// 99th-percentile latency, seconds.
    pub p99_s: f64,
    /// Wall-clock cost of the run, milliseconds (best of 3).
    pub wall_ms: f64,
    /// Dispatch throughput: invocations per wall-clock second of the run.
    pub dispatch_per_s: f64,
    /// Mean drain occupancy (1.0 when batch == 1).
    pub mean_batch: f64,
    /// Site outages adopted by a surviving peer.
    pub takeovers: u64,
    /// `warm_hits / (warm_hits + cold_boots)` across all sites
    /// (0.0 when no container starts were paid).
    pub warm_hit_rate: f64,
    /// Peak short-window SLO burn rate over the run (health plane).
    pub burn_short_peak: f64,
    /// Long-window SLO burn rate at run end (health plane).
    pub burn_long: f64,
    /// Anomalies the health plane recorded (takeover, saturation).
    pub health_anomalies: u64,
}

/// Invocations per run (`CONTINUUM_SMOKE=1` shrinks the run for CI).
pub fn invocations() -> usize {
    if std::env::var("CONTINUUM_SMOKE").is_ok() {
        1_500
    } else {
        8_000
    }
}

/// Offered load, invocations/second.
pub const RATE_HZ: f64 = 800.0;

fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Run the sweep.
pub fn run() -> (Table, Vec<Row>) {
    let world = Continuum::build(&Scenario::default_continuum());
    let spec = Scenario::default_continuum().spec;
    let partition = RegionPartition::new(&world.env().topology, continuum_regions(&spec), 0);
    let mut registry = FunctionRegistry::new();
    let infer = registry.register("infer", 2e9, 10 << 10, 1 << 10);
    let mut devices = world.env().fleet.in_tier(Tier::Fog);
    devices.extend(world.env().fleet.in_tier(Tier::Cloud));
    let endpoints = endpoints_on(world.env(), &devices);
    let n = invocations();
    let mut rng = Rng::new(0xF16);
    let mut t = 0.0;
    let invs: Vec<Invocation> = (0..n)
        .map(|i| {
            t += rng.exp(RATE_HZ);
            Invocation {
                arrival: SimTime::from_secs_f64(t),
                origin: world.sensors()[i % world.sensors().len()],
                function: infer,
            }
        })
        .collect();
    let policy = RoutingPolicy::RoundRobin;
    let admission = Some(Admission {
        max_outstanding: 1_024,
    });
    let span = invs.last().expect("n > 0").arrival;

    // Every federation arm carries the health plane; burn rates are
    // measured against a 400 ms end-to-end objective.
    let hspec = HealthSpec::for_objective_ns(400_000_000);
    let mut rows = Vec::new();
    let mut table = Table::new(
        "F16 — federated fabric: batch × sites dispatch, takeover under site failure",
        &[
            "arm",
            "sites",
            "batch",
            "thpt (/s)",
            "p50 (s)",
            "p99 (s)",
            "wall (ms)",
            "dispatch (/s)",
            "takeovers",
            "warm hit",
            "burn pk",
        ],
    );
    for (sites_n, batch, fault, warm) in [
        (1usize, 1usize, false, false),
        (1, 32, false, false),
        (4, 1, false, false),
        (4, 32, false, false),
        (4, 32, false, true),
        (2, 32, true, false),
        (4, 32, true, false),
    ] {
        let sites = sites_from_partition(world.env(), &partition, &endpoints, sites_n);
        let mut cfg = FederationCfg::new(policy);
        cfg.batch = batch;
        cfg.drain_every = SimDuration::from_millis(5);
        cfg.admission = admission;
        cfg.health = Some(hspec);
        if warm {
            // One registered function against a capacity-1 pool: the
            // first start per site boots cold, everything after hits.
            cfg.warm_pool = Some(WarmPool {
                capacity: 1,
                cold_time: SimDuration::from_millis(200),
            });
        }
        if fault {
            cfg.site_faults = Some(SiteFaults {
                events: vec![
                    SiteFaultEvent {
                        at: SimTime::from_secs_f64(span.as_secs_f64() * 0.4),
                        site: 0,
                        crash: true,
                    },
                    SiteFaultEvent {
                        at: SimTime::from_secs_f64(span.as_secs_f64() * 0.4 + 10.0),
                        site: 0,
                        crash: false,
                    },
                ],
                heartbeat: SimDuration::from_millis(500),
                backoff: Backoff::default(),
                seed: 0xF16F,
            });
        }
        let rep = run_federation(world.env(), &registry, &endpoints, &sites, &invs, &cfg);
        let fab = &rep.fabric;
        assert_eq!(
            fab.completed + fab.dropped + fab.rejected,
            n as u64,
            "conservation"
        );
        let wall = best_of(3, || {
            run_federation(world.env(), &registry, &endpoints, &sites, &invs, &cfg)
        });
        let dispatch_per_s = n as f64 / (wall / 1e3);
        let (p50, _, p99) = fab.latency_percentiles();
        let arm = format!(
            "fed {}x b{}{}{}",
            sites.len(),
            batch,
            if warm { " +warm" } else { "" },
            if fault { " +crash" } else { "" }
        );
        let warm_hits: u64 = rep.sites.iter().map(|s| s.warm_hits).sum();
        let cold_boots: u64 = rep.sites.iter().map(|s| s.cold_boots).sum();
        let starts = warm_hits + cold_boots;
        let warm_hit_rate = if starts > 0 {
            warm_hits as f64 / starts as f64
        } else {
            0.0
        };
        let health = rep.health.as_ref();
        table.row(vec![
            arm.clone(),
            sites.len().to_string(),
            batch.to_string(),
            f(fab.throughput_hz),
            f(p50),
            f(p99),
            f(wall),
            f(dispatch_per_s),
            rep.takeovers.to_string(),
            f(warm_hit_rate),
            f(health.map_or(0.0, |h| h.burn_short_peak)),
        ]);
        rows.push(Row {
            arm,
            sites: sites.len(),
            batch,
            site_fault: fault,
            completed: fab.completed,
            dropped: fab.dropped,
            rejected: fab.rejected,
            throughput_hz: fab.throughput_hz,
            p50_s: p50,
            p99_s: p99,
            wall_ms: wall,
            dispatch_per_s,
            mean_batch: if rep.drains > 0 {
                rep.batched as f64 / rep.drains as f64
            } else {
                0.0
            },
            takeovers: rep.takeovers,
            warm_hit_rate,
            burn_short_peak: health.map_or(0.0, |h| h.burn_short_peak),
            burn_long: health.map_or(0.0, |h| h.burn_long),
            health_anomalies: health.map_or(0, |h| h.anomalies.len() as u64),
        });
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    #[test]
    fn federation_conserves_and_takes_over_on_site_crash() {
        // run() itself asserts per-arm conservation before timing; here
        // we pin the service-level expectations.
        let (_, rows) = super::run();
        let n = super::invocations() as u64;
        let by_arm = |a: &str| rows.iter().find(|r| r.arm == a).expect("arm");
        let id = by_arm("fed 1x b1");
        for r in &rows {
            assert_eq!(
                r.completed + r.dropped + r.rejected,
                n,
                "{}: conservation",
                r.arm
            );
            assert!(r.dispatch_per_s > 0.0, "{}: dispatch throughput", r.arm);
        }
        // Batching defers dispatch: the batched arm's median latency is
        // at least the per-invocation arm's.
        assert!(by_arm("fed 1x b32").p50_s >= id.p50_s - 1e-12);
        // The warm-pool arm pays exactly one cold boot per site for the
        // single registered function, so nearly every start is a hit.
        let warm = rows
            .iter()
            .find(|r| r.arm.ends_with("+warm"))
            .expect("warm arm");
        assert!(
            warm.warm_hit_rate > 0.9,
            "warm hit rate {} with one function against a capacity-1 pool",
            warm.warm_hit_rate
        );
        // Health plane is attached to every arm and records each takeover
        // as an anomaly.
        for r in &rows {
            assert!(r.burn_short_peak >= 0.0 && r.burn_long >= 0.0, "{}", r.arm);
        }
        for r in rows.iter().filter(|r| r.site_fault) {
            assert!(
                r.health_anomalies >= r.takeovers,
                "{}: takeover anomaly recorded",
                r.arm
            );
            assert_eq!(r.takeovers, 1, "{}: site crash must be adopted", r.arm);
            assert!(
                r.p99_s >= id.p99_s,
                "{}: outage cannot shrink the tail",
                r.arm
            );
        }
    }
}
