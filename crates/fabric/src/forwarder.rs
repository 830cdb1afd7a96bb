//! The federation's forwarding layer: site selection and route-cached
//! payload transfers.
//!
//! Every invocation enters the federation at one origin node and is
//! *forwarded* to a site broker, which dispatches it onto one of the
//! site's endpoints. Payload legs (origin → endpoint, endpoint → origin)
//! are timed with the analytic path model, but the [`Path`] lookups are
//! memoized in the epoch-tagged [`RouteCache`] shared across all sites: a
//! fabric run resolves the same (origin, endpoint-node) pairs thousands of
//! times, and the cache turns each repeat into a hash probe instead of a
//! predecessor walk. Because
//! the cached value is exactly what recomputing would return (the cache
//! invariant), forwarded transfers stay bit-identical to the uncached
//! path computation — the federation's single-broker identity depends
//! on this.

use continuum_net::{NodeId, RouteCache, RouteCacheStats};
use continuum_placement::Env;
use continuum_sim::SimDuration;

use crate::broker::RoutingPolicy;

/// Site-selection and transfer-timing state shared by all sites of one
/// federation run.
#[derive(Debug)]
pub struct Forwarder {
    cache: RouteCache,
    /// Site-level round-robin cursor (endpoint-level cursors live with
    /// the sites).
    rr_site: usize,
}

impl Default for Forwarder {
    fn default() -> Self {
        Forwarder::new()
    }
}

impl Forwarder {
    /// A fresh forwarder with an empty route cache.
    pub fn new() -> Forwarder {
        Forwarder {
            // Working set: one class-0 entry per (origin, endpoint-node)
            // pair in each direction; pre-size for a mid-size fabric.
            cache: RouteCache::with_capacity(1 << 12),
            rr_site: 0,
        }
    }

    /// Transfer time for `bytes` from `src` to `dst` over the cached
    /// canonical route; `None` iff the pair is disconnected.
    ///
    /// Bit-identical to `env.path(src, dst)?.transfer_time(bytes)` — the
    /// cache memoizes the identical computation under class 0.
    pub fn transfer(
        &mut self,
        env: &Env,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Option<SimDuration> {
        self.cache
            .route_with(src, dst, 0, || env.path(src, dst))
            .map(|p| p.transfer_time(bytes))
    }

    /// Pick the site a fresh (or re-routed) invocation is forwarded to.
    ///
    /// `live[s]` marks sites that are up, not suspected down, and own at
    /// least one routable endpoint; `outstanding[s]` is the site's
    /// assigned-but-unresponded count; `brokers[s]` is the site broker's
    /// home node. Returns `None` iff no site is live.
    ///
    /// Policies mirror the endpoint-level [`RoutingPolicy`] one level up:
    /// round-robin cycles live sites, least-outstanding picks the least
    /// loaded site (ties by id), locality picks the site whose broker is
    /// cheapest to reach from `origin` (ties by id). With a single live
    /// site every policy collapses to that site, which is what makes a
    /// 1-site federation a single broker.
    #[allow(clippy::too_many_arguments)]
    pub fn choose_site(
        &mut self,
        env: &Env,
        policy: RoutingPolicy,
        live: &[bool],
        outstanding: &[u64],
        brokers: &[NodeId],
        origin: NodeId,
        in_bytes: u64,
    ) -> Option<usize> {
        let n_live = live.iter().filter(|&&b| b).count();
        if n_live == 0 {
            return None;
        }
        match policy {
            RoutingPolicy::RoundRobin => {
                let k = self.rr_site % n_live;
                self.rr_site += 1;
                live.iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .nth(k)
                    .map(|(s, _)| s)
            }
            RoutingPolicy::LeastOutstanding => (0..live.len())
                .filter(|&s| live[s])
                .min_by_key(|&s| (outstanding[s], s)),
            RoutingPolicy::Locality => (0..live.len())
                .filter(|&s| live[s])
                .filter_map(|s| {
                    self.transfer(env, origin, brokers[s], in_bytes)
                        .map(|t| (t, s))
                })
                .min()
                .map(|(_, s)| s),
        }
    }

    /// Lifetime route-cache counters (hits, misses, epoch bumps, epoch).
    pub fn cache_stats(&self) -> RouteCacheStats {
        self.cache.snapshot()
    }

    /// Publish the forwarder's route-cache counters under `prefix`.
    pub fn publish_metrics(&self, reg: &continuum_obs::MetricsRegistry, prefix: &str) {
        self.cache.publish_metrics(reg, prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};

    fn world() -> (Env, Vec<NodeId>) {
        let built = continuum(&ContinuumSpec::default());
        let sensors = built.sensors.clone();
        (
            Env::new(built.topology.clone(), standard_fleet(&built)),
            sensors,
        )
    }

    #[test]
    fn transfer_matches_uncached_path_and_hits_on_repeat() {
        let (env, sensors) = world();
        let mut fwd = Forwarder::new();
        let dst = env.fleet.devices()[0].node;
        let bytes = 200 << 10;
        let want = env.path(sensors[0], dst).unwrap().transfer_time(bytes);
        assert_eq!(fwd.transfer(&env, sensors[0], dst, bytes), Some(want));
        assert_eq!(fwd.transfer(&env, sensors[0], dst, bytes), Some(want));
        let s = fwd.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn choose_site_round_robin_cycles_live_sites() {
        let (env, sensors) = world();
        let mut fwd = Forwarder::new();
        let brokers = vec![sensors[0], sensors[1], sensors[2]];
        let live = vec![true, false, true];
        let out = vec![0, 0, 0];
        let picks: Vec<_> = (0..4)
            .map(|_| {
                fwd.choose_site(
                    &env,
                    RoutingPolicy::RoundRobin,
                    &live,
                    &out,
                    &brokers,
                    sensors[0],
                    1024,
                )
                .unwrap()
            })
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn choose_site_none_when_all_dead() {
        let (env, sensors) = world();
        let mut fwd = Forwarder::new();
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::Locality,
        ] {
            assert_eq!(
                fwd.choose_site(
                    &env,
                    policy,
                    &[false, false],
                    &[0, 0],
                    &[sensors[0], sensors[1]],
                    sensors[0],
                    1024,
                ),
                None
            );
        }
    }

    #[test]
    fn choose_site_least_outstanding_prefers_idle() {
        let (env, sensors) = world();
        let mut fwd = Forwarder::new();
        let brokers = vec![sensors[0], sensors[1]];
        let got = fwd.choose_site(
            &env,
            RoutingPolicy::LeastOutstanding,
            &[true, true],
            &[5, 2],
            &brokers,
            sensors[0],
            1024,
        );
        assert_eq!(got, Some(1));
    }
}
