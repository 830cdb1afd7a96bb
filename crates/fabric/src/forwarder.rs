//! The federation's forwarding layer: site selection and payload
//! transfer timing.
//!
//! Every invocation enters the federation at one origin node and is
//! *forwarded* to a site broker, which dispatches it onto one of the
//! site's endpoints. Payload legs (origin → endpoint, endpoint → origin)
//! are timed with the analytic path model read from the dense
//! [`Env::transfer_time`] matrix that `Env::new` builds once: one indexed
//! load per leg, bit-identical to `env.path(src, dst)?.transfer_time(bytes)`
//! on the canonical path — the federation's single-broker identity
//! depends on this.
//!
//! The forwarder still reports route *hits* and *misses*: a first-touch
//! bitmap over (src, dst) node pairs counts the first lookup of a pair as
//! a miss and every repeat as a hit, which is what the memoizing route
//! cache it replaced counted while it held at most 65,536 pairs.

use continuum_net::NodeId;
use continuum_obs::MetricsRegistry;
use continuum_placement::Env;
use continuum_sim::SimDuration;

use crate::broker::RoutingPolicy;

/// Site-selection and transfer-timing state shared by all sites of one
/// federation run. One forwarder serves one [`Env`].
#[derive(Debug)]
pub struct Forwarder {
    policy: RoutingPolicy,
    /// Each site broker's home node, indexed by site.
    brokers: Vec<NodeId>,
    /// Bit `src * n + dst` is set once the pair has been looked up (`n`
    /// nodes; sized on the first lookup).
    seen: Vec<u64>,
    hits: u64,
    misses: u64,
    /// Site-level round-robin cursor (endpoint-level cursors live with
    /// the sites).
    rr_site: usize,
}

impl Forwarder {
    /// A fresh forwarder picking among the sites whose brokers live at
    /// `brokers` (indexed by site) under `policy`.
    pub fn new(policy: RoutingPolicy, brokers: Vec<NodeId>) -> Forwarder {
        Forwarder {
            policy,
            brokers,
            seen: Vec::new(),
            hits: 0,
            misses: 0,
            rr_site: 0,
        }
    }

    /// Transfer time for `bytes` from `src` to `dst` over the canonical
    /// route; `None` iff the pair is disconnected.
    ///
    /// Bit-identical to `env.path(src, dst)?.transfer_time(bytes)`.
    pub fn transfer(
        &mut self,
        env: &Env,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Option<SimDuration> {
        let n = env.xfer.node_count();
        if self.seen.is_empty() {
            self.seen = vec![0; (n * n).div_ceil(64)];
        }
        let bit = src.0 as usize * n + dst.0 as usize;
        let (word, mask) = (&mut self.seen[bit / 64], 1u64 << (bit % 64));
        if *word & mask == 0 {
            *word |= mask;
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        env.transfer_time(src, dst, bytes)
    }

    /// Pick the site a fresh (or re-routed) invocation is forwarded to.
    ///
    /// `live[s]` marks sites that are up, not suspected down, and own at
    /// least one routable endpoint; `outstanding[s]` is the site's
    /// assigned-but-unresponded count. Returns `None` iff no site is live.
    ///
    /// Policies mirror the endpoint-level [`RoutingPolicy`] one level up:
    /// round-robin cycles live sites, least-outstanding picks the least
    /// loaded site (ties by id), locality picks the site whose broker is
    /// cheapest to reach from `origin` (ties by id). With a single live
    /// site every policy collapses to that site, which is what makes a
    /// 1-site federation a single broker.
    pub fn choose_site(
        &mut self,
        env: &Env,
        live: &[bool],
        outstanding: &[u64],
        origin: NodeId,
        in_bytes: u64,
    ) -> Option<usize> {
        let n_live = live.iter().filter(|&&b| b).count();
        if n_live == 0 {
            return None;
        }
        match self.policy {
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
                    let broker = self.brokers[s];
                    self.transfer(env, origin, broker, in_bytes).map(|t| (t, s))
                })
                .min()
                .map(|(_, s)| s),
        }
    }

    /// Lifetime `(hits, misses)`: repeat and first lookups of a node pair.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Publish the forwarder's lookup counters under `prefix`, with the
    /// keys a route cache publishes (`epoch_bumps` stays 0: the matrix
    /// never changes during a run).
    pub fn publish_metrics(&self, reg: &MetricsRegistry, prefix: &str) {
        reg.record(&format!("{prefix}.hits"), self.hits);
        reg.record(&format!("{prefix}.misses"), self.misses);
        reg.record(&format!("{prefix}.epoch_bumps"), 0);
        let total = self.hits + self.misses;
        let rate = if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        };
        reg.set_gauge(&format!("{prefix}.hit_rate"), rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec, Tier};
    use std::collections::BTreeSet;

    fn world() -> (Env, Vec<NodeId>) {
        let built = continuum(&ContinuumSpec::default());
        let sensors = built.sensors.clone();
        (
            Env::new(built.topology.clone(), standard_fleet(&built)),
            sensors,
        )
    }

    #[test]
    fn transfer_matches_path_on_every_sensor_endpoint_pair() {
        let (env, sensors) = world();
        let mut devices = env.fleet.in_tier(Tier::Fog);
        devices.extend(env.fleet.in_tier(Tier::Cloud));
        let ep_nodes: Vec<NodeId> = devices.iter().map(|&d| env.node_of(d)).collect();
        let mut fwd = Forwarder::new(RoutingPolicy::RoundRobin, Vec::new());
        let bytes = 200 << 10;
        let (mut pairs, mut lookups) = (BTreeSet::new(), 0u64);
        // Two sweeps: every pair misses once, then hits on each repeat
        // (endpoints sharing a node repeat within the first sweep too).
        for _ in 0..2 {
            for &s in &sensors {
                for &e in &ep_nodes {
                    for (a, b) in [(s, e), (e, s)] {
                        let want = env.path(a, b).map(|p| p.transfer_time(bytes));
                        assert!(want.is_some(), "{a} -> {b} disconnected");
                        assert_eq!(fwd.transfer(&env, a, b, bytes), want, "{a} -> {b}");
                        pairs.insert((a, b));
                        lookups += 1;
                    }
                }
            }
        }
        let misses = pairs.len() as u64;
        assert_eq!(fwd.cache_stats(), (lookups - misses, misses));
    }

    #[test]
    fn choose_site_round_robin_cycles_live_sites() {
        let (env, sensors) = world();
        let brokers = vec![sensors[0], sensors[1], sensors[2]];
        let mut fwd = Forwarder::new(RoutingPolicy::RoundRobin, brokers);
        let live = vec![true, false, true];
        let out = vec![0, 0, 0];
        let picks: Vec<_> = (0..4)
            .map(|_| {
                fwd.choose_site(&env, &live, &out, sensors[0], 1024)
                    .unwrap()
            })
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn choose_site_none_when_all_dead() {
        let (env, sensors) = world();
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::Locality,
        ] {
            let mut fwd = Forwarder::new(policy, vec![sensors[0], sensors[1]]);
            assert_eq!(
                fwd.choose_site(&env, &[false, false], &[0, 0], sensors[0], 1024),
                None
            );
        }
    }

    #[test]
    fn choose_site_least_outstanding_prefers_idle() {
        let (env, sensors) = world();
        let brokers = vec![sensors[0], sensors[1]];
        let mut fwd = Forwarder::new(RoutingPolicy::LeastOutstanding, brokers);
        let got = fwd.choose_site(&env, &[true, true], &[5, 2], sensors[0], 1024);
        assert_eq!(got, Some(1));
    }
}
