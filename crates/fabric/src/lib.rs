//! # continuum-fabric
//!
//! Federated function-as-a-service fabric — the funcX analogue of the
//! `coding-the-continuum` reproduction. Functions are registered once with
//! a resource profile ([`FunctionRegistry`]); *endpoints* (worker pools on
//! fleet devices) execute them; per-site brokers route each invocation
//! under a [`RoutingPolicy`] and simulate queueing and payload movement.
//!
//! [`run_federation`] is the one event loop. [`run_fabric`] runs it as a
//! single broker: one site owning every endpoint. Both take the same
//! [`FederationCfg`].
//!
//! Experiment F7 measures throughput, latency percentiles, and endpoint
//! load balance for each routing policy.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod broker;
pub mod federation;
pub mod forwarder;
pub mod registry;

pub use broker::{
    endpoints_on, run_fabric, Admission, Autoscale, Backoff, ColdStart, Endpoint, EndpointFaults,
    EndpointId, FabricReport, Invocation, RoutingPolicy,
};
pub use federation::{
    run_federation, single_site, sites_from_partition, FederationCfg, FederationReport, Site,
    SiteFaultEvent, SiteFaults, SiteId, SiteStats, WarmPool,
};
pub use forwarder::Forwarder;
pub use registry::{FunctionId, FunctionRegistry, FunctionSpec};
