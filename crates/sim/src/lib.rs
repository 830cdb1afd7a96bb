//! # continuum-sim
//!
//! Deterministic discrete-event simulation kernel underlying the
//! `coding-the-continuum` reproduction.
//!
//! The physical testbed the keynote's experiments would require — a fleet
//! spanning sensors, edge boxes, fog servers, clouds, and supercomputers —
//! is not available, so every experiment in this repository runs on virtual
//! time provided by this crate. The kernel is deliberately small:
//!
//! - [`time`]: integer-nanosecond virtual time ([`SimTime`], [`SimDuration`]).
//! - [`events`]: a cancellable event calendar with deterministic tie-breaking
//!   ([`EventQueue`]).
//! - [`rng`]: a self-contained xoshiro256\*\* PRNG and the distributions the
//!   workload generators need ([`Rng`]).
//! - [`stats`]: online statistics for the experiment harness.
//!
//! Determinism contract: for a fixed seed and workload, every simulation in
//! this workspace produces bit-identical results across runs and platforms.

#![warn(missing_docs)]

pub mod events;
pub mod fault;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use events::{EventId, EventQueue, QueueStats};
pub use fault::{FaultEvent, FaultKind, FaultProcess, FaultSchedule, FaultScheduleSpec};
pub use rng::Rng;
pub use shard::{ConservativeDriver, Envelope, ShardModel, WindowStats};
pub use stats::{jain_fairness, Histogram, OnlineStats, Percentiles, TimeWeighted};
pub use time::{SimDuration, SimTime, NANOS_PER_SEC};
