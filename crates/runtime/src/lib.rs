//! # continuum-runtime
//!
//! Core contribution B of the `coding-the-continuum` reproduction: the
//! executors that turn a placement into an execution.
//!
//! - [`simrun`]: the simulated continuum executor — virtual time, FIFO core
//!   queueing per device, and max-min fair link sharing for concurrent
//!   transfers. Every experiment's "measured" numbers come from here.
//! - [`exec`]: a real multi-threaded executor with per-device capacity
//!   semaphores, used to validate that estimated schedules are realizable
//!   (experiment T3) and as a Parsl-style local runtime for user closures.
//! - [`trace`]: the execution records both executors emit.

#![warn(missing_docs)]

pub mod app;
pub mod exec;
pub mod open_loop;
pub mod shard;
pub mod simrun;
pub mod trace;

pub use app::{AppBuilder, AppHandle, AppOutcome};
pub use exec::{RealExecutor, RealTrace};
pub use open_loop::{simulate_open_loop, simulate_open_loop_sharded, OpenLoopOpts, OpenLoopReport};
pub use shard::{simulate_stream_sharded, ShardOpts};
pub use simrun::{
    simulate, simulate_stream, simulate_stream_chaos, simulate_stream_with_faults, FaultPlane,
    FaultSpec, SimOutcome, StreamRequest,
};
pub use trace::{ExecutionTrace, TaskRecord};
