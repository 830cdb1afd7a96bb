//! Benchmark of the continuum simulator: four seeded workloads timed end
//! to end at one worker thread, a counting/traced run for per-layer
//! metrics (the N-thread pass among them), and outcome digests checked
//! before any timing. See `README.md` in this directory.

pub mod digest;
pub mod host;
pub mod probe;
pub mod run;
pub mod workloads;
