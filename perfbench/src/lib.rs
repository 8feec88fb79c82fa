//! The benchmark's library: timing decorators, the fixed training recipe,
//! the workloads and their checks. `src/main.rs` is the command line;
//! `tests/` pins that the decorators and the traced training change nothing.

pub mod episode;
pub mod host;
pub mod serve;
pub mod stats;
pub mod timing;
pub mod train;
pub mod workloads;
