//! Dependency-free support kit for the systolic partitioning workspace.
//!
//! The build environment vendors no external crates, so the workspace
//! carries its own minimal versions of the four things it used to pull
//! from crates.io:
//!
//! * [`rng`] — a seeded, deterministic PRNG (splitmix64/xoshiro256**) for
//!   graph generators and randomized tests (replaces `rand`);
//! * [`pool`] — a persistent worker pool over `std::thread` with FIFO job
//!   dispatch and a [`pool::WaitGroup`] barrier (replaces `crossbeam`'s
//!   scoped-thread usage);
//! * [`check`] — a tiny property-test harness running seeded random cases
//!   with failure reproduction instructions (replaces `proptest`);
//! * [`mod@bench`] — a wall-clock timer with warm-up and median/mean/min
//!   reduction for the bench recorder (replaces `criterion`).
//!
//! Everything here is `std`-only and deliberately small; it exists to keep
//! the workspace building offline, not to compete with the real crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod check;
pub mod mem;
pub mod pool;
pub mod rng;

pub use bench::{black_box, time_with_setup, Timing};
pub use check::Checker;
pub use mem::peak_rss_bytes;
pub use pool::{JobPanic, WaitGroup, WorkerPool};
pub use rng::Rng;
