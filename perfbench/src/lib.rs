//! The Dordis end-to-end benchmark: a production `Session` on the
//! coordinator thread, a lockstep client fleet on one more thread, three
//! workloads, per-round correctness checks, and an optional traced run
//! that attributes the round to its layers.
//!
//! ```sh
//! python3 perfbench/run.py --workload wide-cohort --seed 1 --seconds 10 --trace 0
//! ```

pub mod fleet;
pub mod probe;
pub mod report;
pub mod runner;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
