//! Workspace-local shim of the `rayon` thread budget.
//!
//! The build container has no crates.io access, so the workspace
//! provides the one piece of rayon it uses: the thread budget.
//! [`current_num_threads`] is the number of workers a parallel loop
//! may use (the installed [`ThreadPool`]'s count, else the machine's
//! parallelism), and `ThreadPool::install` pins it for a closure.
//! `oppic_core::ExecPolicy::Par` reads the budget; the loops
//! themselves run through `oppic_core`'s one par-loop executor, which
//! starts the worker threads.

mod pool;

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};
