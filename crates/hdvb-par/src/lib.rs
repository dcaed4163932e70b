//! `hdvb-par` — the HD-VideoBench execution engine.
//!
//! A work-stealing thread pool built only on `std` (`std::thread`,
//! `Mutex`, `Condvar`): each worker owns a double-ended task queue
//! (newest-first for its own work, oldest-first for thieves), external
//! submissions land in a global injector, and idle workers park on a
//! condition variable. On top of the pool sit three structured
//! interfaces:
//!
//! * [`ThreadPool::scope`] — spawn borrowing tasks and join them all
//!   before the scope returns (panics are re-thrown at the join point);
//! * [`ThreadPool::par_map`] / [`ThreadPool::par_chunks`] — ordered
//!   parallel maps whose outputs always match the serial order of the
//!   inputs, with per-task panic isolation surfaced as [`TaskPanic`]
//!   errors instead of poisoning the pool;
//! * [`ThreadPool::stats`] — per-worker busy time and task counts, so
//!   harness reports can show utilisation and wall-vs-CPU time.
//!
//! The waiting thread of a scope *helps*: while its tasks are
//! outstanding it steals and runs queued work, which both keeps the CPU
//! saturated and makes nested scopes deadlock-free even on a one-worker
//! pool.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cancel;
mod pool;

pub use cancel::{CancelToken, Cancelled};
pub use pool::{panic_text, PoolStats, Scope, TaskPanic, ThreadPool, WorkerStats};
