//! Per-worker simulation scratch (`SimArena`).
//!
//! The cold path of a sweep runs thousands of layer simulations, and each
//! one used to allocate its demand-stream vectors and operand buffers from
//! scratch — millions of short-lived heap allocations whose sizes repeat
//! almost exactly between neighbouring folds and design points. A
//! [`SimArena`] keeps that scratch alive per OS thread: the fold iterator
//! fills the same [`DemandScratch`] in place via
//! `FoldDemandsRuns::next_fold`, and retired [`scalesim_memory::RunBuffer`]s
//! go back into a [`BufferPool`] for the next `DramModel`. After the first
//! layer warms a worker, its fold loop performs no steady-state heap
//! allocation.
//!
//! The arena is deliberately thread-local rather than passed down the call
//! stack: `Simulator::run_layer` is a public, re-entrant API, so per-thread
//! storage gives every worker a private arena without threading `&mut`
//! through the facade. A layer's partition tiles run on the thread that
//! runs the layer, so they all share its arena.

use std::cell::RefCell;

use scalesim_memory::BufferPool;
use scalesim_systolic::DemandScratch;

/// Reusable per-worker scratch for the layer fold loop.
///
/// One arena lives on each thread that runs simulations (executor
/// workers, the caller's own thread). All fields start empty and
/// grow to the largest working set the thread has seen.
#[derive(Debug, Default)]
pub struct SimArena {
    /// Retired operand [`scalesim_memory::RunBuffer`]s, reused by the next
    /// [`scalesim_memory::DramModel`] built on this thread.
    pub pool: BufferPool,
    /// Demand-stream scratch the fold iterator fills in place, one fold at
    /// a time: loaned via `fold_demand_runs_in` and reclaimed after each
    /// layer.
    pub demand: DemandScratch,
}

thread_local! {
    static ARENA: RefCell<SimArena> = RefCell::new(SimArena::default());
}

/// Runs `f` with this thread's [`SimArena`].
///
/// # Panics
///
/// Panics if called re-entrantly from within `f` (the arena is a single
/// mutable resource per thread).
pub fn with_arena<R>(f: impl FnOnce(&mut SimArena) -> R) -> R {
    ARENA.with(|arena| f(&mut arena.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_persists_across_calls_on_one_thread() {
        with_arena(|arena| {
            let buf = arena.pool.take(16);
            arena.pool.put(buf);
        });
        with_arena(|arena| {
            assert_eq!(arena.pool.pooled(), 1);
            // Drain so other tests on this thread see a clean pool count.
            let _ = arena.pool.take(1);
        });
    }
}
