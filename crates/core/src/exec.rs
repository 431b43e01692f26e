//! Panic-safe execution primitives shared by the sweep engine, the
//! explore pipeline and the server worker pool.
//!
//! A simulator bug that panics must never take the host down with it —
//! and, worse, must never *hang* it: before this module existed, a
//! panicking sweep worker simply never filled its completion slot and the
//! in-order emitter waited forever. Every simulation task now runs inside
//! [`run_caught`], which converts a panic into a typed [`SimError`] that
//! the caller can poison completion slots with, surface over HTTP, or
//! print — while every other worker keeps running or exits cleanly.
//!
//! [`FaultPlan`] is the deterministic fault-injection hook used by tests
//! at every level (core sweep, explore, server engine): it matches jobs
//! by workload name and delays or panics their simulation, exercising the
//! recovery paths without real overload or real bugs.
//!
//! # The work-stealing executor
//!
//! [`Executor`] schedules a fixed set of tasks over per-worker Chase–Lev
//! deques with random stealing. Tasks are split at *layer* granularity —
//! layer costs vary by orders of magnitude with fold count, so whole-point
//! scheduling lets one unlucky worker set the tail latency of the whole
//! sweep; layer tasks let idle workers steal the remainder of an expensive
//! point. The task set is known up front, so the deques are fixed-capacity
//! rings of plain task indices: no growth, no ownership hand-off, and the
//! only unsafe-free synchronization is the classic top-CAS steal protocol.
//! Every task runs under [`run_caught`]; the first panic aborts the run
//! and is returned as the typed [`SimError`].
//!
//! Determinism is unaffected by stealing: tasks only *compute* (each
//! writes its own result slot), and result consumers assemble or emit in
//! a fixed order — which worker ran a task, and when, is invisible in the
//! output.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use scalesim_topology::Topology;

use crate::report::NetworkReport;
use crate::simulator::{telemetry_names as sim_telemetry, Simulator};

/// Metric names the executor records into the process-global registry.
pub mod telemetry_names {
    /// Counter: tasks executed by work-stealing executors (any outcome).
    pub const TASKS: &str = "scalesim_exec_tasks_total";
    /// Counter: tasks obtained by stealing from another worker's deque.
    pub const STEALS: &str = "scalesim_exec_steals_total";
}

/// A simulation task that panicked, caught at the execution boundary and
/// converted into a value. `task` names what was being simulated (the
/// workload label); `message` carries the panic payload when it was a
/// string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// What was being simulated (workload or layer label).
    pub task: String,
    /// The panic payload, when it was a string (a fixed fallback text
    /// otherwise).
    pub message: String,
}

impl SimError {
    /// An error for task `task` with panic payload `message`.
    pub fn new(task: impl Into<String>, message: impl Into<String>) -> SimError {
        SimError {
            task: task.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation of `{}` panicked: {}",
            self.task, self.message
        )
    }
}

impl std::error::Error for SimError {}

/// Runs `f` with panics caught at the boundary: a panic becomes
/// `Err(`[`SimError`]`)` tagged with `task`, instead of unwinding into
/// scope joins or thread pools. The default panic hook still prints the
/// panic to stderr first, so post-mortems keep their backtrace.
///
/// # Errors
///
/// Returns [`SimError`] if and only if `f` panicked.
pub fn run_caught<T>(task: &str, f: impl FnOnce() -> T) -> Result<T, SimError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|panic| SimError::new(task, panic_message(panic.as_ref())))
}

/// Extracts a human-readable message from a panic payload (`&str` and
/// `String` payloads; a fixed fallback otherwise).
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "simulation panicked".to_owned()
    }
}

/// Deterministic fault injection for tests: match jobs by workload name
/// and delay or panic their simulation inside the worker that runs it.
/// This is how the panic-recovery, shedding, deadline and drain paths are
/// exercised without real overload; it is a test hook, not a production
/// feature (an empty plan — the default — injects nothing).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<(String, FaultAction)>,
}

#[derive(Debug, Clone)]
enum FaultAction {
    Delay(Duration),
    Panic(String),
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Sleep `delay` inside the worker before simulating any job whose
    /// workload name is `workload` — a deterministic stand-in for a slow
    /// simulation. The delay applies at every task boundary the job
    /// crosses, so a job split into several tasks sleeps once per task.
    pub fn delay(mut self, workload: &str, delay: Duration) -> FaultPlan {
        self.rules
            .push((workload.into(), FaultAction::Delay(delay)));
        self
    }

    /// Panic with `message` instead of simulating any job whose workload
    /// name is `workload` — exercises the executor's panic recovery.
    pub fn panic(mut self, workload: &str, message: &str) -> FaultPlan {
        self.rules
            .push((workload.into(), FaultAction::Panic(message.into())));
        self
    }

    /// True when the plan has no rules (the common production case, kept
    /// cheap to test on hot paths).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Applies every matching rule for `workload`: sleeps on delay rules,
    /// panics on panic rules. Executors call this at each task boundary,
    /// inside their `catch_unwind`.
    pub fn apply(&self, workload: &str) {
        for (name, action) in &self.rules {
            if name == workload {
                match action {
                    FaultAction::Delay(d) => std::thread::sleep(*d),
                    FaultAction::Panic(msg) => panic!("{msg}"),
                }
            }
        }
    }
}

/// A fixed-capacity Chase–Lev deque of task indices.
///
/// The owner pushes and pops at the bottom; thieves race for the top
/// element with a CAS. Because the full task set is pushed before any
/// worker starts (the spawn provides the happens-before edge) and the
/// elements are plain `usize`s in atomic cells, the structure needs no
/// unsafe code and never grows: capacity is the next power of two at or
/// above the task count.
struct Deque {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buf: Box<[AtomicUsize]>,
    mask: usize,
}

enum Steal {
    Task(usize),
    Empty,
    /// Lost the top CAS to another thief (or the owner's last-element
    /// pop); the deque may still have work — try again.
    Retry,
}

impl Deque {
    fn with_capacity(tasks: usize) -> Deque {
        let cap = tasks.next_power_of_two().max(2);
        Deque {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buf: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap - 1,
        }
    }

    /// Owner-side push. Only called while distributing the task set,
    /// before any worker thread exists, so capacity is never exceeded.
    fn push(&self, task: usize) {
        let b = self.bottom.load(Ordering::Relaxed);
        self.buf[(b as usize) & self.mask].store(task, Ordering::Relaxed);
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-side pop from the bottom (LIFO for locality).
    fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let task = self.buf[(b as usize) & self.mask].load(Ordering::Relaxed);
            if t == b {
                // Single element left: race thieves for it via `top`.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                won.then_some(task)
            } else {
                Some(task)
            }
        } else {
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Thief-side steal from the top (FIFO: steals take the oldest task,
    /// which under block distribution is the start of another job).
    fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        std::sync::atomic::fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t < b {
            let task = self.buf[(t as usize) & self.mask].load(Ordering::Relaxed);
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                Steal::Task(task)
            } else {
                Steal::Retry
            }
        } else {
            Steal::Empty
        }
    }
}

/// Per-worker scheduling counters (shared, so the summary can be read
/// after the scope joins).
struct WorkerStats {
    executed: AtomicU64,
    stolen: AtomicU64,
    busy_nanos: AtomicU64,
    wall_nanos: AtomicU64,
}

impl WorkerStats {
    fn new() -> WorkerStats {
        WorkerStats {
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
        }
    }
}

/// Scheduling counters of one executor run: how much work ran, how much
/// of it moved between workers, and how busy each worker was.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecSummary {
    /// Tasks executed (including a panicking one, if any).
    pub tasks: u64,
    /// Tasks obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Per-worker busy fraction in `[0, 1]`: time spent inside task
    /// bodies over the worker's wall time in the pool.
    pub worker_busy: Vec<f64>,
}

/// A panic-safe work-stealing executor over a fixed task set.
///
/// Construction distributes task indices `0..tasks` over per-worker
/// Chase–Lev deques in contiguous blocks (so a worker's own queue holds
/// consecutive layers of the same jobs, and steals grab whole tails of
/// other jobs). Workers call [`Executor::run_worker`] — typically from a
/// scoped thread each — which loops: pop own deque, else steal from a
/// random victim, else yield until every task has retired. Each task body
/// runs under `catch_unwind`; the first panic records a typed
/// [`SimError`], aborts every worker, and is returned from the panicking
/// worker's `run_worker` so the caller can poison downstream consumers.
pub struct Executor {
    deques: Vec<Deque>,
    stats: Vec<WorkerStats>,
    /// Tasks that finished executing (successfully or by panic). Workers
    /// may only exit when this reaches `total` (or on abort): an empty
    /// deque sweep is *not* proof of completion while peers still run.
    retired: AtomicUsize,
    total: usize,
    abort: AtomicBool,
    error: Mutex<Option<SimError>>,
}

impl Executor {
    /// An executor over tasks `0..tasks` for `workers` workers, the task
    /// indices block-distributed over the workers' deques.
    pub fn new(tasks: usize, workers: usize) -> Executor {
        let workers = workers.max(1).min(tasks.max(1));
        let per = tasks.div_ceil(workers);
        let deques: Vec<Deque> = (0..workers).map(|_| Deque::with_capacity(per)).collect();
        for task in 0..tasks {
            deques[task / per].push(task);
        }
        Executor {
            deques,
            stats: (0..workers).map(|_| WorkerStats::new()).collect(),
            retired: AtomicUsize::new(0),
            total: tasks,
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    /// Actual worker count (clamped to the task count, minimum one).
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Requests an orderly stop: workers finish their current task and
    /// exit. Used by consumers that fail (e.g. a sink I/O error).
    pub fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }

    /// True once a stop was requested (by [`Executor::abort`] or a panic).
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// The first panic's typed error, if any task panicked.
    pub fn error(&self) -> Option<SimError> {
        self.error.lock().unwrap().clone()
    }

    /// Runs worker `worker`'s schedule loop until the task set is
    /// exhausted or the run aborts. `task` executes one task index (it
    /// runs under `catch_unwind`); `label` names a task for the
    /// [`SimError`] if that task panics, and is only called on panic.
    ///
    /// Returns the error if a task panicked *on this worker* — the caller
    /// owns propagation (poisoning completion slots, failing the job) so
    /// exactly one worker reports each panic.
    pub fn run_worker<F, L>(&self, worker: usize, task: F, label: L) -> Option<SimError>
    where
        F: Fn(usize),
        L: Fn(usize) -> String,
    {
        let started = Instant::now();
        let mut rng = (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let stats = &self.stats[worker];
        let mut result = None;
        while let Some(t) = self.find_task(worker, &mut rng) {
            let _span = scalesim_telemetry::trace::span_with("exec.task", || {
                vec![("task", t.to_string()), ("worker", worker.to_string())]
            });
            let task_started = Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(t)));
            stats
                .busy_nanos
                .fetch_add(task_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            stats.executed.fetch_add(1, Ordering::Relaxed);
            self.retired.fetch_add(1, Ordering::Release);
            if let Err(panic) = run {
                let err = SimError::new(label(t), panic_message(panic.as_ref()));
                {
                    // First panic wins; later ones are casualties of the
                    // abort and would only obscure the root cause.
                    let mut first = self.error.lock().unwrap();
                    if first.is_none() {
                        *first = Some(err.clone());
                    }
                }
                self.abort.store(true, Ordering::Relaxed);
                result = Some(err);
                break;
            }
        }
        stats
            .wall_nanos
            .store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// Next task for `worker`: own deque first, then a randomized sweep
    /// of the other deques, yielding between sweeps until all tasks have
    /// retired or the run aborts.
    fn find_task(&self, worker: usize, rng: &mut u64) -> Option<usize> {
        loop {
            if self.abort.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(t) = self.deques[worker].pop() {
                return Some(t);
            }
            if self.retired.load(Ordering::Acquire) >= self.total {
                return None;
            }
            let n = self.deques.len();
            let start = (xorshift(rng) as usize) % n;
            let mut stolen = None;
            for k in 0..n {
                let victim = (start + k) % n;
                if victim == worker {
                    continue;
                }
                match self.deques[victim].steal() {
                    Steal::Task(t) => {
                        stolen = Some(t);
                        break;
                    }
                    // Retry means contention, not emptiness; the next
                    // sweep (after the completion re-check) covers it.
                    Steal::Retry | Steal::Empty => {}
                }
            }
            match stolen {
                Some(t) => {
                    self.stats[worker].stolen.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
                None => std::thread::yield_now(),
            }
        }
    }

    /// Scheduling counters of the run so far (stable once every
    /// `run_worker` has returned).
    pub fn summary(&self) -> ExecSummary {
        ExecSummary {
            tasks: self
                .stats
                .iter()
                .map(|s| s.executed.load(Ordering::Relaxed))
                .sum(),
            steals: self
                .stats
                .iter()
                .map(|s| s.stolen.load(Ordering::Relaxed))
                .sum(),
            worker_busy: self
                .stats
                .iter()
                .map(|s| {
                    let wall = s.wall_nanos.load(Ordering::Relaxed);
                    if wall == 0 {
                        0.0
                    } else {
                        s.busy_nanos.load(Ordering::Relaxed) as f64 / wall as f64
                    }
                })
                .collect(),
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Simulates every layer of `topology` as independent panic-guarded tasks
/// on `workers` threads (inline on the caller when one worker suffices)
/// and assembles the per-layer reports in layer order — byte-identical to
/// [`Simulator::run_topology`], including the network-runs counter, but a
/// panicking layer (or injected fault) returns a typed [`SimError`]
/// instead of unwinding. `faults` is applied once per task, keyed by the
/// topology name; pass an empty plan outside tests.
///
/// # Errors
///
/// The first panic among the layer tasks, as a [`SimError`].
pub fn run_topology_guarded(
    sim: &Simulator,
    topology: &Topology,
    workers: usize,
    faults: &FaultPlan,
) -> Result<NetworkReport, SimError> {
    let layers: Vec<_> = topology.iter().collect();
    let name = topology.name();
    let done: Vec<Mutex<Option<crate::report::LayerReport>>> =
        (0..layers.len()).map(|_| Mutex::new(None)).collect();
    let exec = Executor::new(layers.len(), workers);
    let task = |t: usize| {
        faults.apply(name);
        let report = sim.run_layer(layers[t]);
        *done[t].lock().unwrap() = Some(report);
    };
    let label = |_: usize| name.to_owned();
    if exec.workers() == 1 {
        if let Some(err) = exec.run_worker(0, task, label) {
            return Err(err);
        }
    } else {
        std::thread::scope(|scope| {
            for worker in 0..exec.workers() {
                let exec = &exec;
                let task = &task;
                let label = &label;
                scope.spawn(move || exec.run_worker(worker, task, label));
            }
        });
        if let Some(err) = exec.error() {
            return Err(err);
        }
    }
    let reports = done
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every layer task completed")
        })
        .collect();
    scalesim_telemetry::global()
        .counter(
            sim_telemetry::NETWORK_RUNS,
            "Topologies simulated end to end.",
        )
        .inc();
    Ok(NetworkReport::new(name, reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_caught_passes_values_through() {
        assert_eq!(run_caught("t", || 41 + 1), Ok(42));
    }

    #[test]
    fn run_caught_converts_panics_to_typed_errors() {
        let err = run_caught("TF0", || panic!("boom {}", 7)).unwrap_err();
        assert_eq!(err.task, "TF0");
        assert_eq!(err.message, "boom 7");
        assert_eq!(err.to_string(), "simulation of `TF0` panicked: boom 7");
    }

    #[test]
    fn run_caught_handles_non_string_payloads() {
        let err = run_caught("t", || std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(err.message, "simulation panicked");
    }

    #[test]
    fn fault_plan_matches_by_workload() {
        let plan = FaultPlan::new().panic("bad", "injected");
        assert!(!plan.is_empty());
        plan.apply("good"); // no rule -> no effect
        let err = run_caught("bad", || plan.apply("bad")).unwrap_err();
        assert_eq!(err.message, "injected");
    }

    /// Drives `exec` with `workers` scoped threads running `task`.
    fn drive(exec: &Executor, task: impl Fn(usize) + Sync) {
        std::thread::scope(|scope| {
            for w in 0..exec.workers() {
                let exec = &exec;
                let task = &task;
                scope.spawn(move || exec.run_worker(w, task, |t| t.to_string()));
            }
        });
    }

    #[test]
    fn every_task_executes_exactly_once() {
        // Uneven task costs force stealing; the per-task counters prove
        // exactly-once execution under it.
        for workers in [1, 2, 3, 8] {
            let total = 257;
            let counts: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
            let exec = Executor::new(total, workers);
            drive(&exec, |t| {
                if t % 16 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                counts[t].fetch_add(1, Ordering::Relaxed);
            });
            for (t, count) in counts.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "task {t} ran a wrong number of times with {workers} workers"
                );
            }
            let summary = exec.summary();
            assert_eq!(summary.tasks, total as u64);
            assert_eq!(summary.worker_busy.len(), exec.workers());
            assert!(exec.error().is_none());
        }
    }

    #[test]
    fn uneven_blocks_get_rebalanced_by_stealing() {
        // All the slow tasks start on worker 0's deque; with more workers
        // than one, some of them must be stolen.
        let total = 64;
        let exec = Executor::new(total, 4);
        drive(&exec, |t| {
            if t < total / 4 {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let summary = exec.summary();
        assert_eq!(summary.tasks, total as u64);
        assert!(
            summary.steals > 0,
            "a skewed block distribution must trigger steals"
        );
    }

    #[test]
    fn a_panicking_task_aborts_the_run_with_its_error() {
        let total = 100;
        let executed = AtomicU64::new(0);
        let exec = Executor::new(total, 4);
        drive(&exec, |t| {
            executed.fetch_add(1, Ordering::Relaxed);
            if t == 17 {
                panic!("task 17 exploded");
            }
        });
        let err = exec.error().expect("panic must be recorded");
        assert_eq!(err.task, "17");
        assert_eq!(err.message, "task 17 exploded");
        assert!(exec.aborted());
        // The abort is prompt: at least the panicking task ran, but the
        // run did not insist on finishing everything.
        assert!(executed.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn external_abort_stops_workers() {
        let exec = Executor::new(1000, 2);
        exec.abort();
        drive(&exec, |_| {});
        assert_eq!(exec.summary().tasks, 0);
        assert!(exec.error().is_none());
    }

    #[test]
    fn guarded_topology_run_matches_run_topology() {
        use scalesim_topology::networks;
        let sim = Simulator::new(crate::config::SimConfig::default());
        let topology = networks::alexnet();
        let direct = sim.run_topology(&topology);
        for workers in [1, 4] {
            let guarded =
                run_topology_guarded(&sim, &topology, workers, &FaultPlan::new()).unwrap();
            assert_eq!(direct.to_csv(), guarded.to_csv());
        }
    }

    #[test]
    fn guarded_topology_run_surfaces_injected_panics() {
        use scalesim_topology::networks;
        let sim = Simulator::new(crate::config::SimConfig::default());
        let topology = networks::alexnet();
        let faults = FaultPlan::new().panic("alexnet", "guarded fault");
        for workers in [1, 3] {
            let err = run_topology_guarded(&sim, &topology, workers, &faults).unwrap_err();
            assert_eq!(err.task, "alexnet");
            assert_eq!(err.message, "guarded fault");
        }
    }
}
