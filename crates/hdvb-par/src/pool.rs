//! The work-stealing thread pool.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A type-erased unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, recovering from poisoning.
///
/// No pool invariant spans a lock region half-applied (queues are plain
/// `VecDeque` pushes/pops, flags are whole-word writes), so a panic
/// between lock and unlock leaves the data consistent and the guard can
/// be taken over safely. Without this, one panicking task could poison
/// a queue mutex and cascade `.expect()` panics through every worker
/// that touches it afterwards, silently shrinking the pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// `(pool identity, worker index)` of the pool worker running on
    /// this thread, if any. The identity disambiguates nested pools.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// Per-worker deques: owners pop newest-first, thieves steal
    /// oldest-first.
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Queue for tasks submitted from outside the pool's threads.
    injector: Mutex<VecDeque<Task>>,
    /// Shutdown flag; guarded by the mutex the workers park on.
    shutdown: Mutex<bool>,
    /// Parking spot for idle workers.
    wakeup: Condvar,
    /// Per-worker nanoseconds spent running tasks.
    busy_nanos: Vec<AtomicU64>,
    /// Per-worker completed-task counts.
    tasks_run: Vec<AtomicU64>,
    /// Per-worker counts of tasks obtained from another worker's deque.
    steals: Vec<AtomicU64>,
    /// Per-worker counts of condvar parks.
    parks: Vec<AtomicU64>,
    /// Per-worker nanoseconds spent parked waiting for work.
    idle_nanos: Vec<AtomicU64>,
    /// Busy nanoseconds contributed by scope-waiting caller threads.
    caller_busy_nanos: AtomicU64,
    /// Tasks run by scope-waiting caller threads.
    caller_tasks: AtomicU64,
    /// Steals performed by scope-waiting caller threads.
    caller_steals: AtomicU64,
}

impl Shared {
    fn identity(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn has_work(&self) -> bool {
        if !lock(&self.injector).is_empty() {
            return true;
        }
        self.locals.iter().any(|q| !lock(q).is_empty())
    }

    /// Pops a task: own deque first (LIFO), then the injector, then
    /// steals from the other workers (FIFO). The flag is `true` when the
    /// task came from *another* worker's deque (a steal).
    fn find_task(&self, me: Option<usize>) -> Option<(Task, bool)> {
        if let Some(i) = me {
            if let Some(t) = lock(&self.locals[i]).pop_back() {
                return Some((t, false));
            }
        }
        if let Some(t) = lock(&self.injector).pop_front() {
            return Some((t, false));
        }
        let n = self.locals.len();
        let start = me.map_or(0, |i| i + 1);
        for k in 0..n {
            let j = (start + k) % n;
            if Some(j) == me {
                continue;
            }
            if let Some(t) = lock(&self.locals[j]).pop_front() {
                return Some((t, true));
            }
        }
        None
    }

    /// Runs one task with panic isolation, attributing its busy time to
    /// worker `slot` (or to the caller counters when `None`).
    fn run_task(&self, slot: Option<usize>, task: Task, stolen: bool) {
        let _span = hdvb_trace::span!(hdvb_trace::Stage::Task);
        hdvb_trace::counter_add(hdvb_trace::Counter::Executed, 1);
        if stolen {
            hdvb_trace::counter_add(hdvb_trace::Counter::Steal, 1);
        }
        let t0 = Instant::now();
        // A panicking task must poison only its own job: scope/par_map
        // wrappers record the payload; this backstop keeps the worker
        // thread itself alive either way. The payload's own Drop may
        // panic too (a fresh panic, since unwinding already finished),
        // so containing it needs a second catch.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            let _ = catch_unwind(AssertUnwindSafe(move || drop(payload)));
        }
        let nanos = t0.elapsed().as_nanos() as u64;
        match slot {
            Some(i) => {
                self.busy_nanos[i].fetch_add(nanos, Ordering::Relaxed);
                self.tasks_run[i].fetch_add(1, Ordering::Relaxed);
                if stolen {
                    self.steals[i].fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.caller_busy_nanos.fetch_add(nanos, Ordering::Relaxed);
                self.caller_tasks.fetch_add(1, Ordering::Relaxed);
                if stolen {
                    self.caller_steals.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER.set(Some((shared.identity(), index)));
    // Respawn guard: the body only unwinds if something escapes the
    // per-task panic isolation (e.g. tracing or queue bookkeeping
    // panicking outside `run_task`'s catch). Restarting the loop in
    // place keeps the worker slot alive, so a pool that absorbed a
    // panic retains its full lane count instead of quietly running
    // one thread short for the rest of the process.
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_body(&shared, index))) {
            Ok(()) => break,
            Err(payload) => {
                let _ = catch_unwind(AssertUnwindSafe(move || drop(payload)));
            }
        }
    }
}

fn worker_body(shared: &Shared, index: usize) {
    loop {
        if let Some((task, stolen)) = shared.find_task(Some(index)) {
            shared.run_task(Some(index), task, stolen);
            continue;
        }
        let guard = lock(&shared.shutdown);
        // Re-check under the park lock: every submitter pushes first and
        // only then takes this lock to notify, so a task pushed before
        // this check is visible, and one pushed after will find us
        // already waiting.
        if shared.has_work() {
            continue;
        }
        if *guard {
            break;
        }
        shared.parks[index].fetch_add(1, Ordering::Relaxed);
        hdvb_trace::counter_add(hdvb_trace::Counter::Park, 1);
        let _idle_span = hdvb_trace::span!(hdvb_trace::Stage::WorkerIdle);
        let t0 = Instant::now();
        drop(shared.wakeup.wait(guard).unwrap_or_else(|e| e.into_inner()));
        shared.idle_nanos[index].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool drains all queued tasks, then joins the workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            shutdown: Mutex::new(false),
            wakeup: Condvar::new(),
            busy_nanos: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            tasks_run: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            steals: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            parks: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            idle_nanos: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            caller_busy_nanos: AtomicU64::new(0),
            caller_tasks: AtomicU64::new(0),
            caller_steals: AtomicU64::new(0),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hdvb-par-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawning pool worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`).
    pub fn with_default_threads() -> Self {
        Self::new(Self::default_threads())
    }

    /// The machine's available parallelism (1 if it cannot be queried).
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    /// Number of worker threads.
    pub fn thread_count(&self) -> usize {
        self.handles.len()
    }

    /// Queues a free-standing task.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.submit(Box::new(f));
    }

    fn submit(&self, task: Task) {
        let id = self.shared.identity();
        match WORKER.get() {
            // Tasks spawned from inside a worker go to its own deque
            // (LIFO for locality); thieves take them oldest-first.
            Some((pool, index)) if pool == id => {
                lock(&self.shared.locals[index]).push_back(task);
            }
            _ => {
                lock(&self.shared.injector).push_back(task);
            }
        }
        let _guard = lock(&self.shared.shutdown);
        self.shared.wakeup.notify_all();
    }

    /// Runs `f` with a [`Scope`] on which borrowing tasks can be
    /// spawned, and returns once every spawned task has finished.
    ///
    /// The calling thread helps run pool tasks while it waits, so
    /// nested scopes cannot deadlock even on a single-worker pool.
    ///
    /// # Panics
    ///
    /// If `f` or any spawned task panicked, the first such panic is
    /// resumed on the caller after all tasks have been joined.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            remaining: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _scope: PhantomData,
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join unconditionally: tasks may borrow locals of f's caller,
        // so they must finish before we unwind further.
        self.wait_scope(&state);
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = lock(&state.panic).take() {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Blocks until `state.remaining == 0`, running queued tasks while
    /// waiting.
    fn wait_scope(&self, state: &ScopeState) {
        let me = match WORKER.get() {
            Some((pool, index)) if pool == self.shared.identity() => Some(index),
            _ => None,
        };
        loop {
            if *lock(&state.remaining) == 0 {
                return;
            }
            if let Some((task, stolen)) = self.shared.find_task(me) {
                self.shared.run_task(me, task, stolen);
                continue;
            }
            let remaining = lock(&state.remaining);
            if *remaining == 0 {
                return;
            }
            // The timeout is defensive only: completion always notifies
            // `done` under this lock, so a wakeup cannot be missed.
            drop(
                state
                    .done
                    .wait_timeout(remaining, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner()),
            );
        }
    }

    /// Applies `f` to every item, in parallel, returning the results in
    /// input order.
    ///
    /// # Errors
    ///
    /// [`TaskPanic`] if any invocation panicked; the pool itself stays
    /// usable and every other task still runs to completion.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, TaskPanic>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        for r in self.par_map_catch(items, f) {
            out.push(r?);
        }
        Ok(out)
    }

    /// Like [`par_map`](Self::par_map), but returns *every* slot: each
    /// element is `Ok(result)` or the [`TaskPanic`] of that invocation,
    /// in input order, so one panicking item no longer discards its
    /// siblings' completed work. This is the primitive fault-tolerant
    /// sweep runners build on.
    pub fn par_map_catch<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Result<R, TaskPanic>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        self.scope(|s| {
            for (i, item) in items.into_iter().enumerate() {
                let slot = &slots[i];
                let f = &f;
                s.spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| f(item)));
                    *lock(slot) = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(
                |(i, slot)| match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
                    Some(Ok(v)) => Ok(v),
                    Some(Err(payload)) => Err(TaskPanic {
                        index: i,
                        message: panic_text(payload),
                    }),
                    None => unreachable!("scope returned with task {i} never run"),
                },
            )
            .collect()
    }

    /// Applies `f` to consecutive chunks of `items` (the last chunk may
    /// be short), in parallel, returning results in chunk order. `f`
    /// receives the chunk index and the chunk itself.
    ///
    /// # Errors
    ///
    /// [`TaskPanic`] if any invocation panicked.
    pub fn par_chunks<T, R, F>(
        &self,
        items: &[T],
        chunk_len: usize,
        f: F,
    ) -> Result<Vec<R>, TaskPanic>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let chunks: Vec<(usize, &[T])> = items.chunks(chunk_len.max(1)).enumerate().collect();
        self.par_map(chunks, |(i, chunk)| f(i, chunk))
    }

    /// A snapshot of per-worker busy time and task counts.
    pub fn stats(&self) -> PoolStats {
        let workers = (0..self.thread_count())
            .map(|i| WorkerStats {
                busy: Duration::from_nanos(self.shared.busy_nanos[i].load(Ordering::Relaxed)),
                tasks: self.shared.tasks_run[i].load(Ordering::Relaxed),
                steals: self.shared.steals[i].load(Ordering::Relaxed),
                parks: self.shared.parks[i].load(Ordering::Relaxed),
                idle: Duration::from_nanos(self.shared.idle_nanos[i].load(Ordering::Relaxed)),
            })
            .collect();
        PoolStats {
            workers,
            caller: WorkerStats {
                busy: Duration::from_nanos(self.shared.caller_busy_nanos.load(Ordering::Relaxed)),
                tasks: self.shared.caller_tasks.load(Ordering::Relaxed),
                steals: self.shared.caller_steals.load(Ordering::Relaxed),
                parks: 0,
                idle: Duration::ZERO,
            },
        }
    }

    /// Zeroes the statistics counters (e.g. between measurement phases).
    pub fn reset_stats(&self) {
        for counters in [
            &self.shared.busy_nanos,
            &self.shared.tasks_run,
            &self.shared.steals,
            &self.shared.parks,
            &self.shared.idle_nanos,
        ] {
            for c in counters.iter() {
                c.store(0, Ordering::Relaxed);
            }
        }
        self.shared.caller_busy_nanos.store(0, Ordering::Relaxed);
        self.shared.caller_tasks.store(0, Ordering::Relaxed);
        self.shared.caller_steals.store(0, Ordering::Relaxed);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        *lock(&self.shared.shutdown) = true;
        self.shared.wakeup.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.thread_count())
            .finish()
    }
}

/// Book-keeping for one [`ThreadPool::scope`] invocation.
struct ScopeState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// Handle for spawning borrowing tasks inside [`ThreadPool::scope`].
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from the enclosing environment.
    ///
    /// A panic inside `f` is captured and re-thrown by the enclosing
    /// [`ThreadPool::scope`] call after all tasks have joined.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *lock(&self.state.remaining) += 1;
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = lock(&state.panic);
                slot.get_or_insert(payload);
            }
            let mut remaining = lock(&state.remaining);
            *remaining -= 1;
            if *remaining == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: lifetime erasure to 'static is sound because
        // ThreadPool::scope always blocks until `remaining == 0` before
        // returning (even when the scope closure panics), so the task
        // cannot outlive any 'env borrow it captured.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
        self.pool.submit(task);
    }
}

/// Error returned by the ordered parallel maps when a task panicked.
///
/// Only the panicking task is lost; every other task completes and the
/// pool remains fully usable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// Input index of the task that panicked.
    pub index: usize,
    /// Panic payload rendered as text.
    pub message: String,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Renders a caught panic payload as text — the `&str` or `String` it
/// carries, else `"<non-string panic payload>"` — and drops it with any
/// panic from the payload's own `Drop` contained.
pub fn panic_text(payload: Box<dyn Any + Send>) -> String {
    let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    };
    let _ = catch_unwind(AssertUnwindSafe(move || drop(payload)));
    message
}

/// Per-worker activity counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// Time the worker spent running tasks.
    pub busy: Duration,
    /// Number of tasks the worker completed.
    pub tasks: u64,
    /// Tasks obtained from another worker's deque.
    pub steals: u64,
    /// Times the worker parked on the wakeup condvar.
    pub parks: u64,
    /// Time spent parked waiting for work.
    pub idle: Duration,
}

/// Snapshot of the whole pool's activity.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// One entry per worker thread.
    pub workers: Vec<WorkerStats>,
    /// Work executed by caller threads while waiting inside scopes.
    pub caller: WorkerStats,
}

impl PoolStats {
    /// Total busy time across workers and helping callers.
    pub fn total_busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum::<Duration>() + self.caller.busy
    }

    /// Total tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum::<u64>() + self.caller.tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn panic_text_renders_every_payload_and_contains_its_drop() {
        struct PanicsOnDrop;
        impl Drop for PanicsOnDrop {
            fn drop(&mut self) {
                panic!("payload drop");
            }
        }
        assert_eq!(panic_text(Box::new("static")), "static");
        assert_eq!(panic_text(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_text(Box::new(7u32)), "<non-string panic payload>");
        assert_eq!(
            panic_text(Box::new(PanicsOnDrop)),
            "<non-string panic payload>"
        );
    }

    #[test]
    fn execute_runs_tasks() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.scope(|s| {
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn scope_tasks_can_borrow() {
        let pool = ThreadPool::new(3);
        let mut slots = [0u32; 16];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u32 * 3);
            }
        });
        for (i, v) in slots.iter().enumerate() {
            assert_eq!(*v, i as u32 * 3);
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let input: Vec<u64> = (0..200).collect();
        let out = pool.par_map(input.clone(), |x| x * x).unwrap();
        let expected: Vec<u64> = input.iter().map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_chunks_covers_all_items_in_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<u32> = (0..103).collect();
        let sums = pool
            .par_chunks(&items, 10, |i, chunk| (i, chunk.iter().sum::<u32>()))
            .unwrap();
        assert_eq!(sums.len(), 11);
        for (k, (i, _)) in sums.iter().enumerate() {
            assert_eq!(k, *i);
        }
        let total: u32 = sums.iter().map(|(_, s)| s).sum();
        assert_eq!(total, items.iter().sum::<u32>());
    }

    #[test]
    fn panicking_task_reports_error_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let err = pool
            .par_map(vec![0u32, 1, 2, 3], |x| {
                if x == 2 {
                    panic!("boom at {x}");
                }
                x
            })
            .unwrap_err();
        assert_eq!(err.index, 2);
        assert!(err.message.contains("boom"), "message: {}", err.message);
        // The pool must stay fully usable afterwards.
        let ok = pool.par_map(vec![1u32, 2, 3], |x| x + 1).unwrap();
        assert_eq!(ok, vec![2, 3, 4]);
    }

    #[test]
    fn par_map_catch_preserves_sibling_results() {
        let pool = ThreadPool::new(2);
        let out = pool.par_map_catch(vec![0u32, 1, 2, 3, 4], |x| {
            if x % 2 == 1 {
                panic!("odd {x}");
            }
            x * 10
        });
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[2], Ok(20));
        assert_eq!(out[4], Ok(40));
        for i in [1usize, 3] {
            let err = out[i].as_ref().unwrap_err();
            assert_eq!(err.index, i);
            assert!(err.message.contains("odd"), "message: {}", err.message);
        }
    }

    #[test]
    fn pool_keeps_full_lane_count_after_panics() {
        struct DropBomb;
        impl Drop for DropBomb {
            fn drop(&mut self) {
                if !std::thread::panicking() {
                    panic!("payload drop bomb");
                }
            }
        }
        let threads = 4;
        let pool = ThreadPool::new(threads);
        // Absorb a burst of panics, including payloads whose own Drop
        // panics — historically that second panic escaped the per-task
        // catch and killed the worker thread.
        let out = pool.par_map_catch((0..2 * threads as u32).collect::<Vec<_>>(), |x| {
            if x % 2 == 0 {
                std::panic::panic_any(DropBomb);
            }
        });
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), threads);
        // Every worker lane must still be alive and executing: flood the
        // pool with short sleeps and require each worker to have run at
        // least one. A dead lane shows up as a zero-task worker.
        pool.reset_stats();
        pool.par_map((0..64u32 * threads as u32).collect::<Vec<_>>(), |_| {
            std::thread::sleep(Duration::from_millis(1));
        })
        .unwrap();
        let stats = pool.stats();
        for (i, w) in stats.workers.iter().enumerate() {
            assert!(w.tasks > 0, "worker {i} lane lost after panic absorption");
        }
    }

    #[test]
    fn scope_rethrows_task_panic_after_joining() {
        let pool = ThreadPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let fin = Arc::clone(&finished);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("scope task panic"));
                for _ in 0..8 {
                    let fin = Arc::clone(&fin);
                    s.spawn(move || {
                        fin.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // All sibling tasks joined before the panic was rethrown.
        assert_eq!(finished.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_scopes_do_not_deadlock_on_one_worker() {
        let pool = ThreadPool::new(1);
        let out = pool
            .par_map(vec![4u64, 5, 6], |x| {
                // Inner parallel map on the same single-worker pool:
                // the waiting task helps run its children.
                let inner: u64 = std::thread::scope(|_| x); // keep types simple
                inner * 2
            })
            .unwrap();
        assert_eq!(out, vec![8, 10, 12]);
    }

    #[test]
    fn stats_account_for_work() {
        let pool = ThreadPool::new(2);
        pool.reset_stats();
        pool.par_map((0..32).collect::<Vec<u64>>(), |x| {
            std::hint::black_box((0..2_000).fold(x, |a, b| a.wrapping_mul(31).wrapping_add(b)))
        })
        .unwrap();
        let stats = pool.stats();
        assert_eq!(stats.workers.len(), 2);
        assert_eq!(stats.total_tasks(), 32);
        assert!(stats.total_busy() > Duration::ZERO);
    }

    #[test]
    fn stats_track_steals_and_parks() {
        let pool = ThreadPool::new(4);
        pool.reset_stats();
        // Tasks submitted from outside land in the injector, so a first
        // round warms the workers; spawning from inside a worker fills
        // that worker's own deque, which others must steal from.
        pool.par_map((0..4u32).collect::<Vec<_>>(), |_| {
            std::thread::sleep(Duration::from_millis(1));
        })
        .unwrap();
        pool.scope(|s| {
            s.spawn(|| {
                // Runs on some worker; its children go to that worker's
                // local deque where the three idle workers steal them.
                std::thread::scope(|_| {});
            });
        });
        // Let the pool go fully idle so park counts accumulate.
        std::thread::sleep(Duration::from_millis(5));
        let stats = pool.stats();
        assert_eq!(stats.total_tasks(), 5);
        let parks: u64 = stats.workers.iter().map(|w| w.parks).sum();
        assert!(parks > 0, "workers never parked");
        let idle: Duration = stats.workers.iter().map(|w| w.idle).sum();
        assert!(idle > Duration::ZERO, "no idle time recorded");
        // Steals never exceed executed tasks.
        let steals: u64 = stats.workers.iter().map(|w| w.steals).sum::<u64>() + stats.caller.steals;
        assert!(steals <= stats.total_tasks());
    }

    #[test]
    fn tracing_records_task_spans_and_counters() {
        let _gate = hdvb_trace_test_gate();
        hdvb_trace::set_enabled(true);
        hdvb_trace::reset();
        {
            let pool = ThreadPool::new(2);
            pool.par_map((0..16u32).collect::<Vec<_>>(), |x| x * 2)
                .unwrap();
        }
        hdvb_trace::set_enabled(false);
        let report = hdvb_trace::collect();
        // Sibling tests may run pool tasks concurrently while the flag
        // is up, so assert a lower bound rather than exact equality.
        assert!(
            report.counter_total(hdvb_trace::Counter::Executed) >= 16,
            "every task body produces one Executed count"
        );
        assert!(report.stage_count(hdvb_trace::Stage::Task) >= 16);
    }

    /// Serialises tests that toggle the process-global trace flag.
    fn hdvb_trace_test_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn empty_par_map() {
        let pool = ThreadPool::new(2);
        let out: Vec<u32> = pool.par_map(Vec::<u32>::new(), |x| x).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn drop_drains_pending_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }
}
