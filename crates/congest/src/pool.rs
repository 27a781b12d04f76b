//! Persistent worker pool for the engine's parallel phases.
//!
//! The workers live as long as the [`crate::Network`] that owns the pool;
//! a parallel phase hands them a borrowed closure through
//! [`WorkerPool::for_each_chunk`], which calls `f(0), …, f(k - 1)` once
//! each and returns only after every call has finished, so the borrows the
//! closure captures cannot dangle even though the worker threads are
//! `'static`.
//!
//! The handoff: the caller publishes the call in one atomic word (an epoch,
//! the chunk count and a claim counter), runs chunk 0 itself, then claims
//! further chunks from the counter alongside the workers, and waits for the
//! last one to finish. Claiming rather than assigning chunks up front means
//! a worker that wakes late delays only the chunks it gets to, and that
//! the caller takes over the rest.
//!
//! Waiting: an idle worker parks on a `Condvar` at once, and the caller,
//! once no chunk is left to claim, parks on another until the last chunk
//! finishes. Nobody busy-waits, so a pool with more threads than cores
//! costs no more than the wake-ups.
//!
//! Determinism: chunks run in an arbitrary order on arbitrary threads, so
//! callers must make chunks write to disjoint, pre-assigned slots
//! (chunk-ordered result merging). The engine's parallel phases do exactly
//! that — each chunk owns a contiguous index range of nodes.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Chunks per call: the claim counter and the chunk count are 16-bit
/// fields of [`Shared::call`].
const MAX_CHUNKS: usize = u16::MAX as usize;

/// The body of one call, as the workers see it.
type Body<'a> = &'a (dyn Fn(usize) + Sync);

/// `call` packs `epoch << 32 | chunks << 16 | next`.
fn unpack(call: u64) -> (u32, usize, usize) {
    (
        (call >> 32) as u32,
        (call >> 16) as u16 as usize,
        call as u16 as usize,
    )
}

struct Shared {
    /// The current call's epoch, its chunk count and its next unclaimed
    /// chunk, in one word: a claim is a CAS on it, so a worker that read
    /// epoch `e` can only ever claim a chunk of call `e` (unless it stalls
    /// between two loads while 2^32 further calls wrap the epoch).
    call: AtomicU64,
    /// Points at the caller's [`Body`] for the current epoch. Written
    /// before `call` publishes the epoch, read only after a claim in it
    /// succeeded, and valid until that call's `pending` reaches 0.
    body: AtomicPtr<()>,
    /// Chunks of the current call not yet finished.
    pending: AtomicUsize,
    /// The first panic of the current call, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Guards parking on `work` (workers) and `done` (the caller).
    park: Mutex<()>,
    work: Condvar,
    done: Condvar,
    /// Workers parked on `work` or about to be.
    sleepers: AtomicUsize,
    /// The caller is parked on `done` or about to be.
    caller_parked: AtomicBool,
    shutdown: AtomicBool,
}

/// Lock a mutex that guards no data (or data every write leaves valid), so
/// a poisoned lock carries nothing to distrust.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Claim and run chunks of call `epoch` until none is left.
    fn work(&self, epoch: u32) {
        let mut call = self.call.load(Ordering::Acquire);
        loop {
            let (e, chunks, next) = unpack(call);
            if e != epoch || next >= chunks {
                return;
            }
            match self.call.compare_exchange_weak(
                call,
                call + 1,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.run_chunk(next);
                    call = self.call.load(Ordering::Acquire);
                }
                Err(now) => call = now,
            }
        }
    }

    /// Run chunk `i` of the current call, which the calling thread has
    /// claimed, and count it finished.
    fn run_chunk(&self, i: usize) {
        // SAFETY: `body` was stored before the epoch this chunk was claimed
        // in was published (the claim's Acquire pairs with the caller's
        // SeqCst store of `call`), and the caller keeps the `Body` it points
        // to alive and unchanged until `pending` reaches 0, which cannot
        // happen before this chunk is counted below.
        let body: Body<'_> = unsafe { *(self.body.load(Ordering::Relaxed) as *const Body<'_>) };
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(i))) {
            lock(&self.panic).get_or_insert(p);
        }
        // `body` is not touched past this point: the caller may return.
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1
            && self.caller_parked.load(Ordering::SeqCst)
        {
            // Taking the lock orders this notify after the caller's wait
            // began (it checks `pending` under the lock before waiting).
            drop(lock(&self.park));
            self.done.notify_one();
        }
    }

    /// Wait for a call newer than epoch `seen`; `None` on shutdown.
    fn next_call(&self, seen: u32) -> Option<u32> {
        let mut guard = lock(&self.park);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let woke = loop {
            // SeqCst pairs with the caller's store of `call` then load of
            // `sleepers`: either this load sees the new call or the caller
            // sees this sleeper and notifies under the lock.
            let epoch = unpack(self.call.load(Ordering::SeqCst)).0;
            if epoch != seen {
                break Some(epoch);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break None;
            }
            guard = self
                .work
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        woke
    }

    /// The caller's wait for the current call's last chunk.
    fn wait_done(&self) {
        if self.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        self.caller_parked.store(true, Ordering::SeqCst);
        let mut guard = lock(&self.park);
        while self.pending.load(Ordering::SeqCst) != 0 {
            guard = self
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(guard);
        self.caller_parked.store(false, Ordering::SeqCst);
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0;
    while let Some(epoch) = shared.next_call(seen) {
        seen = epoch;
        shared.work(epoch);
    }
}

pub struct WorkerPool {
    shared: Arc<Shared>,
    /// The epoch of the last call; only `for_each_chunk` (`&mut self`)
    /// advances it, so there is one caller at a time.
    epoch: u32,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool with `workers` persistent workers (at least one); the
    /// thread that calls [`WorkerPool::for_each_chunk`] works beside them.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            call: AtomicU64::new(0),
            body: AtomicPtr::new(std::ptr::null_mut()),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            park: Mutex::new(()),
            work: Condvar::new(),
            done: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            caller_parked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            epoch: 0,
            handles,
        }
    }

    /// Call `f(i)` once for every `i` in `0..chunks`, spread over the
    /// calling thread (which always runs chunk 0) and the workers. Blocks
    /// until **every** call has finished — only then, if any panicked,
    /// resumes the first panic on the caller. That all-complete barrier is
    /// what makes sharing the borrowed `f` with the `'static` workers
    /// sound. At most 65 535 chunks.
    pub fn for_each_chunk(&mut self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        assert!(chunks <= MAX_CHUNKS, "{chunks} chunks exceed {MAX_CHUNKS}");
        if chunks <= 1 {
            if chunks == 1 {
                f(0);
            }
            return;
        }
        let sh = &*self.shared;
        self.epoch = self.epoch.wrapping_add(1);
        let body: Body<'_> = f;
        sh.body
            .store(&body as *const Body<'_> as *mut (), Ordering::Relaxed);
        sh.pending.store(chunks, Ordering::Relaxed);
        // Chunk 0 is the caller's, so the counter starts at 1.
        let call = (self.epoch as u64) << 32 | (chunks as u64) << 16 | 1;
        sh.call.store(call, Ordering::SeqCst);
        if sh.sleepers.load(Ordering::SeqCst) > 0 {
            drop(lock(&sh.park));
            sh.work.notify_all();
        }
        sh.run_chunk(0);
        sh.work(self.epoch);
        // No chunk may still be running when `body` goes out of scope,
        // panicked or not.
        sh.wait_done();
        if let Some(p) = lock(&sh.panic).take() {
            std::panic::resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(lock(&self.shared.park));
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A raw-pointer wrapper that lets chunks write to *disjoint* indices of a
/// shared buffer from multiple threads. `Copy` so closures can capture it
/// by value.
///
/// Safety contract (caller's obligation): every index is written by at
/// most one chunk per [`WorkerPool::for_each_chunk`] call, and the
/// underlying buffer outlives the call (guaranteed by its completion
/// barrier).
pub(crate) struct Ptr<T>(pub *mut T);

impl<T> Clone for Ptr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Ptr<T> {}

// SAFETY: see the disjointness contract above; Ptr is only constructed by
// the engine's parallel phases, which partition indices across chunks.
unsafe impl<T> Send for Ptr<T> {}
unsafe impl<T> Sync for Ptr<T> {}

impl<T> Ptr<T> {
    /// # Safety
    /// `idx` must be in bounds and not concurrently accessed by any other
    /// chunk in the same `for_each_chunk` call.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn at(&self, idx: usize) -> &mut T {
        &mut *self.0.add(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn runs_all_jobs_with_borrowed_state() {
        let mut pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..3 {
            pool.for_each_chunk(64, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 192);
    }

    #[test]
    fn disjoint_writes_land_in_order() {
        let mut pool = WorkerPool::new(3);
        let mut out = vec![0usize; 100];
        let ptr = Ptr(out.as_mut_ptr());
        pool.for_each_chunk(100, &|i| {
            // SAFETY: chunk `i` alone writes index `i`, and `out` outlives
            // the call.
            unsafe { *ptr.at(i) = i * i };
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn panics_propagate_after_all_jobs_finish() {
        let mut pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_chunk(10, &|i| {
                if i == 3 {
                    panic!("job 3 exploded");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        // Every non-panicking chunk still ran to completion.
        assert_eq!(done.load(Ordering::Relaxed), 9);
        // The pool survives a panicking call.
        pool.for_each_chunk(2, &|_| {});
    }

    /// Each of two chunks waits until the other has started: this passes
    /// only if they run at the same time.
    #[test]
    fn two_chunks_run_at_the_same_time() {
        let mut pool = WorkerPool::new(1);
        for _ in 0..20 {
            let started = AtomicUsize::new(0);
            let deadline = Instant::now() + Duration::from_secs(5);
            pool.for_each_chunk(2, &|_| {
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < 2 {
                    assert!(Instant::now() < deadline, "the other chunk never started");
                    std::thread::yield_now();
                }
            });
        }
    }

    #[test]
    fn the_caller_runs_a_chunk_of_every_call() {
        let mut pool = WorkerPool::new(3);
        let caller = std::thread::current().id();
        for chunks in [2, 3, 4, 16, 64] {
            let on_caller = AtomicUsize::new(0);
            pool.for_each_chunk(chunks, &|_| {
                if std::thread::current().id() == caller {
                    on_caller.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(on_caller.load(Ordering::Relaxed) >= 1, "{chunks} chunks");
        }
    }
}
