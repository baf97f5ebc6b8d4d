//! A small fork-join worker pool for server-side reorganization.
//!
//! The pipelined schedules in [`crate::server`] reorganize in short
//! bursts of `copy_region`/`pack_region_into` work when several
//! subchunks are ready at once. Spawning a fresh OS thread per subchunk
//! would swamp the actual copy cost, so a
//! [`ServerNode`](crate::server::ServerNode) owns one [`IoPool`] sized
//! from [`PandaConfig::io_workers`](crate::PandaConfig::io_workers)
//! (less the one thread its disk task is) and runs every burst on it.
//!
//! Two properties keep the pool deadlock-free:
//!
//! * work is only queued against a *reservation* of an idle worker
//!   ([`IoPool::run_scoped`] falls back to inline execution on the
//!   caller when no worker is free — always, on a pool of zero), so a
//!   job that forks in turn ([`IoPool::pack_region_par`] inside a
//!   scatter job) never queues work only its own blocked siblings
//!   could drain;
//! * [`IoPool::run_scoped`] never returns before every dispatched job
//!   has finished — including when a job panics — which is what makes
//!   lending non-`'static` borrows to the workers sound.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use panda_schema::{copy, Region, SchemaError};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Only split a pack into per-worker bands once it is big enough that
/// the copy dwarfs the dispatch overhead (two mutex hops per band).
const PAR_PACK_MIN_BYTES: usize = 128 * 1024;

struct State {
    jobs: VecDeque<Job>,
    /// Workers neither running a job nor holding one in the queue. Every
    /// enqueue consumes one unit ("reservation") before pushing, so
    /// `jobs.len() + running == workers - idle` is an invariant.
    idle: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    available: Condvar,
}

/// The shared worker pool. See the module docs for the dispatch rules.
pub struct IoPool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl IoPool {
    /// A pool with `workers` threads, named `panda-io-N`. Zero is
    /// valid: every job then runs inline on its caller.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                idle: workers,
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("panda-io-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn io pool worker")
            })
            .collect();
        IoPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Claim one idle worker, if any. A successful reservation must be
    /// followed by exactly one `dispatch`.
    fn try_reserve(&self) -> bool {
        let mut st = self.shared.state.lock().unwrap();
        if st.idle > 0 {
            st.idle -= 1;
            true
        } else {
            false
        }
    }

    /// Queue a job against a reservation made by `try_reserve`.
    fn dispatch(&self, job: Job) {
        let mut st = self.shared.state.lock().unwrap();
        st.jobs.push_back(job);
        drop(st);
        self.shared.available.notify_one();
    }

    /// Fork-join: run every job, spreading them over currently idle
    /// workers and executing the rest inline on the caller, and return
    /// only when all of them have finished. If any job panicked the
    /// first panic is re-raised here — after the barrier, so borrowed
    /// data never outlives a still-running worker.
    pub fn run_scoped<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if jobs.is_empty() {
            return;
        }
        let latch = Arc::new((Mutex::new(0usize), Condvar::new()));
        let first_panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> =
            Arc::new(Mutex::new(None));
        let mut inline = Vec::new();
        for job in jobs {
            if !self.try_reserve() {
                inline.push(job);
                continue;
            }
            // SAFETY: the transmute only erases the `'scope` bound on
            // the closure's captures. The job is observed through the
            // latch: it increments before dispatch, decrements as its
            // last action, and this function blocks below until the
            // count returns to zero — so every borrow the closure holds
            // is live for as long as the worker can touch it.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            *latch.0.lock().unwrap() += 1;
            let latch = Arc::clone(&latch);
            let first_panic = Arc::clone(&first_panic);
            self.dispatch(Box::new(move || {
                if let Err(p) = catch_unwind(AssertUnwindSafe(job)) {
                    first_panic.lock().unwrap().get_or_insert(p);
                }
                let mut n = latch.0.lock().unwrap();
                *n -= 1;
                if *n == 0 {
                    latch.1.notify_all();
                }
            }));
        }
        for job in inline {
            if let Err(p) = catch_unwind(AssertUnwindSafe(job)) {
                first_panic.lock().unwrap().get_or_insert(p);
            }
        }
        let mut n = latch.0.lock().unwrap();
        while *n > 0 {
            n = latch.1.wait(n).unwrap();
        }
        drop(n);
        let panic = first_panic.lock().unwrap().take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    /// [`IoPool::run_scoped`] for fallible jobs: runs every job to
    /// completion (the barrier still holds) and returns the first error
    /// any of them reported. The collective executor's reorganization
    /// stages all funnel their copy bursts through here.
    pub fn run_scoped_result<'scope, E: Send + 'scope>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> Result<(), E> + Send + 'scope>>,
    ) -> Result<(), E> {
        let error: Mutex<Option<E>> = Mutex::new(None);
        let wrapped: Vec<Box<dyn FnOnce() + Send + '_>> = jobs
            .into_iter()
            .map(|job| {
                let error = &error;
                Box::new(move || {
                    if let Err(e) = job() {
                        error.lock().unwrap().get_or_insert(e);
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run_scoped(wrapped);
        match error.into_inner().unwrap() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// [`copy::pack_region_into`] with the copy split over the pool:
    /// `sub` is cut into bands along its outermost dimension and each
    /// band packs into its own disjoint slice of `out`. Splitting along
    /// dim 0 is what makes the slices contiguous — the packed layout is
    /// row-major over `sub`, so all bytes of rows `a..b` precede those
    /// of rows `b..`. Small packs (or rank-0 regions) take the serial
    /// path unchanged.
    pub fn pack_region_par(
        &self,
        out: &mut Vec<u8>,
        src: &[u8],
        src_region: &Region,
        sub: &Region,
        elem_size: usize,
    ) -> Result<(), SchemaError> {
        let total = sub.num_bytes(elem_size);
        let rows = if sub.rank() == 0 { 1 } else { sub.extent(0) };
        let bands = self.workers().min(rows);
        if total < PAR_PACK_MIN_BYTES || bands < 2 {
            return copy::pack_region_into(out, src, src_region, sub, elem_size);
        }
        // The bands below overwrite all of `out`: only growth is filled.
        out.resize(total, 0);
        let row_bytes = total / rows;
        let mut jobs: Vec<Box<dyn FnOnce() -> Result<(), SchemaError> + Send + '_>> =
            Vec::with_capacity(bands);
        let mut rest: &mut [u8] = out;
        let lo0 = sub.lo()[0];
        for b in 0..bands {
            // Rows are dealt out as evenly as possible: the first
            // `rows % bands` bands take one extra row.
            let begin = lo0 + b * rows / bands;
            let end = lo0 + (b + 1) * rows / bands;
            let (slab, tail) = rest.split_at_mut((end - begin) * row_bytes);
            rest = tail;
            let mut lo = sub.lo().to_vec();
            let mut hi = sub.hi().to_vec();
            lo[0] = begin;
            hi[0] = end;
            let band = Region::new(&lo, &hi).expect("band of a valid region is valid");
            jobs.push(Box::new(move || {
                copy::copy_region(src, src_region, slab, &band, &band, elem_size).map(|_| ())
            }));
        }
        self.run_scoped_result(jobs)
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for IoPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.available.wait(st).unwrap();
            }
        };
        job();
        shared.state.lock().unwrap().idle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_scoped_runs_every_job_and_waits() {
        let pool = IoPool::new(3);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..20)
            .map(|_| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn a_pool_of_zero_runs_every_job_inline() {
        let pool = IoPool::new(0);
        assert_eq!(pool.workers(), 0);
        let me = thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let ran_on = &ran_on;
                Box::new(move || {
                    ran_on.lock().unwrap().push(thread::current().id());
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(*ran_on.lock().unwrap(), vec![me; 4]);
    }

    #[test]
    fn run_scoped_propagates_panics_after_the_barrier() {
        let pool = IoPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
                .map(|i| {
                    let finished = &finished;
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(jobs);
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn run_scoped_result_reports_the_first_error_after_all_jobs() {
        let pool = IoPool::new(2);
        let finished = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> Result<(), i32> + Send + '_>> = (0..6)
            .map(|i| {
                let finished = &finished;
                Box::new(move || {
                    finished.fetch_add(1, Ordering::SeqCst);
                    if i == 3 {
                        Err(3)
                    } else {
                        Ok(())
                    }
                }) as Box<dyn FnOnce() -> Result<(), i32> + Send + '_>
            })
            .collect();
        assert_eq!(pool.run_scoped_result(jobs), Err(3));
        // The barrier holds for fallible jobs too: an error does not
        // cancel the rest of the burst.
        assert_eq!(finished.load(Ordering::SeqCst), 6);
        let ok: Vec<Box<dyn FnOnce() -> Result<(), i32> + Send + '_>> = (0..2)
            .map(|_| Box::new(|| Ok(())) as Box<dyn FnOnce() -> Result<(), i32> + Send + '_>)
            .collect();
        assert_eq!(pool.run_scoped_result(ok), Ok(()));
    }

    #[test]
    fn pack_region_par_matches_serial_pack() {
        let pool = IoPool::new(4);
        let elem = 8usize;
        let enclosing = Region::new(&[0, 0], &[200, 120]).unwrap();
        let mut src = vec![0u8; enclosing.num_bytes(elem)];
        for (i, b) in src.iter_mut().enumerate() {
            *b = (i * 31 % 251) as u8;
        }
        // Big enough to split (> PAR_PACK_MIN_BYTES) and deliberately
        // not row-aligned with the band count.
        let sub = Region::new(&[3, 5], &[197, 117]).unwrap();
        let expect = copy::pack_region(&src, &enclosing, &sub, elem).unwrap();
        assert!(expect.len() >= PAR_PACK_MIN_BYTES);
        let mut got = Vec::new();
        pool.pack_region_par(&mut got, &src, &enclosing, &sub, elem)
            .unwrap();
        assert_eq!(got, expect);

        // Small packs take the serial path but must agree too.
        let tiny = Region::new(&[0, 0], &[2, 3]).unwrap();
        let expect = copy::pack_region(&src, &enclosing, &tiny, elem).unwrap();
        pool.pack_region_par(&mut got, &src, &enclosing, &tiny, elem)
            .unwrap();
        assert_eq!(got, expect);
    }
}
