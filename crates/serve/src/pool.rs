//! The engine's sim pool: `workers` persistent threads that run one
//! wave of requests at a time beside the scheduler thread.
//!
//! The threads are spawned at the first [`SimPool::launch`] and park on
//! a condition variable between waves, so an engine that never
//! launches a wave holds no thread, and a launch costs a wake-up, not a
//! spawn. A launch hands the wave to every worker: the requests, one
//! atomic cursor that gives them out in order, one outcome slot per
//! request and a count of requests not yet finished. [`SimPool::join`]
//! is a helping join: the calling thread claims and runs the wave's
//! unstarted requests itself, then waits for those the workers already
//! claimed. Outcomes come back by request index, so which thread ran a
//! request is invisible to the caller.
//!
//! Every request runs under `catch_unwind` on whichever thread claimed
//! it. A panicking request therefore never kills a worker or hangs a
//! join: the join waits for the rest of the wave and then panics with
//! `"sim wave worker panicked"`. Dropping the pool finishes (helping)
//! any wave still in flight, then stops and joins its threads.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// The function a pool runs on every request.
type ItemFn<T, U> = dyn Fn(T) -> U + Send + Sync;

/// A pool of persistent worker threads running one wave at a time (see
/// the module docs).
pub(crate) struct SimPool<T, U> {
    run: Arc<ItemFn<T, U>>,
    workers: usize,
    board: Arc<Board<T, U>>,
    threads: Vec<JoinHandle<()>>,
    /// The launched wave the pool has not yet joined.
    inflight: Option<Arc<Wave<T, U>>>,
}

/// Where parked workers wait for the next launch.
struct Board<T, U> {
    state: Mutex<Posted<T, U>>,
    wake: Condvar,
}

struct Posted<T, U> {
    /// The latest wave and how many waves were launched so far; a
    /// worker drains each launch once.
    wave: Option<Arc<Wave<T, U>>>,
    launches: u64,
    closed: bool,
}

/// One wave: its requests, the cursor that hands them out in order, and
/// the outcome slots by index.
struct Wave<T, U> {
    items: Vec<Mutex<Option<T>>>,
    cursor: AtomicUsize,
    done: Mutex<Outcomes<U>>,
    finished: Condvar,
}

struct Outcomes<U> {
    slots: Vec<Option<thread::Result<U>>>,
    /// Requests not yet finished, claimed or not.
    running: usize,
}

/// Lock `m`. Short of a bug, nothing panics while holding one of the
/// pool's locks (a request runs with none held), so a poisoned lock
/// still holds consistent state.
fn lock<X>(m: &Mutex<X>) -> MutexGuard<'_, X> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T, U> Wave<T, U> {
    fn new(items: Vec<T>) -> Self {
        let n = items.len();
        Wave {
            items: items.into_iter().map(|it| Mutex::new(Some(it))).collect(),
            cursor: AtomicUsize::new(0),
            done: Mutex::new(Outcomes {
                slots: (0..n).map(|_| None).collect(),
                running: n,
            }),
            finished: Condvar::new(),
        }
    }

    /// Claim and run requests until the cursor passes the last one.
    fn drain(&self, run: &ItemFn<T, U>) {
        loop {
            // Relaxed: the cursor only shares out indices; a request
            // itself moves through its slot's lock.
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.items.get(i) else {
                return;
            };
            let item = lock(slot).take().expect("each request is claimed once");
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| run(item)));
            let mut done = lock(&self.done);
            done.slots[i] = Some(outcome);
            done.running -= 1;
            if done.running == 0 {
                self.finished.notify_all();
            }
        }
    }

    /// Wait until every request has finished; outcomes in request order.
    fn finish(&self) -> Vec<thread::Result<U>> {
        let mut done = self
            .finished
            .wait_while(lock(&self.done), |done| done.running > 0)
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut done.slots)
            .into_iter()
            .map(|slot| slot.expect("every request finished"))
            .collect()
    }
}

impl<T: Send + 'static, U: Send + 'static> SimPool<T, U> {
    /// A pool of `workers` threads running `run` on every request. No
    /// thread starts until the first launch.
    pub(crate) fn new(workers: usize, run: impl Fn(T) -> U + Send + Sync + 'static) -> Self {
        SimPool {
            run: Arc::new(run),
            workers,
            board: Arc::new(Board {
                state: Mutex::new(Posted {
                    wave: None,
                    launches: 0,
                    closed: false,
                }),
                wake: Condvar::new(),
            }),
            threads: Vec::new(),
            inflight: None,
        }
    }

    /// Hand `items` to the workers as one wave. The pool runs one wave
    /// at a time: join the last one first.
    pub(crate) fn launch(&mut self, items: Vec<T>) {
        assert!(self.inflight.is_none(), "join the in-flight wave first");
        if self.threads.is_empty() {
            self.threads = (0..self.workers)
                .map(|_| {
                    let board = Arc::clone(&self.board);
                    let run = Arc::clone(&self.run);
                    thread::spawn(move || work(&board, &*run))
                })
                .collect();
        }
        let wave = Arc::new(Wave::new(items));
        let mut posted = lock(&self.board.state);
        posted.wave = Some(Arc::clone(&wave));
        posted.launches += 1;
        drop(posted);
        self.board.wake.notify_all();
        self.inflight = Some(wave);
    }
}

impl<T, U> SimPool<T, U> {
    /// Is a launched wave waiting to be joined?
    pub(crate) fn busy(&self) -> bool {
        self.inflight.is_some()
    }

    /// Join the in-flight wave, if any: run its unstarted requests on
    /// this thread, wait for the rest, and return the outcomes in
    /// request order.
    ///
    /// # Panics
    ///
    /// With `"sim wave worker panicked"` once the whole wave has
    /// finished, if any of its requests panicked.
    pub(crate) fn join(&mut self) -> Option<Vec<U>> {
        let wave = self.inflight.take()?;
        wave.drain(&*self.run);
        let outcomes: thread::Result<Vec<U>> = wave.finish().into_iter().collect();
        Some(outcomes.expect("sim wave worker panicked"))
    }
}

impl<T, U> Drop for SimPool<T, U> {
    /// Finish (helping) any in-flight wave, dropping its outcomes and
    /// panics, then stop and join the workers. Nothing here panics, so
    /// dropping a pool while unwinding is safe.
    fn drop(&mut self) {
        if let Some(wave) = self.inflight.take() {
            wave.drain(&*self.run);
            wave.finish();
        }
        lock(&self.board.state).closed = true;
        self.board.wake.notify_all();
        for thread in self.threads.drain(..) {
            // A worker cannot panic: its requests run under
            // `catch_unwind`.
            let _ = thread.join();
        }
    }
}

/// A worker: park until a launch or close, drain each launched wave.
fn work<T, U>(board: &Board<T, U>, run: &ItemFn<T, U>) {
    let mut seen = 0;
    loop {
        let posted = board
            .wake
            .wait_while(lock(&board.state), |p| !p.closed && p.launches == seen)
            .unwrap_or_else(PoisonError::into_inner);
        if posted.closed {
            return;
        }
        seen = posted.launches;
        let wave = posted.wave.clone();
        drop(posted);
        if let Some(wave) = wave {
            wave.drain(run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SimPool;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn waves_return_outcomes_in_request_order_at_any_worker_count() {
        for workers in [1usize, 2, 8] {
            let mut pool = SimPool::new(workers, |x: u64| x * x + 1);
            assert!(pool.join().is_none(), "nothing in flight yet");
            for len in [0u64, 1, 97] {
                pool.launch((0..len).collect());
                assert!(pool.busy());
                let want: Vec<u64> = (0..len).map(|x| x * x + 1).collect();
                assert_eq!(pool.join(), Some(want), "{workers} workers, {len} requests");
                assert!(!pool.busy());
            }
        }
    }

    /// Sends the id of the thread that drops it.
    struct DropProbe(mpsc::Sender<thread::ThreadId>);

    impl Drop for DropProbe {
        fn drop(&mut self) {
            let _ = self.0.send(thread::current().id());
        }
    }

    /// Join `pool`'s wave, which must re-raise a request's panic.
    fn join_panics(pool: &mut SimPool<usize, usize>) {
        let err = panic::catch_unwind(AssertUnwindSafe(|| pool.join()))
            .expect_err("the join re-raises the request's panic");
        let text = err.downcast_ref::<String>().expect("a formatted message");
        assert!(text.starts_with("sim wave worker panicked"), "{text}");
    }

    #[test]
    fn a_panicking_request_fails_the_join_and_the_pool_still_drops() {
        for bad in [0usize, 7] {
            // Every request reports its start on `started`. The closure
            // also holds a probe that reports which thread drops it: the
            // dropping thread if the drop joined the worker first, else
            // the worker (or no thread yet).
            let (tx, started) = mpsc::channel();
            let (gone_tx, gone) = mpsc::channel();
            let probe = DropProbe(gone_tx);
            let mut pool = SimPool::new(1, move |x: usize| {
                let _probe = &probe;
                tx.send(x).expect("the test listens");
                assert_ne!(x, bad, "request {x} panics");
                x
            });
            let wait_for = |n: usize| {
                for _ in 0..n {
                    let x = started.recv_timeout(Duration::from_secs(10));
                    x.expect("the worker runs the wave on its own");
                }
            };
            // The join helps, running what the worker has not claimed.
            pool.launch((0..8).collect());
            join_panics(&mut pool);
            wait_for(8);
            // The worker alone claims every request, the panicking one
            // included, before the join; then it runs a clean wave
            // alone, so the panic did not end it.
            pool.launch((0..8).collect());
            wait_for(8);
            join_panics(&mut pool);
            pool.launch(vec![1, 2, 3]);
            wait_for(3);
            assert_eq!(pool.join(), Some(vec![1, 2, 3]));
            // A caller that unwinds with a wave in flight drops the pool
            // mid-unwind: the drop runs the unstarted requests, the
            // panicking one included, and joins the worker before the
            // probe goes.
            let unwound = panic::catch_unwind(AssertUnwindSafe(move || {
                pool.launch((0..8).collect());
                panic!("the scheduler fails mid-wave");
            }));
            assert!(unwound.is_err());
            let dropped_on = gone.try_recv();
            assert_eq!(dropped_on, Ok(thread::current().id()), "request {bad}");
        }
    }
}
