//! # tamp-par — deterministic parallel run-orchestration
//!
//! Every multi-run workload in this workspace (chaos sweeps, shrinking,
//! the A9 scale sweep, ablation grids, the differential test suite) is a
//! map over a dense index space where each job is a *sealed
//! deterministic world* keyed by `(config, seed)`: no job observes
//! another, and the consumer wants the results **in submission order**.
//! That shape makes cross-run parallelism free speedup — as long as the
//! orchestration layer never lets execution order leak into anything a
//! consumer can observe.
//!
//! [`Pool`] enforces that contract:
//!
//! * Jobs carry a dense index `0..len`. Workers claim indices from a
//!   shared atomic counter (work-stealing order, nondeterministic) but
//!   results are re-sequenced through a [`BTreeMap`] buffer and handed
//!   to the single consumer callback strictly in index order. Anything
//!   derived from the consumer — stdout reports, CSV/JSONL exports,
//!   oracle verdict aggregation, shrink candidate adoption — is
//!   byte-identical to the sequential runner.
//! * The consumer can stop early ([`ControlFlow::Break`]): exactly the
//!   results before the break point are observed; speculative results
//!   for later indices are discarded unseen and workers quit at their
//!   next claim. Jobs must therefore be side-effect-free (print from
//!   the consumer, never from a job).
//! * A panicking job does not tear anything down by itself: its payload
//!   travels back tagged with the job index and is re-raised **when the
//!   consumer reaches that index**, so the lowest panicking index wins —
//!   the same panic the sequential loop would have surfaced — with the
//!   run index prepended to the message.
//! * `jobs == 1` short-circuits to a plain inline loop: today's exact
//!   sequential code path, no threads, no `catch_unwind`.
//!
//! The pool is std-only (`std::thread::scope`, `mpsc`, and park/unpark
//! handoffs for [`Pool::rendezvous`]): the build environment has no
//! registry access and the vendored crates are stubs, so this is
//! deliberately dependency-free.
//!
//! The full contract, and when `--jobs 1` is still required:
//! (docs/PERFORMANCE.md, "The determinism contract", "When `--jobs 1` is
//! required").

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// The worker count used when the user doesn't pass `--jobs`: the
/// `TAMP_JOBS` environment variable if set to a positive integer, else
/// [`std::thread::available_parallelism`], else 1.
pub fn default_jobs() -> usize {
    match std::env::var("TAMP_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// A deterministic scoped worker pool. Cheap to construct (holds no
/// threads — each [`Pool::ordered_scan`] call spawns and joins its own
/// scoped workers), so pass it by reference through orchestration
/// layers and nest freely (the sweep runner hands its pool to the
/// shrinker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool running `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Pool { jobs: jobs.max(1) }
    }

    /// The sequential pool: `ordered_scan` degenerates to an inline
    /// `for` loop, byte- and panic-identical to pre-pool code.
    pub fn sequential() -> Self {
        Pool::new(1)
    }

    /// A pool sized by [`default_jobs`].
    pub fn from_env() -> Self {
        Pool::new(default_jobs())
    }

    /// Worker count this pool runs with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f(0), f(1), …, f(len - 1)` across the pool's workers and
    /// feed the results to `consume` **strictly in index order**,
    /// stopping after the first [`ControlFlow::Break`].
    ///
    /// `f` must be a pure function of its index (plus captured shared
    /// state): with more than one worker it runs speculatively and out
    /// of order, and results past a break point are dropped unseen.
    /// `consume` runs on the calling thread only.
    ///
    /// If `f(i)` panics, the panic is re-raised here once the consumer
    /// reaches index `i` — after `consume` has seen every result before
    /// `i`, exactly as a sequential loop would — with the job index
    /// prepended to string payloads.
    pub fn ordered_scan<T, F, C>(&self, len: usize, f: F, mut consume: C)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FnMut(usize, T) -> ControlFlow<()>,
    {
        if self.jobs == 1 || len <= 1 {
            // Sequential fast path: the pre-pool code, verbatim. No
            // threads, no unwind-catching, no buffering.
            for i in 0..len {
                if consume(i, f(i)).is_break() {
                    return;
                }
            }
            return;
        }

        type Caught<T> = Result<T, Box<dyn std::any::Any + Send + 'static>>;
        let workers = self.jobs.min(len);
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<(usize, Caught<T>)>();

        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (f, next, stop) = (&f, &next, &stop);
                s.spawn(move || loop {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        return;
                    }
                    // Catch panics instead of unwinding the worker: a
                    // crashing job must not prevent earlier-indexed
                    // jobs from being claimed and delivered, or the
                    // resequencer could never *reach* the crash in
                    // order. Only the consumer sets `stop`.
                    let r = catch_unwind(AssertUnwindSafe(|| f(i)));
                    if tx.send((i, r)).is_err() {
                        return; // consumer gone (early stop)
                    }
                });
            }
            drop(tx);

            // Re-sequence: buffer out-of-order arrivals, release in
            // index order. Every index below `len` is eventually sent
            // unless `stop` was raised, and `stop` is only raised on
            // the two paths that leave this loop — so `recv` can't
            // deadlock.
            let mut pending: BTreeMap<usize, Caught<T>> = BTreeMap::new();
            let mut expect = 0usize;
            while expect < len {
                let Ok((i, r)) = rx.recv() else { break };
                pending.insert(i, r);
                while let Some(r) = pending.remove(&expect) {
                    let i = expect;
                    expect += 1;
                    match r {
                        Ok(v) => {
                            if consume(i, v).is_break() {
                                stop.store(true, Ordering::Relaxed);
                                return;
                            }
                        }
                        Err(payload) => {
                            stop.store(true, Ordering::Relaxed);
                            rethrow(i, payload);
                        }
                    }
                }
            }
        });
    }

    /// Run `f` over `0..len` and collect the results in index order.
    pub fn ordered_map<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(len);
        self.ordered_scan(len, f, |_, v| {
            out.push(v);
            ControlFlow::Continue(())
        });
        out
    }

    /// Pin one long-lived worker to each contiguous chunk of `items` and
    /// let `drive` run any number of synchronous request/reply *rounds*
    /// against them. Built for barrier-style engines (the sharded netsim
    /// epoch loop) where per-round thread spawning would dominate: the
    /// workers persist across every [`Rounds::round`] call that `drive`
    /// makes, each owning its `&mut` chunk for the whole rendezvous. The
    /// calling thread works the first chunk itself, so `jobs` workers
    /// are `jobs − 1` spawned threads plus the caller. A round hands
    /// requests and replies over one-slot handoffs whose taker spins
    /// briefly before it parks (when every thread has a core): a round
    /// shorter than the spin costs no sleep and no wake-up syscall.
    ///
    /// Per round, request `i` is handed to the worker owning `items[i]`
    /// as `work(i, &mut items[i], req)`, and the replies come back as a
    /// `Vec` **in index order** — never in completion order — so
    /// anything `drive` derives from them is byte-identical at any
    /// worker count. With `jobs == 1` (or fewer than two items) no
    /// threads are spawned at all: rounds run as a plain inline loop,
    /// the exact sequential code path.
    ///
    /// A panic inside `work` is re-raised out of the `round` call once
    /// all replies are in, lowest index first (like
    /// [`Pool::ordered_scan`]), with the item index prepended.
    pub fn rendezvous<T, Q, R, Out, W, F>(&self, items: &mut [T], work: W, drive: F) -> Out
    where
        T: Send,
        Q: Send,
        R: Send,
        W: Fn(usize, &mut T, Q) -> R + Sync,
        F: FnOnce(&mut Rounds<'_, Q, R>) -> Out,
    {
        let n = items.len();
        if self.jobs == 1 || n <= 1 {
            // Sequential fast path: no threads, no unwind-catching.
            let work = &work;
            let mut inline = move |reqs: Vec<Q>| -> Vec<R> {
                assert_eq!(reqs.len(), n, "rendezvous round size mismatch");
                reqs.into_iter()
                    .enumerate()
                    .map(|(i, q)| work(i, &mut items[i], q))
                    .collect()
            };
            let mut rounds = Rounds {
                inner: RoundsInner::Inline(&mut inline),
            };
            return drive(&mut rounds);
        }

        type Caught<R> = Result<R, Box<dyn std::any::Any + Send + 'static>>;
        let workers = self.jobs.min(n);
        let chunk = n.div_ceil(workers);
        let (own, rest) = items.split_at_mut(chunk);
        // Spinning pays only while every thread of the rendezvous has a
        // core of its own; oversubscribed, a spinner steals the time of
        // the thread it waits for.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let spin = if workers <= cores {
            SPIN
        } else {
            Duration::ZERO
        };
        // One request and one reply handoff per spawned worker; the
        // calling thread works the first chunk itself.
        let links: Vec<Link<Q, Caught<R>>> = rest
            .chunks(chunk)
            .map(|_| Link {
                req: Handoff::new(),
                reply: Handoff::for_current_thread(),
            })
            .collect();
        let work = &work;
        std::thread::scope(|s| {
            // Closes every request handoff when `drive` returns or
            // anything here unwinds (a failed spawn included); the scope
            // then joins the workers.
            let _close = Close(&links);
            for (w, chunk_items) in rest.chunks_mut(chunk).enumerate() {
                let base = (w + 1) * chunk;
                let Link { req, reply } = &links[w];
                let worker = s.spawn(move || {
                    while let Some(batch) = req.take(spin) {
                        // Catch instead of unwinding the worker so the
                        // round still completes (every reply arrives)
                        // and the *lowest* panicking index is the one
                        // re-raised, as sequentially.
                        let out = batch
                            .into_iter()
                            .enumerate()
                            .map(|(local, q)| {
                                catch_unwind(AssertUnwindSafe(|| {
                                    work(base + local, &mut chunk_items[local], q)
                                }))
                            })
                            .collect();
                        reply.put(out);
                    }
                });
                req.wake(worker.thread().clone());
            }
            let mut rounds = Rounds {
                inner: RoundsInner::Threaded {
                    dispatch: Box::new(|reqs: Vec<Q>| {
                        assert_eq!(reqs.len(), n, "rendezvous round size mismatch");
                        let mut reqs = reqs.into_iter();
                        let mine: Vec<Q> = reqs.by_ref().take(chunk).collect();
                        for link in &links {
                            link.req.put(Some(reqs.by_ref().take(chunk).collect()));
                        }
                        let mut caught: Vec<Caught<R>> = Vec::with_capacity(n);
                        caught.extend(mine.into_iter().enumerate().map(|(i, q)| {
                            catch_unwind(AssertUnwindSafe(|| work(i, &mut own[i], q)))
                        }));
                        for link in &links {
                            caught.extend(link.reply.take(spin));
                        }
                        let mut results = Vec::with_capacity(n);
                        for (i, r) in caught.into_iter().enumerate() {
                            match r {
                                Ok(v) => results.push(v),
                                Err(payload) => rethrow(i, payload),
                            }
                        }
                        results
                    }),
                },
            };
            drive(&mut rounds)
        })
    }
}

/// How long a rendezvous handoff's taker spins before it parks: above
/// the 30–44 µs a barrier round takes on two cores, so a round that
/// comes back in time costs neither a sleep nor a wake-up syscall.
const SPIN: Duration = Duration::from_micros(50);

/// A one-value handoff to one thread: [`Handoff::put`] stores the value
/// and unparks the taker; [`Handoff::take`] spins for a bounded time,
/// then parks until the value is there. Puts and takes alternate.
struct Handoff<V> {
    full: AtomicBool,
    value: Mutex<Option<V>>,
    taker: OnceLock<Thread>,
}

impl<V> Handoff<V> {
    fn new() -> Self {
        Handoff {
            full: AtomicBool::new(false),
            value: Mutex::new(None),
            taker: OnceLock::new(),
        }
    }

    /// A handoff the calling thread takes from.
    fn for_current_thread() -> Self {
        let h = Handoff::new();
        h.wake(std::thread::current());
        h
    }

    /// Name the taker (before the first put).
    fn wake(&self, taker: Thread) {
        let _ = self.taker.set(taker);
    }

    // The slot is only ever replaced or emptied whole, so a guard
    // recovered from a poisoned lock holds a valid `Option`. `full` is
    // stored with `Release` after the value and loaded with `Acquire`
    // before it is read; the taker's reset needs no ordering of its own,
    // because the next put comes only after the taker's reply, which is
    // a `Release`/`Acquire` handoff of its own.
    fn put(&self, v: V) {
        *self.value.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
        self.full.store(true, Ordering::Release);
        // No taker yet only when a close reaches a worker that was never
        // spawned.
        if let Some(taker) = self.taker.get() {
            taker.unpark();
        }
    }

    fn take(&self, spin: Duration) -> V {
        let start = Instant::now();
        while !self.full.load(Ordering::Acquire) {
            if start.elapsed() < spin {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        self.full.store(false, Ordering::Relaxed);
        self.value
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("handoff flagged full without a value")
    }
}

/// A spawned rendezvous worker's two handoffs: a round's requests in
/// (`None` closes the rendezvous), its replies out.
struct Link<Q, R> {
    req: Handoff<Option<Vec<Q>>>,
    reply: Handoff<Vec<R>>,
}

/// Closes a rendezvous's request handoffs on drop.
struct Close<'a, Q, R>(&'a [Link<Q, R>]);

impl<Q, R> Drop for Close<'_, Q, R> {
    fn drop(&mut self) {
        for link in self.0 {
            link.req.put(None);
        }
    }
}

/// Round handle passed to the `drive` closure of [`Pool::rendezvous`].
pub struct Rounds<'a, Q, R> {
    inner: RoundsInner<'a, Q, R>,
}

enum RoundsInner<'a, Q, R> {
    /// `jobs == 1`: the inline loop over the items, no threads.
    Inline(&'a mut dyn FnMut(Vec<Q>) -> Vec<R>),
    /// Dispatch a round to the persistent workers and re-sequence the
    /// replies.
    Threaded {
        dispatch: Box<dyn FnMut(Vec<Q>) -> Vec<R> + 'a>,
    },
}

impl<Q, R> Rounds<'_, Q, R> {
    /// Run one barrier round: request `i` goes to `items[i]`'s worker,
    /// and the replies return in index order. `reqs.len()` must equal
    /// the item count.
    pub fn round(&mut self, reqs: Vec<Q>) -> Vec<R> {
        match &mut self.inner {
            RoundsInner::Inline(f) => f(reqs),
            RoundsInner::Threaded { dispatch } => dispatch(reqs),
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Re-raise a job's panic on the consumer thread, prepending the job
/// index to string payloads (the common `panic!("…")` case) so failures
/// out of a sweep identify their run. Non-string payloads are resumed
/// untouched.
fn rethrow(index: usize, payload: Box<dyn std::any::Any + Send + 'static>) -> ! {
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
    match msg {
        Some(m) => panic!("parallel job {index} panicked: {m}"),
        None => resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A job function with deliberately skewed run times so that, with
    /// several workers, completion order differs from index order.
    fn skewed(i: usize) -> usize {
        // Later indices finish first.
        std::thread::sleep(std::time::Duration::from_micros(
            ((97 - i as u64 % 97) % 7) * 300,
        ));
        i * i
    }

    #[test]
    fn ordered_map_matches_sequential_at_any_width() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = Pool::new(jobs).ordered_map(97, skewed);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn consumer_observes_results_in_index_order() {
        let mut seen = Vec::new();
        Pool::new(8).ordered_scan(50, skewed, |i, v| {
            seen.push((i, v));
            ControlFlow::Continue(())
        });
        let expected: Vec<(usize, usize)> = (0..50).map(|i| (i, i * i)).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn early_stop_observes_exactly_the_prefix() {
        for jobs in [1, 4, 16] {
            let ran = AtomicUsize::new(0);
            let mut seen = Vec::new();
            Pool::new(jobs).ordered_scan(
                1000,
                |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    skewed(i)
                },
                |i, v| {
                    seen.push((i, v));
                    if i == 9 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            // The consumer saw exactly indices 0..=9 in order, no
            // matter how many jobs ran speculatively.
            let expected: Vec<(usize, usize)> = (0..=9).map(|i| (i, i * i)).collect();
            assert_eq!(seen, expected, "jobs={jobs}");
            // And the speculation is bounded: workers stop claiming
            // once the break lands (generous slack for in-flight
            // claims).
            assert!(
                ran.load(Ordering::Relaxed) < 1000,
                "jobs={jobs}: every job ran despite early stop"
            );
        }
    }

    #[test]
    fn panic_propagates_with_run_index_and_in_order() {
        for jobs in [2, 8] {
            let mut seen = Vec::new();
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Pool::new(jobs).ordered_scan(
                    40,
                    |i| {
                        if i == 7 || i == 23 {
                            panic!("boom at {i}");
                        }
                        skewed(i)
                    },
                    |i, v| {
                        seen.push((i, v));
                        ControlFlow::Continue(())
                    },
                );
            }))
            .expect_err("pool must re-raise the job panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .expect("string panic payload");
            // The *lowest* panicking index wins (sequential order), and
            // the message carries the run index.
            assert!(
                msg.contains("parallel job 7") && msg.contains("boom at 7"),
                "jobs={jobs}: unexpected panic message: {msg}"
            );
            // Everything before the panicking index was consumed first.
            let expected: Vec<(usize, usize)> = (0..7).map(|i| (i, i * i)).collect();
            assert_eq!(seen, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn sequential_pool_panics_inline_without_wrapping() {
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Pool::sequential().ordered_map(10, |i| {
                if i == 3 {
                    panic!("plain");
                }
                i
            });
        }))
        .expect_err("must panic");
        // jobs=1 is the pre-pool code path: the payload is untouched.
        assert_eq!(err.downcast_ref::<&str>(), Some(&"plain"));
    }

    #[test]
    fn empty_and_single_inputs_work_at_any_width() {
        for jobs in [1, 4] {
            assert_eq!(Pool::new(jobs).ordered_map(0, |i| i), Vec::<usize>::new());
            assert_eq!(Pool::new(jobs).ordered_map(1, |i| i + 41), vec![41]);
        }
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
    }

    #[test]
    fn rendezvous_rounds_match_sequential_at_any_width() {
        // Each item is an accumulator; each round adds the request and
        // replies with the running total. Whatever the worker count,
        // every round's reply vector must equal the jobs=1 run.
        let run = |jobs: usize| -> Vec<Vec<u64>> {
            let mut items: Vec<u64> = (0..13).map(|i| i as u64).collect();
            Pool::new(jobs).rendezvous(
                &mut items,
                |_i, acc: &mut u64, q: u64| {
                    *acc += q;
                    *acc
                },
                |rounds| {
                    (0..5)
                        .map(|r| rounds.round((0..13).map(|i| (r * i) as u64).collect()))
                        .collect()
                },
            )
        };
        let expected = run(1);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run(jobs), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn rendezvous_workers_persist_state_across_rounds() {
        let mut items = vec![0u64; 4];
        let totals = Pool::new(4).rendezvous(
            &mut items,
            |i, acc: &mut u64, q: u64| {
                *acc += q + i as u64;
                *acc
            },
            |rounds| {
                rounds.round(vec![10; 4]);
                rounds.round(vec![100; 4])
            },
        );
        // Two rounds accumulated into the same per-item state.
        assert_eq!(totals, vec![110, 112, 114, 116]);
        assert_eq!(items, vec![110, 112, 114, 116]);
    }

    #[test]
    fn rendezvous_panic_carries_lowest_index() {
        for jobs in [2, 8] {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut items = vec![(); 20];
                Pool::new(jobs).rendezvous(
                    &mut items,
                    |i, _item: &mut (), _q: ()| {
                        if i == 5 || i == 17 {
                            panic!("round boom {i}");
                        }
                    },
                    |rounds| {
                        rounds.round(vec![(); 20]);
                    },
                );
            }))
            .expect_err("rendezvous must re-raise the worker panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .expect("string panic payload");
            assert!(
                msg.contains("parallel job 5") && msg.contains("round boom 5"),
                "jobs={jobs}: unexpected panic message: {msg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "round size mismatch")]
    fn rendezvous_rejects_wrong_round_size() {
        let mut items = vec![0u8; 3];
        Pool::new(2).rendezvous(
            &mut items,
            |_i, _item: &mut u8, _q: u8| (),
            |rounds| {
                rounds.round(vec![1, 2]); // 2 requests for 3 items
            },
        );
    }

    #[test]
    fn nested_pools_compose() {
        // The sweep runner hands its pool to the shrinker: an
        // ordered_scan inside an ordered_scan consumer must work.
        let outer = Pool::new(4);
        let got = outer.ordered_map(6, |i| {
            let inner: usize = Pool::new(2).ordered_map(5, move |j| i * j).iter().sum();
            inner
        });
        let expected: Vec<usize> = (0..6).map(|i| i * 10).collect();
        assert_eq!(got, expected);
    }
}
