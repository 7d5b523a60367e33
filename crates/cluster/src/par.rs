//! The worker-pool layer under the sharded serving loop: scoped threads,
//! per-worker [`std::sync::mpsc`] job channels, and a deterministic
//! round-result ordering.
//!
//! This is the **only** module in the digest-affecting crates that touches
//! host concurrency (simlint rule `T1`), and it is built so that thread
//! scheduling can never reach a simulation result:
//!
//! * Jobs are *moved* into workers and moved back — no shared mutable state,
//!   no locks, nothing for the scheduler to race on.
//! * Each job is tagged with its partition index, assigned to a worker by
//!   `tag % threads` (static, timing-independent), and every round's results
//!   are re-sorted by tag before the caller sees them.
//! * With `threads <= 1` no thread is ever spawned: jobs run in tag order on
//!   the calling thread, monomorphizing to a plain loop.
//! * A job that panics on a worker re-raises on the calling thread, just as
//!   it does at `threads <= 1`: a failing partition fails the run, never
//!   hangs it.
//!
//! The result: for a fixed partition count, the bytes of the merged report
//! are identical at every thread count — threads buy wall-clock, never
//! different answers.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc; // simlint::allow(T1, reason = "cluster::par is the audited concurrency layer: jobs move by value, results re-sort by tag")

/// Runs `body` with a round executor: a function that takes one round of
/// tagged jobs, runs `run` on each (in parallel across up to `threads`
/// workers), and returns them sorted by tag.
///
/// The pool persists across rounds — workers are spawned once, fed over
/// per-worker channels, and joined when `body` returns — so a thousand
/// barrier rounds cost a thousand channel sends, not a thousand thread
/// spawns.
pub(crate) fn with_pool<T: Send, R>(
    threads: usize,
    run: &(dyn Fn(&mut T) + Send + Sync),
    body: impl FnOnce(&mut dyn FnMut(Vec<(usize, T)>) -> Vec<(usize, T)>) -> R,
) -> R {
    if threads <= 1 {
        // Sequential fast path: no spawn, no channels, jobs run in tag
        // order. This is also why `threads=1` is bit-identical to `threads=N`
        // by construction rather than by luck.
        return body(&mut |jobs| in_tag_order(run, jobs));
    }

    // simlint::allow(T1, reason = "cluster::par is the audited concurrency layer: jobs move by value, results re-sort by tag, scheduling cannot reach a digest")
    std::thread::scope(|scope| {
        let mut senders: Vec<mpsc::Sender<(usize, T)>> = Vec::with_capacity(threads); // simlint::allow(T1, reason = "per-worker job channels of the audited pool")
        let (done_tx, done_rx) = mpsc::channel::<(usize, std::thread::Result<T>)>(); // simlint::allow(T1, reason = "result channel of the audited pool; results are re-sorted by tag")
        for _ in 0..threads {
            let (tx, rx) = mpsc::channel::<(usize, T)>(); // simlint::allow(T1, reason = "per-worker job channel of the audited pool")
            senders.push(tx);
            let done = done_tx.clone();
            // simlint::allow(T1, reason = "worker threads of the audited pool, joined by the scope")
            scope.spawn(move || {
                while let Ok((tag, mut job)) = rx.recv() {
                    // A panicking job comes back as its payload, so the
                    // worker stays alive and the coordinator always gets an
                    // answer for every job it sent.
                    let result = panic::catch_unwind(AssertUnwindSafe(|| run(&mut job)));
                    if done.send((tag, result.map(|()| job))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done_tx);

        let mut execute = move |jobs: Vec<(usize, T)>| {
            let count = jobs.len();
            for (tag, job) in jobs {
                // Static worker assignment: which thread runs a partition
                // depends only on its index, never on timing.
                let sent = senders[tag % threads].send((tag, job));
                debug_assert!(sent.is_ok(), "pool workers outlive the round loop");
            }
            let mut done: Vec<(usize, T)> = Vec::with_capacity(count);
            for _ in 0..count {
                let (tag, result) = done_rx.recv().expect("pool workers outlive the round loop"); // simlint::allow(P1, reason = "workers catch every job's panic and exit only after the job senders hang up")
                match result {
                    Ok(job) => done.push((tag, job)),
                    // Re-raise a job's panic on the caller. Unwinding drops
                    // the job senders, so the other workers finish their
                    // current job and exit, and the scope joins them before
                    // the panic leaves `with_pool`.
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
            // Completion order is scheduling noise; tag order is the
            // deterministic contract.
            done.sort_by_key(|(tag, _)| *tag);
            done
        };
        body(&mut execute)
        // `execute` (and with it every job sender) drops here; workers see
        // the hangup, exit their loop, and the scope joins them.
    })
}

/// Runs one round of tagged jobs on the calling thread, in tag order: the
/// executor of a one-thread pool, and of a sequential run, whose jobs need
/// not be `Send`.
pub(crate) fn in_tag_order<T>(run: impl Fn(&mut T), mut jobs: Vec<(usize, T)>) -> Vec<(usize, T)> {
    jobs.sort_by_key(|(tag, _)| *tag);
    for (_, job) in &mut jobs {
        run(job);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_pool_runs_in_tag_order() {
        let mut order: Vec<usize> = Vec::new();
        let log = std::sync::Mutex::new(&mut order); // simlint::allow(T1, reason = "test-only observation of execution order")
        with_pool(
            1,
            &|tag: &mut usize| {
                log.lock().unwrap().push(*tag);
            },
            |execute| {
                let jobs = vec![(2, 2usize), (0, 0usize), (1, 1usize)];
                let done = execute(jobs);
                assert_eq!(
                    done.iter().map(|(tag, _)| *tag).collect::<Vec<_>>(),
                    vec![0, 1, 2]
                );
            },
        );
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn threaded_pool_returns_results_sorted_by_tag() {
        for threads in [2, 3, 8] {
            let rounds = with_pool(
                threads,
                &|job: &mut (usize, u64)| {
                    job.1 = job.0 as u64 * 10;
                },
                |execute| {
                    let mut all = Vec::new();
                    for _ in 0..5 {
                        let jobs: Vec<(usize, (usize, u64))> =
                            (0..7).map(|i| (i, (i, 0u64))).collect();
                        all.push(execute(jobs));
                    }
                    all
                },
            );
            for done in rounds {
                let tags: Vec<usize> = done.iter().map(|(tag, _)| *tag).collect();
                assert_eq!(tags, (0..7).collect::<Vec<_>>());
                for (tag, (_, value)) in &done {
                    assert_eq!(*value, *tag as u64 * 10);
                }
            }
        }
    }

    #[test]
    fn a_panicking_job_fails_the_round_instead_of_hanging_it() {
        let (report, outcome) = mpsc::channel(); // simlint::allow(T1, reason = "test-only: the caller reports back so a hang times out instead of blocking the suite")
                                                 // simlint::allow(T1, reason = "test-only helper thread, joined below once it reports")
        let caller = std::thread::spawn(move || {
            let result = panic::catch_unwind(|| {
                with_pool(
                    2,
                    &|job: &mut usize| assert_ne!(*job, 1, "partition 1 fails"),
                    |execute| execute(vec![(0, 0usize), (1, 1usize), (2, 2usize)]),
                )
            });
            report.send(result.is_err()).unwrap();
        });
        let panicked = outcome
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("with_pool must re-raise a job's panic, not hang");
        assert!(panicked, "a job's panic must reach the caller");
        caller.join().unwrap();
    }

    #[test]
    fn empty_rounds_are_fine() {
        with_pool(4, &|_job: &mut u8| {}, |execute| {
            assert!(execute(Vec::new()).is_empty());
        });
    }
}
