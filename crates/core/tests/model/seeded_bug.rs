//! Negative controls for the model checker itself: deliberately buggy
//! re-implementations of the pool's completion latch (a lost wakeup)
//! and of the dispatcher's engine slot (overlapping executions),
//! asserted to be *caught*. If the explorer ever stops finding these,
//! the `analysis` CI gate is vacuous and these tests fail first.

use std::panic::{catch_unwind, AssertUnwindSafe};

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};

/// The bug class the real `Latch` avoids: the pending count lives
/// *outside* the mutex the condvar pairs with, so the worker's
/// decrement+notify can slip between the submitter's count check and
/// its `wait` — a classic lost wakeup, i.e. `WorkerPool::run` would
/// park forever while the job is already done.
struct BuggyLatch {
    pending: AtomicUsize,
    gate: Mutex<()>,
    done: Condvar,
}

impl BuggyLatch {
    fn job_finished(&self) {
        // decrement and notify WITHOUT holding `gate`
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        // check-then-wait race: not re-checked under the mutex
        while self.pending.load(Ordering::SeqCst) > 0 {
            let g = self.gate.lock().unwrap();
            drop(self.done.wait(g).unwrap());
        }
    }
}

#[test]
fn lost_wakeup_in_a_buggy_latch_is_caught() {
    let verdict = catch_unwind(AssertUnwindSafe(|| {
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let latch = Arc::new(BuggyLatch {
                pending: AtomicUsize::new(1),
                gate: Mutex::new(()),
                done: Condvar::new(),
            });
            let worker = Arc::clone(&latch);
            let h = loom::thread::spawn(move || worker.job_finished());
            latch.wait();
            let _ = h.join();
        });
    }));
    let msg = match verdict {
        Err(payload) => *payload.downcast::<String>().expect("model failure carries a message"),
        Ok(report) => {
            panic!("the seeded lost-wakeup bug was NOT caught ({report:?}) — checker is broken")
        }
    };
    assert!(msg.contains("deadlock"), "failure must identify the hang: {msg}");
    assert!(msg.contains("condvar"), "failure must point at the lost wakeup: {msg}");
    eprintln!("seeded bug caught as expected:\n{msg}");
}

/// The corrected protocol — the count guarded by the condvar's mutex,
/// exactly like `pool::Latch` — passes the very same exploration.
#[test]
fn the_fixed_latch_protocol_survives_the_same_schedules() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let latch = Arc::new((Mutex::new(1usize), Condvar::new()));
            let worker = Arc::clone(&latch);
            let h = loom::thread::spawn(move || {
                let (count, done) = &*worker;
                let mut g = count.lock().unwrap();
                *g -= 1;
                if *g == 0 {
                    done.notify_all();
                }
            });
            let (count, done) = &*latch;
            let mut g = count.lock().unwrap();
            while *g > 0 {
                g = done.wait(g).unwrap();
            }
            drop(g);
            h.join().unwrap();
        });
    assert!(report.iterations > 1, "expected >1 interleaving, got {report:?}");
}

/// A miniature of the dispatcher's engine slot: queued batches, a
/// `running` flag under the state mutex, and an engine that only that
/// flag keeps exclusive. The driver claims a batch only while the
/// engine is idle; a waiting client may run one itself (caller runs)
/// — and with `check_running` off it skips the idle check, the bug the
/// real `claim_inline` must not have.
struct MiniDispatch {
    state: Mutex<MiniState>,
    released: Condvar,
    /// Executions in progress: more than one is the seeded failure.
    engine_busy: AtomicUsize,
}

struct MiniState {
    queued: usize,
    running: bool,
}

impl MiniDispatch {
    fn execute(&self) {
        let overlapping = self.engine_busy.fetch_add(1, Ordering::SeqCst);
        assert_eq!(overlapping, 0, "two executions overlap on the engine");
        self.engine_busy.fetch_sub(1, Ordering::SeqCst);
    }

    fn release(&self) {
        self.state.lock().unwrap().running = false;
        self.released.notify_all();
    }

    fn driver(&self) {
        loop {
            let mut st = self.state.lock().unwrap();
            while st.running && st.queued > 0 {
                st = self.released.wait(st).unwrap();
            }
            if st.queued == 0 {
                return;
            }
            st.queued -= 1;
            st.running = true;
            drop(st);
            self.execute();
            self.release();
        }
    }

    fn caller_runs(&self, check_running: bool) {
        let mut st = self.state.lock().unwrap();
        if st.queued > 0 && (!check_running || !st.running) {
            st.queued -= 1;
            st.running = true;
            drop(st);
            self.execute();
            self.release();
        }
    }
}

fn mini_dispatch_model(check_running: bool) -> loom::Report {
    loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(move || {
        let d = Arc::new(MiniDispatch {
            state: Mutex::new(MiniState { queued: 2, running: false }),
            released: Condvar::new(),
            engine_busy: AtomicUsize::new(0),
        });
        let driver = Arc::clone(&d);
        let h = loom::thread::spawn(move || driver.driver());
        d.caller_runs(check_running);
        h.join().unwrap();
    })
}

#[test]
fn an_inline_path_that_skips_the_running_check_is_caught() {
    let verdict = catch_unwind(AssertUnwindSafe(|| mini_dispatch_model(false)));
    let msg = match verdict {
        Err(payload) => *payload.downcast::<String>().expect("model failure carries a message"),
        Ok(report) => {
            panic!("the seeded overlapping-execution bug was NOT caught ({report:?})")
        }
    };
    assert!(msg.contains("panicked inside the model"), "failure must be the overlap: {msg}");
    eprintln!("seeded caller-runs bug caught as expected:\n{msg}");
}

/// With the `running` check in place, the same schedules never overlap.
#[test]
fn the_checked_inline_path_survives_the_same_schedules() {
    let report = mini_dispatch_model(true);
    assert!(report.iterations > 1, "expected >1 interleaving, got {report:?}");
}
