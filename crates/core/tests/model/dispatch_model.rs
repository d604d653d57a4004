//! Models of the multi-tenant `Dispatcher` pipeline: N session queues,
//! a stager crew and one driver negotiating over three condvars, driven
//! through every bounded schedule. The backends are mocks on purpose —
//! the models explore the dispatch protocol (admission, claiming,
//! completion, eviction controls, shutdown), not the GeMM math.
//!
//! Model sizes are deliberately tiny (1 stager, 1–2 sessions, 1–2
//! batches): the schedule tree already covers every claim/complete/
//! shutdown reordering at that size, and each extra thread multiplies
//! the tree. The acceptance bar here is stricter than the pool models:
//! every model must branch through **more than 50 interleavings**.

use camp_core::backend::{BatchOutcome, CampBackend, Capability, ExecStats, Output};
use camp_core::dispatch::{DispatchOptions, Dispatcher, Priority, StealPolicy};
use camp_core::engine::EngineStats;
use camp_core::{DType, GemmRequest, RequestError, WeightHandle, WeightMeta, WeightSnapshot};
use camp_gemm::weights::WeightRegistry;
use camp_gemm::KernelInfo;

/// Implements the boilerplate half of [`CampBackend`] (identity
/// `prepare`, zero-matrix `execute_prepared`) for a mock that only
/// customizes its weight registry.
macro_rules! model_backend_boilerplate {
    () => {
        type Prepared = GemmRequest;

        fn name(&self) -> &'static str {
            "model-dispatch"
        }

        fn threads(&self) -> usize {
            1
        }

        fn supports(&self, _cap: Capability) -> bool {
            false
        }

        fn kernel_info(&self) -> KernelInfo {
            unimplemented!("not part of the modeled pipeline")
        }

        fn execute_batch(&mut self, _reqs: &[GemmRequest]) -> Result<BatchOutcome, RequestError> {
            unimplemented!("dispatchers drive execute_prepared")
        }

        fn prepare(req: GemmRequest, _weights: &WeightSnapshot) -> GemmRequest {
            req
        }

        fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome {
            self.executed += batch.len();
            let outputs =
                batch.iter().map(|r| Output::new(vec![0; r.m()], r.m(), 1)).collect::<Vec<_>>();
            BatchOutcome::new(outputs, ExecStats::Host(EngineStats::default()))
        }
    };
}

/// Weightless mock: counts executed requests so drain models can assert
/// nothing was lost, once the backend comes back out.
struct CountingBackend {
    executed: usize,
}

impl CampBackend for CountingBackend {
    model_backend_boilerplate!();

    fn register_weights(&mut self, _n: usize, _k: usize, _b: &[i8], _dtype: DType) -> WeightHandle {
        unimplemented!("this model submits dense requests only")
    }

    fn evict_weights(&mut self, _h: WeightHandle) -> Result<WeightMeta, RequestError> {
        unimplemented!("this model submits dense requests only")
    }

    fn clear_weights(&mut self) {}

    fn try_weight_meta(&self, _h: WeightHandle) -> Result<WeightMeta, RequestError> {
        unimplemented!("this model submits dense requests only")
    }

    fn weight_snapshot(&self) -> WeightSnapshot {
        WeightSnapshot::empty()
    }
}

/// Mock with a *working* registry (a raw mirror, same as `SimBackend`),
/// so the eviction-control path — condemn, queue, driver-side evict —
/// runs against real generation-stamped handles.
struct RegistryBackend {
    registry: WeightRegistry,
    executed: usize,
}

impl CampBackend for RegistryBackend {
    model_backend_boilerplate!();

    fn register_weights(&mut self, n: usize, k: usize, b: &[i8], dtype: DType) -> WeightHandle {
        self.registry.register(n, k, b, dtype)
    }

    fn evict_weights(&mut self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        self.registry.evict(h)
    }

    fn clear_weights(&mut self) {
        self.registry.clear();
    }

    fn try_weight_meta(&self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        self.registry.try_meta(h)
    }

    fn weight_snapshot(&self) -> WeightSnapshot {
        self.registry.snapshot()
    }
}

fn tiny_request() -> GemmRequest {
    GemmRequest::dense(1, 1, 1, vec![1i8], vec![1i8]).expect("well-formed request")
}

fn one_stager() -> DispatchOptions {
    DispatchOptions { stagers: 1, queue_depth: 8, steal: StealPolicy::Eager }
}

/// Two tenants, mixed priorities, out-of-order redemption: both tickets
/// redeem exactly once and the teardown joins in every schedule.
#[test]
fn two_tenants_complete_in_every_schedule() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend { executed: 0 }, one_stager());
            let mut a = dispatcher.session();
            let mut b = dispatcher.session();
            let ta = a.submit(vec![tiny_request()]).expect("valid submission");
            let tb = b
                .submit_with(vec![tiny_request()], Priority::Decode, None)
                .expect("valid submission");
            assert_eq!(b.wait(tb).expect("decode batch completes").outputs.len(), 1);
            assert_eq!(a.wait(ta).expect("prefill batch completes").outputs.len(), 1);
            drop((a, b));
            let backend = dispatcher.into_backend();
            assert_eq!(backend.executed, 2, "a tenant's batch was lost");
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch two-tenant: {} interleavings", report.iterations);
}

/// A concurrent submitter thread races the pipeline: session handles
/// are `Send`, and a tenant submitting from its own thread neither
/// corrupts another tenant's queue nor loses its wakeup.
///
/// Four threads (stager, driver, two submitters): preemption bound 1
/// keeps the schedule tree inside the iteration budget — bound 2
/// exceeds 500k interleavings at this size.
#[test]
fn concurrent_submitters_race_the_pipeline() {
    let report =
        loom::model::Builder { preemption_bound: 1, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend { executed: 0 }, one_stager());
            let mut a = dispatcher.session();
            let mut b = dispatcher.session();
            let h = loom::thread::spawn(move || {
                let tb = b.submit(vec![tiny_request()]).expect("valid submission");
                assert_eq!(b.wait(tb).expect("batch completes").outputs.len(), 1);
            });
            let ta = a.submit(vec![tiny_request()]).expect("valid submission");
            assert_eq!(a.wait(ta).expect("batch completes").outputs.len(), 1);
            h.join().expect("submitter thread panicked");
            drop(a);
            let backend = dispatcher.into_backend();
            assert_eq!(backend.executed, 2, "a tenant's batch was lost");
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch concurrent submitters: {} interleavings", report.iterations);
}

/// Backpressure at depth 1: the bound rejects deterministically while a
/// batch is in flight, and a drained session always re-admits — i.e.
/// saturation is a state, not a ratchet, in every schedule.
#[test]
fn saturation_recovers_in_every_schedule() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend { executed: 0 }, one_stager());
            let mut session = dispatcher.session_with_depth(1);
            let t1 = session.submit(vec![tiny_request()]).expect("first admission");
            // the second submission races the pipeline: if the first
            // batch is still in flight the bound fires, and if the
            // pipeline already drained it the admission must succeed —
            // nothing else is allowed
            let second = session.submit(vec![tiny_request()]);
            assert!(session.wait(t1).is_ok());
            match second {
                Ok(t) => assert!(session.wait(t).is_ok()),
                Err(e) => assert_eq!(e, RequestError::Saturated { depth: 1 }),
            }
            // drained: in flight is 0 again, admission must reopen
            let t2 = session.submit(vec![tiny_request()]).expect("drained session re-admits");
            assert!(session.wait(t2).is_ok());
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch saturation: {} interleavings", report.iterations);
}

/// `into_backend` drains: an uncollected batch still executes before
/// the backend comes back, in every schedule — including the one where
/// shutdown is signalled before the stager ever claimed it.
#[test]
fn shutdown_drains_uncollected_work() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend { executed: 0 }, one_stager());
            let mut session = dispatcher.session();
            let _t = session.submit(vec![tiny_request()]).expect("valid submission");
            drop(session); // closes the queue; the claimed batch must still run
            let backend = dispatcher.into_backend();
            assert!(backend.executed <= 1, "a batch executed twice");
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch shutdown drain: {} interleavings", report.iterations);
}

/// Eviction racing a live submission: whatever the schedule, the batch
/// either computed against the still-live registration or failed as
/// `StaleHandle` — never a panic, and the registration is gone after.
#[test]
fn eviction_races_err_stale_and_never_panic() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let mut backend =
                RegistryBackend { registry: WeightRegistry::raw_mirror(), executed: 0 };
            let h = backend.register_weights(1, 1, &[1i8], DType::I8);
            let dispatcher = Dispatcher::with_options(backend, one_stager());
            let mut session = dispatcher.session();
            let submitted = match session.submit(vec![
                GemmRequest::with_weights(1, vec![1i8], h).expect("well-formed request")
            ]) {
                Ok(t) => Some(t),
                // the eviction below is not the only racer: admission
                // itself may observe the condemnation first
                Err(e) => {
                    assert_eq!(e, RequestError::StaleHandle);
                    None
                }
            };
            // race the control op against staging and execution
            let meta = dispatcher.evict_weights(h).expect("first eviction wins");
            assert_eq!((meta.n, meta.k), (1, 1));
            if let Some(t) = submitted {
                match session.wait(t) {
                    Ok(outcome) => assert_eq!(outcome.outputs.len(), 1),
                    Err(e) => assert_eq!(e, RequestError::StaleHandle),
                }
            }
            drop(session);
            let mut backend = dispatcher.into_backend();
            assert_eq!(
                backend.evict_weights(h).unwrap_err(),
                RequestError::StaleHandle,
                "the driver must have applied the eviction before handing the backend back"
            );
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch eviction race: {} interleavings", report.iterations);
}

/// The bug class the dispatcher's admission protocol avoids, seeded and
/// asserted to be *caught*: an in-flight count kept in an atomic
/// outside the condvar's mutex, with a check-then-wait submitter and a
/// lock-free decrement+notify on the completion side — the classic lost
/// wakeup. A `wait` would park forever on a queue that is already
/// drained. If the explorer ever stops finding this, the dispatcher's
/// own models above prove nothing.
mod seeded {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use loom::sync::{Arc, Condvar, Mutex};

    pub struct BuggyBackpressure {
        in_flight: AtomicUsize, // BUG: lives outside `gate`
        gate: Mutex<()>,
        drained: Condvar,
    }

    impl BuggyBackpressure {
        pub fn new(pending: usize) -> Self {
            BuggyBackpressure {
                in_flight: AtomicUsize::new(pending),
                gate: Mutex::new(()),
                drained: Condvar::new(),
            }
        }

        /// Driver side: batch done, open admission back up.
        pub fn complete(&self) {
            // BUG: decrement and notify WITHOUT holding `gate`
            if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.drained.notify_all();
            }
        }

        /// Submitter side: wait for the queue to drain.
        pub fn wait_drained(&self) {
            // BUG: check-then-wait — not re-checked under the mutex, so
            // `complete` can slip in between and the wakeup is lost
            while self.in_flight.load(Ordering::SeqCst) > 0 {
                let g = self.gate.lock().unwrap();
                drop(self.drained.wait(g).unwrap());
            }
        }
    }

    #[test]
    fn lost_wakeup_in_buggy_backpressure_is_caught() {
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
                let bp = Arc::new(BuggyBackpressure::new(1));
                let driver = Arc::clone(&bp);
                let h = loom::thread::spawn(move || driver.complete());
                bp.wait_drained();
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
        eprintln!("seeded dispatch bug caught as expected:\n{msg}");
    }
}

/// Weightless mock that asserts no two executions overlap: the engine
/// slot must serialize the driver and every client running its own
/// batch. The overlap counter is a model atomic, so each execution
/// spans schedule points another thread could run in.
struct ExclusiveBackend {
    busy: std::sync::Arc<loom::sync::atomic::AtomicUsize>,
    executed: usize,
}

impl CampBackend for ExclusiveBackend {
    type Prepared = GemmRequest;

    fn name(&self) -> &'static str {
        "model-exclusive"
    }

    fn threads(&self) -> usize {
        1
    }

    fn supports(&self, _cap: Capability) -> bool {
        false
    }

    fn kernel_info(&self) -> KernelInfo {
        unimplemented!("not part of the modeled pipeline")
    }

    fn register_weights(&mut self, _n: usize, _k: usize, _b: &[i8], _dtype: DType) -> WeightHandle {
        unimplemented!("this model submits dense requests only")
    }

    fn evict_weights(&mut self, _h: WeightHandle) -> Result<WeightMeta, RequestError> {
        unimplemented!("this model submits dense requests only")
    }

    fn clear_weights(&mut self) {}

    fn try_weight_meta(&self, _h: WeightHandle) -> Result<WeightMeta, RequestError> {
        unimplemented!("this model submits dense requests only")
    }

    fn weight_snapshot(&self) -> WeightSnapshot {
        WeightSnapshot::empty()
    }

    fn execute_batch(&mut self, _reqs: &[GemmRequest]) -> Result<BatchOutcome, RequestError> {
        unimplemented!("dispatchers drive execute_prepared")
    }

    fn prepare(req: GemmRequest, _weights: &WeightSnapshot) -> GemmRequest {
        req
    }

    fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome {
        use loom::sync::atomic::Ordering;
        assert_eq!(self.busy.fetch_add(1, Ordering::SeqCst), 0, "two executions overlap");
        self.executed += batch.len();
        self.busy.fetch_sub(1, Ordering::SeqCst);
        let outputs =
            batch.iter().map(|r| Output::new(vec![0; r.m()], r.m(), 1)).collect::<Vec<_>>();
        BatchOutcome::new(outputs, ExecStats::Host(EngineStats::default()))
    }
}

/// Caller runs, raced: one tenant pipelines two batches through the
/// stager and the driver while another, on its own thread, submits
/// one batch and waits — free to run it inline whenever the engine
/// looks idle. In every schedule the engine executes one batch at a
/// time, every batch runs exactly once, and the teardown joins.
///
/// Four threads (stager, driver, two clients): preemption bound 1, as
/// for the concurrent-submitter model above.
#[test]
fn inline_execution_races_the_driver_and_a_stager() {
    // (some schedule ran a batch inline, some ran none inline): the
    // model must explore both paths, or it proves nothing about the race
    let seen = std::sync::Mutex::new((false, false));
    let report =
        loom::model::Builder { preemption_bound: 1, max_iterations: 500_000 }.check(|| {
            let busy = std::sync::Arc::new(loom::sync::atomic::AtomicUsize::new(0));
            let backend = ExclusiveBackend { busy, executed: 0 };
            let dispatcher = Dispatcher::with_options(backend, one_stager());
            let mut piped = dispatcher.session();
            let mut caller = dispatcher.session();
            let h = loom::thread::spawn(move || {
                let t = caller.submit(vec![tiny_request()]).expect("valid submission");
                assert_eq!(caller.wait(t).expect("batch completes").outputs.len(), 1);
            });
            let t1 = piped.submit(vec![tiny_request()]).expect("valid submission");
            let t2 = piped.submit(vec![tiny_request()]).expect("valid submission");
            assert!(piped.wait(t1).is_ok());
            assert!(piped.wait(t2).is_ok());
            h.join().expect("caller thread panicked");
            let stats = dispatcher.stats();
            assert_eq!(stats.executed, 3);
            assert!(stats.inline <= 2, "the pipelining tenant's first batch never runs inline");
            let mut seen = seen.lock().unwrap();
            seen.0 |= stats.inline > 0;
            seen.1 |= stats.inline == 0;
            drop(piped);
            let backend = dispatcher.into_backend();
            assert_eq!(backend.executed, 3, "a batch was lost or ran twice");
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    assert_eq!(*seen.lock().unwrap(), (true, true), "both execution paths must be explored");
    eprintln!("dispatch inline race: {} interleavings", report.iterations);
}

/// Under `StealPolicy::Eager` a submission wakes only one of the
/// stagers: with two stagers and three batches in flight, every batch
/// is still claimed, staged and executed in every schedule — a woken
/// stager keeps claiming, and a busy one re-checks before it parks.
#[test]
fn eager_submissions_wake_one_stager_and_lose_nothing() {
    let report =
        loom::model::Builder { preemption_bound: 1, max_iterations: 500_000 }.check(|| {
            let opts = DispatchOptions { stagers: 2, queue_depth: 8, steal: StealPolicy::Eager };
            let dispatcher = Dispatcher::with_options(CountingBackend { executed: 0 }, opts);
            let mut a = dispatcher.session();
            let mut b = dispatcher.session();
            let t1 = a.submit(vec![tiny_request()]).expect("valid submission");
            let t2 = a.submit(vec![tiny_request()]).expect("valid submission");
            let t3 = b.submit(vec![tiny_request()]).expect("valid submission");
            assert!(a.wait(t1).is_ok());
            assert!(b.wait(t3).is_ok());
            assert!(a.wait(t2).is_ok());
            drop((a, b));
            let backend = dispatcher.into_backend();
            assert_eq!(backend.executed, 3, "a batch was lost or ran twice");
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch eager wake-one: {} interleavings", report.iterations);
}

/// A backlog deeper than the `MAX_STAGED` window: the stager parks
/// with work still queued, and only a completion that frees the
/// window (and finds that queued work) wakes it. Four batches, so the
/// waiter finds two still queued behind the window and cannot run
/// one itself. Every batch runs exactly once in every schedule.
#[test]
fn a_backlog_deeper_than_the_staging_window_drains() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend { executed: 0 }, one_stager());
            let mut session = dispatcher.session();
            let tickets: Vec<_> = (0..4)
                .map(|_| session.submit(vec![tiny_request()]).expect("valid submission"))
                .collect();
            for t in tickets {
                assert!(session.wait(t).is_ok());
            }
            drop(session);
            let backend = dispatcher.into_backend();
            assert_eq!(backend.executed, 4, "a batch was lost or ran twice");
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch deep backlog: {} interleavings", report.iterations);
}
