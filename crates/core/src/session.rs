//! Submit/poll serving sessions over any [`CampBackend`].
//!
//! A serving deployment does not call a blocking GeMM API: it enqueues
//! request batches and collects results when they are ready, keeping
//! several batches in flight so the machine never idles between them.
//! [`Session`] is that front end, generic over the execution substrate
//! — `Session<CampEngine>` serves at host speed, `Session<SimBackend>`
//! streams batches through the cycle-accurate simulated CAMP core —
//! built as a three-stage pipeline:
//!
//! 1. **submit** ([`Session::submit`]) — the caller hands over a batch
//!    of owned [`GemmRequest`]s and immediately gets a [`TicketId`]
//!    back; requests are validated here ([`RequestError`] instead of a
//!    panic deep in the pipeline);
//! 2. **stage** — a dedicated staging thread runs
//!    [`CampBackend::prepare`] on each request: the host engine
//!    pre-packs A (and dense B) into the panel layout the macro-kernel
//!    consumes, so the packing of batch N+1 overlaps the compute of
//!    batch N; substrates with nothing to stage pass requests through;
//! 3. **compute** — a driver thread runs each staged batch
//!    ([`CampBackend::execute_prepared`]); on the host engine the
//!    steady state packs **zero** B bytes for registered weights and
//!    does no A-packing on the compute path. A caller blocked in
//!    [`Session::wait`] on its only unclaimed batch, with the engine
//!    idle, prepares and runs that batch on its own thread instead
//!    (the dispatcher's caller-runs path), skipping both hand-offs.
//!
//! Results come back through [`Session::poll`] (non-blocking) or
//! [`Session::wait`] (blocking) as [`BatchOutcome`]s, in any order,
//! each exactly once. Batches complete in submission order; outputs are
//! bit-identical to calling [`CampBackend::execute_batch`] on the same
//! requests (property-tested, on both substrates).
//! [`Session::into_backend`] drains the pipeline and hands the backend
//! back.
//!
//! ```
//! use camp_core::backend::CampBackend;
//! use camp_core::{CampEngine, DType, GemmRequest};
//!
//! let (n, k) = (8, 32);
//! let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
//! let a: Vec<i8> = (0..4 * k).map(|i| (i % 13) as i8 - 6).collect();
//!
//! let mut engine = CampEngine::with_threads(2);
//! let weights = engine.register_weights(n, k, &w, DType::I8);
//! let req = GemmRequest::with_weights(4, a, weights).unwrap();
//! let expected = engine.execute(&req).unwrap();
//!
//! let mut session = engine.serve();
//! let ticket = session.submit(vec![req]).unwrap();
//! let outcome = session.wait(ticket);
//! assert_eq!(outcome.outputs[0], expected.output);
//! ```

use camp_gemm::request::{GemmRequest, RequestError};
use camp_gemm::weights::WeightHandle;

use crate::backend::{BatchOutcome, CampBackend};
use crate::dispatch::{DispatchOptions, DispatchSession, Dispatcher, StealPolicy};

pub use crate::dispatch::TicketId;

/// One GeMM of a serving batch, legacy form: an owned m×k activation
/// multiplied against a registered weight.
#[deprecated(
    since = "0.2.0",
    note = "build a GemmRequest (Operand::Handle) and submit that; From<Request> converts; \
            remove: v0.3"
)]
#[derive(Debug, Clone)]
pub struct Request {
    /// Rows of the activation / result.
    pub m: usize,
    /// Row-major m×k activation (k from the weight's registration).
    pub a: Vec<i8>,
    /// The registered weight to multiply against.
    pub weights: WeightHandle,
}

#[allow(deprecated)]
impl From<Request> for GemmRequest {
    fn from(r: Request) -> GemmRequest {
        GemmRequest::with_weights(r.m, r.a, r.weights)
            .expect("legacy requests carry no build-time-checkable shape")
    }
}

/// Streaming serving front end over any [`CampBackend`]; see the
/// [module docs](self).
///
/// Since the multi-tenant [`Dispatcher`] landed, `Session` is the
/// **single-tenant view** of the same machinery: a private dispatcher
/// configured for one client (one stager, an unbounded admission
/// window, no priority classes) plus the one [`DispatchSession`] on
/// it. The submit/poll/wait surface, ticket semantics and panic
/// messages are unchanged; serving deployments that want N clients
/// over one engine use [`Dispatcher`] (or
/// [`CampBackend::dispatch`]) directly.
pub struct Session<B: CampBackend + Send + 'static> {
    // field order is drop order: the client must close (cancelling
    // nothing — into_backend drains first) before the dispatcher joins
    // its threads
    client: DispatchSession<B>,
    dispatcher: Option<Dispatcher<B>>,
}

impl<B: CampBackend + Send + 'static> std::fmt::Debug for Session<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("session_id", &self.client.id()).finish_non_exhaustive()
    }
}

impl<B: CampBackend + Send + 'static> Session<B> {
    /// Start serving on `backend`. Weights must already be registered:
    /// submissions are validated against this moment's registry.
    pub fn new(backend: B) -> Self {
        // single-tenant configuration: one stager (the legacy pipeline
        // shape) and no admission bound (the legacy session never
        // rejected a submission for depth)
        let dispatcher = Dispatcher::with_options(
            backend,
            DispatchOptions { stagers: 1, queue_depth: usize::MAX, steal: StealPolicy::Eager },
        );
        let client = dispatcher.session();
        Session { client, dispatcher: Some(dispatcher) }
    }

    /// Enqueue one batch; returns immediately with the ticket that will
    /// redeem its results. Batches complete in submission order, with
    /// the operand staging of this batch overlapping the compute of
    /// earlier ones.
    ///
    /// Every request is validated against the registration snapshot
    /// taken when the session started: stale or foreign handles and
    /// malformed shapes are rejected here as [`RequestError`]s (the
    /// batch is returned to the caller untouched in spirit — nothing
    /// was enqueued).
    ///
    /// # Panics
    /// Panics if a pipeline thread has already died.
    pub fn submit(&mut self, batch: Vec<GemmRequest>) -> Result<TicketId, RequestError> {
        self.client.submit(batch)
    }

    /// Non-blocking result check: `None` while the batch is still in
    /// the pipeline. The result is handed out exactly once — a second
    /// poll of the same ticket returns `None` again.
    pub fn poll(&mut self, ticket: TicketId) -> Option<BatchOutcome> {
        self.client
            .poll(ticket)
            .map(|r| r.expect("single-tenant sessions never fail staged batches"))
    }

    /// Block until the batch is computed; returns one [`BatchOutcome`]
    /// with per-request outputs in request order (stats merged across
    /// the batch, staging traffic included). Each ticket can be waited
    /// on exactly once.
    ///
    /// # Panics
    /// Panics if a pipeline thread died, or the ticket's result was
    /// already collected.
    pub fn wait(&mut self, ticket: TicketId) -> BatchOutcome {
        self.client.wait(ticket).expect("single-tenant sessions never fail staged batches")
    }

    /// Batches submitted whose results have not been collected yet
    /// (queued, staging, computing, or done-but-unredeemed).
    pub fn in_flight(&self) -> usize {
        self.client.in_flight()
    }

    /// Drain the pipeline (every submitted batch finishes; uncollected
    /// results are dropped) and return the backend, weights and warm
    /// pools intact.
    pub fn into_backend(mut self) -> B {
        // drain BEFORE the client handle drops: a dropped client
        // cancels its unclaimed batches, and into_backend promises the
        // opposite — every submitted batch finishes
        let dispatcher = self.dispatcher.take().expect("dispatcher already taken");
        dispatcher.into_backend()
    }

    /// Legacy name for [`Session::into_backend`].
    #[deprecated(since = "0.2.0", note = "renamed to into_backend; remove: v0.3")]
    pub fn into_engine(self) -> B {
        self.into_backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecStats, SimBackend};
    use crate::engine::{CampEngine, DType};
    use camp_gemm::gemm_i32_ref;

    fn fill(len: usize, seed: i32) -> Vec<i8> {
        (0..len).map(|i| ((i as i32 * seed) % 16 - 8) as i8).collect()
    }

    fn serving_setup(threads: usize) -> (CampEngine, WeightHandle, Vec<i8>, usize, usize) {
        let (n, k) = (12, 33);
        let w = fill(k * n, 5);
        let mut eng = CampEngine::with_threads(threads);
        let h = eng.register_weights(n, k, &w, DType::I8);
        (eng, h, w, n, k)
    }

    fn handle_req(m: usize, a: Vec<i8>, h: WeightHandle) -> GemmRequest {
        GemmRequest::with_weights(m, a, h).expect("well-formed request")
    }

    fn host_packed_b(stats: &ExecStats) -> u64 {
        stats.as_host().expect("host stats").packed_b_bytes
    }

    #[test]
    fn submit_wait_matches_the_blocking_backend() {
        for threads in [1, 2, 4] {
            let (eng, h, w, n, k) = serving_setup(threads);
            let a1 = fill(7 * k, 3);
            let a2 = fill(4 * k, 11);
            let mut session = eng.serve();
            let t = session
                .submit(vec![handle_req(7, a1.clone(), h), handle_req(4, a2.clone(), h)])
                .unwrap();
            let outcome = session.wait(t);
            assert_eq!(outcome.outputs[0].c, gemm_i32_ref(7, n, k, &a1, &w), "threads={threads}");
            assert_eq!(outcome.outputs[1].c, gemm_i32_ref(4, n, k, &a2, &w), "threads={threads}");
            let stats = outcome.stats.as_host().expect("host session");
            assert_eq!(stats.packed_b_bytes, 0, "registered weights never pack B");
            assert!(stats.packed_a_bytes > 0, "staging traffic is accounted");
        }
    }

    #[test]
    fn many_batches_in_flight_complete_and_poll_in_any_order() {
        let (eng, h, w, n, k) = serving_setup(2);
        let mut session = eng.serve();
        let activations: Vec<Vec<i8>> = (0..6).map(|i| fill(3 * k, 3 + 2 * i)).collect();
        let tickets: Vec<TicketId> = activations
            .iter()
            .map(|a| session.submit(vec![handle_req(3, a.clone(), h)]).unwrap())
            .collect();
        // redeem newest-first: out-of-order collection must work
        for (a, t) in activations.iter().zip(&tickets).rev() {
            let outcome = session.wait(*t);
            assert_eq!(outcome.outputs[0].c, gemm_i32_ref(3, n, k, a, &w));
        }
    }

    #[test]
    fn poll_returns_none_until_ready_and_hands_out_once() {
        let (eng, h, w, n, k) = serving_setup(2);
        let a = fill(5 * k, 7);
        let mut session = eng.serve();
        let t = session.submit(vec![handle_req(5, a.clone(), h)]).unwrap();
        // poll until ready (bounded busy loop, the batch is tiny)
        let mut got = None;
        for _ in 0..10_000 {
            if let Some(outcome) = session.poll(t) {
                got = Some(outcome);
                break;
            }
            std::thread::yield_now();
        }
        let outcome = got.expect("batch never completed");
        assert_eq!(outcome.outputs[0].c, gemm_i32_ref(5, n, k, &a, &w));
        assert!(session.poll(t).is_none(), "results are handed out exactly once");
    }

    #[test]
    fn i4_weights_serve_under_the_i4_kernel() {
        let (n, k) = (8, 40);
        let w = fill(k * n, 5);
        let mut eng = CampEngine::with_threads(2);
        let h = eng.register_weights(n, k, &w, DType::I4);
        let a = fill(6 * k, 3);
        let mut session = eng.serve();
        let t = session.submit(vec![handle_req(6, a.clone(), h)]).unwrap();
        assert_eq!(session.wait(t).outputs[0].c, gemm_i32_ref(6, n, k, &a, &w));
    }

    #[test]
    fn dense_requests_serve_with_b_staged_off_the_compute_path() {
        // sessions are no longer handle-only: dense operands are
        // pre-packed by the stager, bit-identically
        let (m, n, k) = (6, 10, 33);
        let w = fill(k * n, 5);
        let a = fill(m * k, 3);
        let req = GemmRequest::dense(m, n, k, a.clone(), w.clone()).unwrap();
        let mut session = CampEngine::with_threads(2).serve();
        let t = session.submit(vec![req]).unwrap();
        let outcome = session.wait(t);
        assert_eq!(outcome.outputs[0].c, gemm_i32_ref(m, n, k, &a, &w));
        assert!(host_packed_b(&outcome.stats) > 0, "dense B staging is accounted");
    }

    #[test]
    fn degenerate_requests_serve_zero_filled_results() {
        let (n, k) = (4, 4);
        let w = fill(k * n, 5);
        let mut eng = CampEngine::new();
        let h = eng.register_weights(n, k, &w, DType::I8);
        let h0 = eng.register_weights(4, 0, &[], DType::I8);
        let mut session = eng.serve();
        let t = session
            .submit(vec![handle_req(0, Vec::new(), h), handle_req(3, Vec::new(), h0)])
            .unwrap();
        let outcome = session.wait(t);
        assert!(outcome.outputs[0].c.is_empty());
        assert_eq!(outcome.outputs[1].c, vec![0; 12]);
    }

    #[test]
    fn into_backend_drains_and_returns_a_warm_engine() {
        let (eng, h, w, n, k) = serving_setup(2);
        let a = fill(4 * k, 9);
        let req = handle_req(4, a.clone(), h);
        let mut session = eng.serve();
        let t = session.submit(vec![req.clone()]).unwrap();
        let outcome = session.wait(t);
        let mut eng = session.into_backend();
        // registry and pools survive the round trip
        assert_eq!(eng.execute(&req).unwrap().output, outcome.outputs[0]);
        assert_eq!(eng.execute(&req).unwrap().output.c, gemm_i32_ref(4, n, k, &a, &w));
    }

    #[test]
    fn large_requests_take_the_row_split_path() {
        // above BATCH_ROW_SPLIT_MACS: staged without a pre-packed A,
        // row-partitioned across the pool — still bit-identical
        let (n, k) = (160, 512);
        let m = 160; // 13.1 M MACs
        assert!((m * n * k) as u64 >= crate::engine::BATCH_ROW_SPLIT_MACS);
        let w = fill(k * n, 5);
        let a = fill(m * k, 3);
        let mut eng = CampEngine::with_threads(4);
        let h = eng.register_weights(n, k, &w, DType::I8);
        let mut session = eng.serve();
        let t = session.submit(vec![handle_req(m, a.clone(), h)]).unwrap();
        assert_eq!(session.wait(t).outputs[0].c, gemm_i32_ref(m, n, k, &a, &w));
    }

    #[test]
    fn submit_rejects_malformed_activations_without_panicking() {
        let (eng, h, _, _, _) = serving_setup(1);
        let mut session = eng.serve();
        let err = session.submit(vec![handle_req(3, vec![0; 5], h)]).unwrap_err();
        assert!(matches!(err, RequestError::ShapeMismatch { operand: "A", .. }));
        // the session survives a rejected submission
        let t = session.submit(Vec::new()).unwrap();
        assert!(session.wait(t).outputs.is_empty());
    }

    #[test]
    fn submit_rejects_stale_handles() {
        let (mut eng, h, _, _, k) = serving_setup(1);
        eng.evict_weights(h).unwrap();
        let mut session = eng.serve();
        let err = session.submit(vec![handle_req(2, fill(2 * k, 3), h)]).unwrap_err();
        assert_eq!(err, RequestError::StaleHandle);
    }

    #[test]
    #[should_panic(expected = "ticket result was already collected")]
    fn waiting_twice_on_a_ticket_is_an_error() {
        let (eng, h, _, _, k) = serving_setup(1);
        let a = fill(2 * k, 3);
        let mut session = eng.serve();
        let t = session.submit(vec![handle_req(2, a, h)]).unwrap();
        let _ = session.wait(t);
        let _ = session.wait(t);
    }

    #[test]
    fn session_steady_state_packs_no_b_and_pools_stop_growing() {
        let (eng, h, w, n, k) = serving_setup(3);
        let a = fill(8 * k, 3);
        let mut session = eng.serve();
        // warm-up round, then steady state
        let warm = session.submit(vec![handle_req(8, a.clone(), h)]).unwrap();
        let _ = session.wait(warm);
        let eng = session.into_backend();
        let warm_allocs = eng.pack_allocations();
        let mut session = eng.serve();
        for _ in 0..4 {
            let t = session.submit(vec![handle_req(8, a.clone(), h)]).unwrap();
            let outcome = session.wait(t);
            assert_eq!(outcome.outputs[0].c, gemm_i32_ref(8, n, k, &a, &w));
            assert_eq!(host_packed_b(&outcome.stats), 0, "steady-state serving must not pack B");
        }
        // pack pools are warm: steady-state batches grow nothing (the
        // per-request result and staged vectors are the caller-visible
        // allocations, not pool churn)
        assert_eq!(session.into_backend().pack_allocations(), warm_allocs);
    }

    #[test]
    fn deep_submission_backlogs_complete_in_order() {
        // many more batches than MAX_STAGED: backpressure parks the
        // stager without deadlock and every batch still completes
        let (eng, h, w, n, k) = serving_setup(2);
        let mut session = eng.serve();
        let activations: Vec<Vec<i8>> = (0..12).map(|i| fill(2 * k, 3 + 2 * i)).collect();
        let tickets: Vec<TicketId> = activations
            .iter()
            .map(|a| session.submit(vec![handle_req(2, a.clone(), h)]).unwrap())
            .collect();
        assert_eq!(session.in_flight(), 12);
        for (a, t) in activations.iter().zip(&tickets) {
            assert_eq!(session.wait(*t).outputs[0].c, gemm_i32_ref(2, n, k, a, &w));
        }
        assert_eq!(session.in_flight(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "serving session is dead")]
    fn a_poisoned_request_kills_the_session_loudly_not_silently() {
        // out-of-range i4 operands trip the kernel's debug assertion in
        // a worker; the death must surface on wait(), not hang it, and
        // the session must still shut down cleanly afterwards (Drop)
        let (n, k) = (4, 32);
        let w = fill(k * n, 5); // 4-bit safe
        let mut eng = CampEngine::new();
        let h = eng.register_weights(n, k, &w, DType::I4);
        let mut session = eng.serve();
        let a = vec![100i8; 2 * k]; // not 4-bit (handle requests defer the range check)
        let t = session.submit(vec![handle_req(2, a, h)]).unwrap();
        let _ = session.wait(t);
    }

    #[test]
    fn handles_from_another_backend_are_rejected_at_submit() {
        // same index, same shape, different engine: without the
        // registry stamp this would silently use the wrong weights
        let (eng, _, _, n, k) = serving_setup(1);
        let mut other = CampEngine::new();
        let foreign = other.register_weights(n, k, &fill(k * n, 9), DType::I8);
        let mut session = eng.serve();
        let err = session.submit(vec![handle_req(2, fill(2 * k, 3), foreign)]).unwrap_err();
        assert_eq!(err, RequestError::ForeignHandle);
    }

    #[test]
    #[should_panic(expected = "ticket was issued by a different session")]
    fn polling_a_foreign_ticket_fails_fast() {
        // the dangerous case: s2 has issued a ticket with the same
        // sequence number, so without the session stamp s1's ticket
        // would silently redeem s2's unrelated batch
        let (eng, h, _, _, k) = serving_setup(1);
        let mut s1 = eng.serve();
        let t = s1.submit(vec![handle_req(2, fill(2 * k, 3), h)]).unwrap();
        let _ = s1.wait(t);
        let (eng2, h2, _, _, k2) = serving_setup(1);
        let mut s2 = eng2.serve();
        let _ = s2.submit(vec![handle_req(2, fill(2 * k2, 5), h2)]).unwrap();
        // a ticket s2 never issued must panic, not spin or mis-redeem
        let _ = s2.poll(t);
    }

    #[test]
    fn legacy_requests_convert_into_the_new_form() {
        #[allow(deprecated)]
        let legacy = Request { m: 3, a: fill(3 * 33, 7), weights: serving_setup(1).1 };
        let req: GemmRequest = legacy.into();
        assert_eq!(req.m(), 3);
    }

    #[test]
    fn simulated_sessions_serve_batches_too() {
        // the ROADMAP next step that falls out of the generic session:
        // submit/poll serving of *simulated* batches
        let (n, k) = (8, 32);
        let w = fill(k * n, 5);
        let a = fill(4 * k, 3);
        let mut sim = SimBackend::a64fx();
        let h = crate::backend::CampBackend::register_weights(&mut sim, n, k, &w, DType::I8);
        let mut session = sim.serve();
        let t = session.submit(vec![handle_req(4, a.clone(), h)]).unwrap();
        let outcome = session.wait(t);
        assert_eq!(outcome.outputs[0].c, gemm_i32_ref(4, n, k, &a, &w));
        let stats = outcome.stats.as_sim().expect("simulated session");
        assert!(stats.cycles > 0, "simulated serving must report cycles");
        // the backend comes back usable
        let mut sim = session.into_backend();
        let req = handle_req(4, a.clone(), h);
        assert_eq!(sim.execute(&req).unwrap().output.c, gemm_i32_ref(4, n, k, &a, &w));
    }
}
