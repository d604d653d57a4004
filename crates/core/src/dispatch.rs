//! Multi-tenant serving dispatcher: N sessions, one engine.
//!
//! [`Session`](crate::session::Session) owns its backend exclusively —
//! concurrency stops at one client. Production serving means many
//! concurrent clients over one warm engine and one weight registry.
//! [`Dispatcher`] is that layer: it keeps the backend in a shared
//! **engine slot**, spawns a small crew of **stager** threads plus one
//! **driver** thread, and hands out any number of [`DispatchSession`]
//! clients, each with its own FIFO queue, ticket space and admission
//! bound.
//!
//! The pipeline generalizes the single-tenant session's three stages:
//!
//! 1. **submit** ([`DispatchSession::submit`] /
//!    [`DispatchSession::submit_with`]) — validates the batch against
//!    the registration snapshot, applies **admission control** (a
//!    session with [`DispatchOptions::queue_depth`] batches already in
//!    flight gets [`RequestError::Saturated`] back instead of unbounded
//!    memory growth), stamps a [`Priority`] and optional deadline, and
//!    returns a [`TicketId`];
//! 2. **stage** — the stager crew claims queued batches and runs
//!    [`CampBackend::prepare`] off the compute path. Claiming is
//!    **priority-aware and work-stealing**: under
//!    [`StealPolicy::Eager`] any stager takes the best-priority front
//!    batch of any session (stealing across sessions whenever its own
//!    are idle); [`StealPolicy::Pinned`] partitions sessions across
//!    stagers by slot for cache affinity. A per-session window of
//!    [`MAX_STAGED`] claimed-but-uncomputed batches preserves the
//!    "pack batch N+1 while batch N computes" overlap without staging
//!    a whole backlog into memory;
//! 3. **compute** — whoever holds the engine slot executes one batch
//!    on the backend. The driver repeatedly executes the *best* ready
//!    batch: highest [`Priority`] first
//!    (decode-latency-critical beats prefill-throughput), then earliest
//!    deadline, then admission order. An aging rule bounds priority
//!    inversion the other way: after [`DECODE_BURST`] consecutive
//!    decode batches the driver runs the best waiting prefill batch, so
//!    a decode flood cannot starve prefill indefinitely (and a prefill
//!    flood never delays decode by more than the one batch already on
//!    the engine). A picked batch whose deadline has **already passed**
//!    is shed — completed as [`RequestError::Shed`] without touching
//!    the engine (counted in [`DispatchStats::shed`]) — so an overload
//!    spends cycles only on batches that can still make their
//!    deadlines.
//!
//! **Caller runs.** A closed-loop client submits one batch and blocks
//! in [`DispatchSession::wait`]. Handing that batch to a stager and
//! then to the driver costs two thread wake-ups, which for a decode
//! step dwarf the GeMM itself. So a waiting client whose batch is the
//! one the stagers would claim next and the driver would run next —
//! the engine idle, nothing ready, no control op pending, no other
//! front batch ranking ahead of it — takes the engine slot and runs
//! [`CampBackend::prepare`] and [`CampBackend::execute_prepared`] on
//! its own thread (counted in [`DispatchStats::inline`]). The
//! `running` flag in the shared state marks the slot taken, so the
//! driver and the clients execute one at a time, and priority, aging,
//! shedding and eviction order come out as if the pipeline had run the
//! batch. Pipelining clients (several batches in flight) still go
//! through the stagers.
//!
//! Weight **eviction races** are first-class: [`Dispatcher::evict_weights`]
//! condemns the handle immediately (new submissions fail with
//! [`RequestError::StaleHandle`]) and queues a control op the driver
//! serializes with batch execution through the engine slot, so a
//! stale handle racing a live session errs per batch instead of
//! panicking the engine.
//!
//! Every primitive comes from [`crate::sync`], so the whole protocol is
//! explored by the `camp-loom` model checker (`tests/model/dispatch_model.rs`)
//! under `RUSTFLAGS="--cfg loom"`.
//!
//! ```
//! use camp_core::backend::CampBackend;
//! use camp_core::dispatch::{DispatchOptions, Dispatcher, Priority, StealPolicy};
//! use camp_core::{CampEngine, DType, GemmRequest};
//!
//! let (n, k) = (8, 32);
//! let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
//! let mut engine = CampEngine::with_threads(2);
//! let weights = engine.register_weights(n, k, &w, DType::I8);
//!
//! let opts = DispatchOptions { stagers: 2, queue_depth: 8, steal: StealPolicy::Eager };
//! let dispatcher = Dispatcher::with_options(engine, opts);
//! let mut decode = dispatcher.session();
//! let mut prefill = dispatcher.session();
//!
//! let a: Vec<i8> = (0..2 * k).map(|i| (i % 13) as i8 - 6).collect();
//! let d = decode
//!     .submit_with(
//!         vec![GemmRequest::with_weights(2, a.clone(), weights).unwrap()],
//!         Priority::Decode,
//!         None,
//!     )
//!     .unwrap();
//! let p = prefill.submit(vec![GemmRequest::with_weights(2, a, weights).unwrap()]).unwrap();
//! assert_eq!(decode.wait(d).unwrap().outputs.len(), 1);
//! assert_eq!(prefill.wait(p).unwrap().outputs.len(), 1);
//! drop((decode, prefill));
//! let _engine = dispatcher.into_backend(); // drains, hands the warm engine back
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

// the sync seam: std primitives normally, the camp-loom model checker
// under `--cfg loom` (see crate::sync and tests/model/)
use crate::sync::thread::JoinHandle;
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};

use camp_gemm::request::{GemmRequest, Operand, RequestError};
use camp_gemm::weights::{WeightHandle, WeightMeta, WeightSnapshot};

use crate::backend::{env_usize, BatchOutcome, CampBackend};

/// Batches one session may have claimed-but-uncomputed (being prepared,
/// ready, or on the engine) at a time: one computing, one staging — the
/// documented "pack batch N+1 while batch N computes" window. Beyond
/// this the stagers move to other sessions (or park) instead of staging
/// a whole backlog into memory.
pub const MAX_STAGED: usize = 2;

/// Aging bound: after this many *consecutive* decode batches the driver
/// runs the best waiting prefill batch, so a decode flood cannot starve
/// prefill work indefinitely. (The reverse inversion — prefill starving
/// decode — is bounded at one batch by the priority order itself.)
pub const DECODE_BURST: u32 = 8;

/// Scheduling class of a submitted batch. Decode-latency-critical work
/// outranks prefill-throughput work at every scheduling point (claim
/// order and execute order); `Ord` encodes that (`Decode > Prefill`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Throughput-oriented work (prompt prefill, bulk scoring). The
    /// default for [`DispatchSession::submit`].
    #[default]
    Prefill,
    /// Latency-critical work (autoregressive decode steps); beats
    /// prefill whenever both are runnable.
    Decode,
}

/// How stagers pick sessions to stage from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum StealPolicy {
    /// Any stager claims the best pending batch of *any* session —
    /// work-stealing across sessions; claims outside a stager's home
    /// partition are counted in [`DispatchStats::stolen`]. The default.
    #[default]
    Eager,
    /// Sessions are partitioned across stagers by slot (`slot %
    /// stagers`); a stager only stages its own partition. No stealing,
    /// stable operand-cache affinity.
    Pinned,
}

/// Dispatcher construction knobs; see [`DispatchOptions::from_env`] for
/// the environment surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchOptions {
    /// Stager threads preparing operands off the compute path (≥ 1).
    pub stagers: usize,
    /// Default per-session admission bound: a session with this many
    /// batches in flight (submitted, not yet completed) has further
    /// submissions rejected with [`RequestError::Saturated`].
    /// [`Dispatcher::session_with_depth`] overrides per session.
    pub queue_depth: usize,
    /// Session-claiming policy of the stager crew.
    pub steal: StealPolicy,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        DispatchOptions { stagers: 2, queue_depth: 8, steal: StealPolicy::Eager }
    }
}

impl DispatchOptions {
    /// Defaults with the environment overrides applied:
    ///
    /// * `CAMP_DISPATCH_STAGERS` — stager thread count (clamped ≥ 1);
    /// * `CAMP_QUEUE_DEPTH` — per-session admission bound (clamped ≥ 1);
    /// * `CAMP_STEAL_POLICY` — `eager` or `pinned`.
    ///
    /// # Panics
    /// Panics on a value that does not parse, rather than silently
    /// serving with a configuration the operator did not ask for.
    pub fn from_env() -> Self {
        let mut opts = DispatchOptions::default();
        if let Some(n) = env_usize("CAMP_DISPATCH_STAGERS") {
            opts.stagers = 1usize.max(n);
        }
        if let Some(n) = env_usize("CAMP_QUEUE_DEPTH") {
            opts.queue_depth = 1usize.max(n);
        }
        if let Ok(s) = std::env::var("CAMP_STEAL_POLICY") {
            opts.steal = match s.to_ascii_lowercase().as_str() {
                "eager" => StealPolicy::Eager,
                "pinned" => StealPolicy::Pinned,
                other => panic!("CAMP_STEAL_POLICY must be 'eager' or 'pinned', got '{other}'"),
            };
        }
        opts
    }
}

/// Identifier of one submitted batch; redeem it with
/// [`DispatchSession::poll`] or [`DispatchSession::wait`] (or the
/// single-tenant [`crate::session::Session`] equivalents). Stamped with
/// its session's identity, so a ticket presented to a different session
/// panics instead of silently redeeming that session's unrelated
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TicketId {
    session: u64,
    seq: u64,
}

/// Monotonic + live counters of one dispatcher, snapshotted by
/// [`Dispatcher::stats`]. The regression suites assert on these: permit
/// accounting (`staging_live` returns to 0 after a drain), steal
/// accounting (`stolen == 0` under [`StealPolicy::Pinned`]), admission
/// accounting (`rejected` counts every [`RequestError::Saturated`]).
#[non_exhaustive]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Batches accepted by admission control, ever.
    pub submitted: u64,
    /// Batches executed to completion (successfully), ever.
    pub executed: u64,
    /// Of `executed`, the batches a waiting client ran on its own
    /// thread (the caller-runs path of [`DispatchSession::wait`]), ever.
    pub inline: u64,
    /// Batches cancelled unclaimed when their session dropped, ever.
    pub cancelled: u64,
    /// Submissions rejected with [`RequestError::Saturated`], ever.
    pub rejected: u64,
    /// Batches a stager claimed outside its home partition
    /// ([`StealPolicy::Eager`] only; pinned stagers never steal), ever.
    pub stolen: u64,
    /// Eviction control ops accepted by [`Dispatcher::evict_weights`],
    /// ever.
    pub evictions: u64,
    /// Batches failed with [`RequestError::StaleHandle`] because a
    /// handle they carry was condemned before they reached the engine,
    /// ever.
    pub stale_failures: u64,
    /// Batches shed because their deadline had already passed when the
    /// driver picked them — completed as [`RequestError::Shed`] without
    /// touching the engine, ever.
    pub shed: u64,
    /// Batches currently claimed-but-uncompleted across all sessions
    /// (being prepared, ready, or on the engine). 0 when drained.
    pub staging_live: usize,
    /// Batches staged and ready for the driver right now.
    pub ready_now: usize,
    /// The engine slot is taken right now: the driver or a waiting
    /// client is executing a batch (or the driver an eviction).
    pub engine_busy: bool,
    /// Sessions currently open (or closed with work still in flight).
    pub sessions_live: usize,
}

// ---- shared state ----------------------------------------------------------

/// One queued batch: validated, not yet claimed by a stager.
struct Pending {
    seq: u64,
    batch: Vec<GemmRequest>,
    priority: Priority,
    deadline: Option<Instant>,
    /// Weight handles the batch references (for the condemned check).
    handles: Vec<WeightHandle>,
    /// Global admission order, the FIFO tie-breaker across sessions.
    admit: u64,
}

/// One staged batch: prepared, waiting for (or on) the engine.
struct ReadyBatch<P> {
    slot: usize,
    seq: u64,
    staged: Vec<P>,
    priority: Priority,
    deadline: Option<Instant>,
    handles: Vec<WeightHandle>,
    admit: u64,
}

/// Per-session queue + ticket state.
struct SessQueue {
    /// Admission bound: max batches in flight before `Saturated`.
    depth: usize,
    /// Submitted, not yet claimed by a stager.
    submitted: VecDeque<Pending>,
    /// Batches in flight: submitted and not yet completed/cancelled.
    /// This — not the queue length — is what admission control bounds,
    /// so the documented bound holds regardless of stager/driver
    /// interleaving.
    pending: usize,
    /// Claimed-but-uncompleted batches (≤ [`MAX_STAGED`]).
    staged_live: usize,
    /// Completed, not yet collected.
    done: HashMap<u64, Result<BatchOutcome, RequestError>>,
    /// Collected-ticket compaction (identical to the single-tenant
    /// session's): everything below the floor was redeemed, plus the
    /// sparse set above it.
    collected_floor: u64,
    collected: HashSet<u64>,
    /// The client was dropped; cancel unclaimed work, drop new results,
    /// reap the slot once in-flight work completes.
    closed: bool,
}

impl SessQueue {
    fn with_depth(depth: usize) -> Self {
        SessQueue {
            depth,
            submitted: VecDeque::new(),
            pending: 0,
            staged_live: 0,
            done: HashMap::new(),
            collected_floor: 0,
            collected: HashSet::new(),
            closed: false,
        }
    }

    fn is_collected(&self, ticket: u64) -> bool {
        ticket < self.collected_floor || self.collected.contains(&ticket)
    }

    fn mark_collected(&mut self, ticket: u64) {
        self.collected.insert(ticket);
        while self.collected.remove(&self.collected_floor) {
            self.collected_floor += 1;
        }
    }

    fn collected_count(&self) -> usize {
        self.collected_floor as usize + self.collected.len()
    }
}

/// Monotonic counters (the gauge fields of [`DispatchStats`] are
/// derived from live state at snapshot time).
#[derive(Default)]
struct Counters {
    submitted: u64,
    executed: u64,
    inline: u64,
    cancelled: u64,
    rejected: u64,
    stolen: u64,
    evictions: u64,
    stale_failures: u64,
    shed: u64,
}

/// Dispatcher state shared by clients, stagers and the driver.
///
/// Scheduling scans (`claim`, `pick_ready`) walk `Vec`s in slot/index
/// order on purpose: `HashMap`/`HashSet` iteration order must never
/// drive a scheduling decision or the loom models would explore
/// schedules production never runs (keyed lookups are fine).
struct DispState<P> {
    /// Session slots; `None` slots are reaped and reusable.
    sessions: Vec<Option<SessQueue>>,
    /// Staged batches awaiting the driver.
    ready: Vec<ReadyBatch<P>>,
    /// Eviction control ops awaiting the driver (serialized with batch
    /// execution through the engine slot).
    controls: VecDeque<WeightHandle>,
    /// The engine slot is taken: the driver or a waiting client is
    /// executing a batch (or the driver an eviction). Whoever sets this
    /// under the lock is the only thread that touches the backend until
    /// it clears it again.
    running: bool,
    /// Claimed batches the stagers are still preparing, counted by
    /// [`Priority`] (`staging[p as usize]`), so a waiting client never
    /// runs its batch ahead of one that outranks it.
    staging: [usize; 2],
    /// Handles condemned by [`Dispatcher::evict_weights`]: submissions
    /// and ready batches carrying one fail with `StaleHandle` instead
    /// of reaching an engine that may already have dropped the panel.
    condemned: HashSet<WeightHandle>,
    /// Global admission counter (cross-session FIFO tie-breaker).
    admit_seq: u64,
    /// Consecutive decode batches the driver has run (the aging rule).
    decode_run: u32,
    live_stagers: usize,
    shutdown: bool,
    /// Set when a pipeline thread died; clients panic instead of
    /// hanging.
    dead: Option<&'static str>,
    stats: Counters,
}

impl<P> DispState<P> {
    fn new(stagers: usize) -> Self {
        DispState {
            sessions: Vec::new(),
            ready: Vec::new(),
            controls: VecDeque::new(),
            running: false,
            staging: [0; 2],
            condemned: HashSet::new(),
            admit_seq: 0,
            decode_run: 0,
            live_stagers: stagers,
            shutdown: false,
            dead: None,
            stats: Counters::default(),
        }
    }

    /// True while `worker` may yet have claimable work under `shutdown`
    /// — any visible session with a non-empty queue, *ignoring* the
    /// [`MAX_STAGED`] window (capped work still pending means "wait for
    /// the driver to make room", not "exit and drop it").
    fn drainable(&self, worker: usize, stagers: usize, steal: StealPolicy) -> bool {
        self.sessions.iter().enumerate().any(|(slot, q)| {
            q.as_ref().is_some_and(|q| {
                !q.submitted.is_empty() && (steal == StealPolicy::Eager || slot % stagers == worker)
            })
        })
    }

    /// Claim the best pending batch visible to `worker`: highest
    /// front-of-queue priority, then earliest admission, skipping
    /// sessions at their [`MAX_STAGED`] window (and, under
    /// [`StealPolicy::Pinned`], sessions outside the worker's
    /// partition).
    fn claim(
        &mut self,
        worker: usize,
        stagers: usize,
        steal: StealPolicy,
    ) -> Option<(usize, Pending)> {
        let mut best: Option<(usize, Priority, u64)> = None;
        for (slot, q) in self.sessions.iter().enumerate() {
            let Some(q) = q else { continue };
            if q.staged_live >= MAX_STAGED {
                continue;
            }
            if steal == StealPolicy::Pinned && slot % stagers != worker {
                continue;
            }
            let Some(front) = q.submitted.front() else { continue };
            let better = match best {
                None => true,
                Some((_, bp, ba)) => {
                    front.priority > bp || (front.priority == bp && front.admit < ba)
                }
            };
            if better {
                best = Some((slot, front.priority, front.admit));
            }
        }
        let (slot, priority, _) = best?;
        if steal == StealPolicy::Eager && slot % stagers != worker {
            self.stats.stolen += 1;
        }
        self.staging[priority as usize] += 1;
        let q = self.sessions[slot].as_mut().expect("claimed slot is live");
        q.staged_live += 1;
        Some((slot, q.submitted.pop_front().expect("claimed queue is non-empty")))
    }

    /// Claim batch `seq` of session `slot` for its waiting client to
    /// run on the client's own thread, taking the engine slot. Only
    /// when the pipeline would run that batch next anyway: the engine
    /// is idle, nothing is ready, no control op is pending, the batch
    /// is its session's only claimable one (and nothing earlier of the
    /// session is in flight), no other session's front batch ranks
    /// ahead of it in claim order, no batch being staged outranks it,
    /// the aging rule would not pick a prefill batch instead, its
    /// deadline has not passed and none of its handles is condemned.
    /// The bookkeeping matches a driver pick: staging window and
    /// `decode_run` advance exactly as they would on that path.
    fn claim_inline(&mut self, slot: usize, seq: u64) -> Option<Pending> {
        if self.running || self.shutdown || !self.ready.is_empty() || !self.controls.is_empty() {
            return None;
        }
        let q = self.sessions[slot].as_ref().expect("live client keeps its slot");
        let t = match q.submitted.front() {
            Some(t) if t.seq == seq && q.submitted.len() == 1 && q.staged_live == 0 => t,
            _ => return None,
        };
        if self.staging[Priority::Decode as usize] > 0 && t.priority == Priority::Prefill {
            return None;
        }
        let aging = t.priority == Priority::Decode && self.decode_run >= DECODE_BURST;
        if aging && self.staging[Priority::Prefill as usize] > 0 {
            return None;
        }
        for (other, oq) in self.sessions.iter().enumerate() {
            let Some(f) = oq.as_ref().and_then(|oq| oq.submitted.front()) else { continue };
            if other != slot
                && (f.priority > t.priority
                    || (f.priority == t.priority && f.admit < t.admit)
                    || (aging && f.priority == Priority::Prefill))
            {
                return None;
            }
        }
        if t.deadline.is_some_and(|dl| Instant::now() > dl)
            || t.handles.iter().any(|h| self.condemned.contains(h))
        {
            return None;
        }
        self.running = true;
        self.advance_decode_run(t.priority);
        let q = self.sessions[slot].as_mut().expect("live client keeps its slot");
        q.staged_live += 1;
        q.submitted.pop_front()
    }

    /// Index of the batch the driver should run next, or `None` when
    /// nothing is ready. Priority desc, deadline asc (`None` = ∞),
    /// admission asc — except that after [`DECODE_BURST`] consecutive
    /// decode batches the best *prefill* batch wins (bounded aging).
    fn pick_ready(&self) -> Option<usize> {
        if self.ready.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.ready.len() {
            if beats(&self.ready[i], &self.ready[best]) {
                best = i;
            }
        }
        if self.ready[best].priority == Priority::Decode && self.decode_run >= DECODE_BURST {
            let mut aged: Option<usize> = None;
            for (i, r) in self.ready.iter().enumerate() {
                if r.priority == Priority::Prefill {
                    let better = match aged {
                        None => true,
                        Some(a) => beats(r, &self.ready[a]),
                    };
                    if better {
                        aged = Some(i);
                    }
                }
            }
            if let Some(a) = aged {
                return Some(a);
            }
        }
        Some(best)
    }

    /// The aging rule's bookkeeping for a batch picked to run next.
    fn advance_decode_run(&mut self, priority: Priority) {
        self.decode_run = match priority {
            Priority::Decode => self.decode_run + 1,
            Priority::Prefill => 0,
        };
    }

    /// Book one batch's completion: frees its session's staging window
    /// and in-flight permit, files the result (unless the client is
    /// gone), reaps the slot if it was the last obligation.
    fn complete(&mut self, slot: usize, seq: u64, result: Result<BatchOutcome, RequestError>) {
        let q = self.sessions[slot].as_mut().expect("in-flight batch keeps its slot live");
        q.staged_live -= 1;
        q.pending -= 1;
        if !q.closed {
            q.done.insert(seq, result);
        }
        self.maybe_reap(slot);
    }

    /// Free a closed session's slot once nothing is in flight for it.
    fn maybe_reap(&mut self, slot: usize) {
        if let Some(q) = &self.sessions[slot] {
            if q.closed && q.pending == 0 {
                self.sessions[slot] = None;
            }
        }
    }
}

/// Execute-order comparison: does `a` beat `b`?
fn beats<P>(a: &ReadyBatch<P>, b: &ReadyBatch<P>) -> bool {
    if a.priority != b.priority {
        return a.priority > b.priority;
    }
    match (a.deadline, b.deadline) {
        (Some(x), Some(y)) if x != y => return x < y,
        (Some(_), None) => return true,
        (None, Some(_)) => return false,
        _ => {}
    }
    a.admit < b.admit
}

struct Shared<B: CampBackend> {
    state: Mutex<DispState<B::Prepared>>,
    /// The engine slot. Only the thread that set
    /// [`DispState::running`] locks it — the driver, or a client
    /// running its own batch — so the lock is never contended; it
    /// exists to hand that thread `&mut B`. Emptied at shutdown.
    engine: Mutex<Option<B>>,
    /// Wakes stagers: new submission, staging room freed, cancellation,
    /// shutdown. A submission under [`StealPolicy::Eager`] wakes one
    /// stager (any can claim it, and a woken stager keeps claiming
    /// until nothing is claimable); everything else uses `notify_all` —
    /// under [`StealPolicy::Pinned`] a `notify_one` could wake a stager
    /// that cannot see the new work while its owner sleeps (a lost
    /// wakeup).
    work_cv: Condvar,
    /// Wakes the driver: batch staged, control queued, stager crew
    /// exited, engine slot released by a client, shutdown.
    ready_cv: Condvar,
    /// Wakes waiting clients: batch completed, engine slot released,
    /// pipeline death.
    done_cv: Condvar,
    /// Registration snapshot every submission validates against and
    /// every stager prepares against.
    weights: WeightSnapshot,
    /// The stager crew's claiming policy (decides how a submission
    /// wakes it).
    steal: StealPolicy,
}

impl<B: CampBackend> Shared<B> {
    /// Lock the state, ignoring mutex poisoning: every mutation is
    /// atomic under the lock (queues stay consistent even if a caller
    /// panicked mid-`wait`), and shutdown must still work after a panic
    /// so `Drop` can join the pipeline threads.
    fn lock(&self) -> MutexGuard<'_, DispState<B::Prepared>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait on `cv`, ignoring poisoning like [`Shared::lock`].
    fn wait<'a>(
        &self,
        cv: &Condvar,
        st: MutexGuard<'a, DispState<B::Prepared>>,
    ) -> MutexGuard<'a, DispState<B::Prepared>> {
        cv.wait(st).unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` on the backend in the engine slot. The caller must hold
    /// [`DispState::running`].
    fn with_engine<R>(&self, f: impl FnOnce(&mut B) -> R) -> R {
        let mut slot = self.engine.lock().unwrap_or_else(|e| e.into_inner());
        f(slot.as_mut().expect("the engine slot holds the backend until shutdown"))
    }

    /// Book an executed batch and release the engine slot. Wakes the
    /// stagers (staging room freed) and the waiting clients (a result,
    /// or an idle engine to run their own batch on).
    fn finish_run(
        &self,
        st: &mut DispState<B::Prepared>,
        slot: usize,
        seq: u64,
        outcome: BatchOutcome,
    ) {
        st.running = false;
        st.stats.executed += 1;
        st.complete(slot, seq, Ok(outcome));
        // the freed staging window only matters to a session with
        // queued work
        if st.sessions[slot].as_ref().is_some_and(|q| !q.submitted.is_empty()) {
            self.work_cv.notify_all();
        }
        self.done_cv.notify_all();
    }

    /// Mark the pipeline dead, release the engine slot and wake
    /// everyone.
    fn mark_dead(&self, who: &'static str) {
        let mut st = self.lock();
        st.dead = Some(who);
        st.running = false;
        self.work_cv.notify_all();
        self.ready_cv.notify_all();
        self.done_cv.notify_all();
    }
}

/// Notifies the dispatcher if a pipeline thread unwinds, so clients
/// blocked in [`DispatchSession::wait`] fail fast instead of hanging.
struct DeathWatch<'a, B: CampBackend> {
    shared: &'a Shared<B>,
    who: &'static str,
    armed: bool,
}

impl<B: CampBackend> Drop for DeathWatch<'_, B> {
    fn drop(&mut self) {
        if self.armed {
            self.shared.mark_dead(self.who);
        }
    }
}

fn next_session_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    // process-global identity, not protocol state: deliberately std
    // even under loom (see the crate::sync module docs)
    static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(0);
    NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed)
}

// ---- pipeline threads ------------------------------------------------------

fn stager_loop<B: CampBackend>(
    shared: &Shared<B>,
    worker: usize,
    stagers: usize,
    steal: StealPolicy,
) {
    let mut watch = DeathWatch { shared, who: "stager", armed: true };
    loop {
        let claimed = {
            let mut st = shared.lock();
            loop {
                if st.dead.is_some() {
                    break None;
                }
                if let Some(claimed) = st.claim(worker, stagers, steal) {
                    break Some(claimed);
                }
                if st.shutdown && !st.drainable(worker, stagers, steal) {
                    break None;
                }
                st = shared.wait(&shared.work_cv, st);
            }
        };
        let Some((slot, pending)) = claimed else {
            let mut st = shared.lock();
            st.live_stagers -= 1;
            if st.live_stagers == 0 {
                // the driver's exit predicate depends on this count
                shared.ready_cv.notify_all();
            }
            watch.armed = false;
            return;
        };
        // the pipeline overlap: this staging runs while the driver
        // computes other batches on the engine
        let Pending { seq, batch, priority, deadline, handles, admit } = pending;
        let staged: Vec<B::Prepared> =
            batch.into_iter().map(|r| B::prepare(r, &shared.weights)).collect();
        let mut st = shared.lock();
        st.staging[priority as usize] -= 1;
        st.ready.push(ReadyBatch { slot, seq, staged, priority, deadline, handles, admit });
        shared.ready_cv.notify_all();
    }
}

enum DriverAction<P> {
    Evict(WeightHandle),
    Run(ReadyBatch<P>),
    Exit,
}

fn driver_loop<B: CampBackend>(shared: &Shared<B>) {
    let mut watch = DeathWatch { shared, who: "driver", armed: true };
    loop {
        let action = {
            let mut st = shared.lock();
            loop {
                if st.dead.is_some() {
                    break DriverAction::Exit;
                }
                // a client running its own batch holds the engine slot;
                // its release wakes this loop again
                if !st.running {
                    // controls first: an eviction must not wait behind
                    // a backlog of batches that will each fail against
                    // it
                    if let Some(h) = st.controls.pop_front() {
                        st.running = true;
                        break DriverAction::Evict(h);
                    }
                    if let Some(i) = st.pick_ready() {
                        let chosen = st.ready.remove(i);
                        st.advance_decode_run(chosen.priority);
                        if chosen.handles.iter().any(|h| st.condemned.contains(h)) {
                            // condemned while queued: fail the batch
                            // without touching the (possibly already
                            // evicted) panel
                            st.stats.stale_failures += 1;
                            st.complete(chosen.slot, chosen.seq, Err(RequestError::StaleHandle));
                            shared.work_cv.notify_all();
                            shared.done_cv.notify_all();
                            continue;
                        }
                        if chosen.deadline.is_some_and(|dl| Instant::now() > dl) {
                            // deadline already missed: computing it
                            // would only delay batches that can still
                            // make theirs
                            st.stats.shed += 1;
                            st.complete(chosen.slot, chosen.seq, Err(RequestError::Shed));
                            shared.work_cv.notify_all();
                            shared.done_cv.notify_all();
                            continue;
                        }
                        st.running = true;
                        break DriverAction::Run(chosen);
                    }
                    if st.shutdown && st.live_stagers == 0 && st.controls.is_empty() {
                        break DriverAction::Exit;
                    }
                }
                st = shared.wait(&shared.ready_cv, st);
            }
        };
        match action {
            DriverAction::Exit => {
                watch.armed = false;
                return;
            }
            DriverAction::Evict(h) => {
                // the engine slot serializes this with every execute; a
                // handle evicted behind the snapshot's back is already
                // an error, ignore it
                let _ = shared.with_engine(|b| b.evict_weights(h));
                let mut st = shared.lock();
                st.running = false;
                shared.done_cv.notify_all();
            }
            DriverAction::Run(ready) => {
                let outcome = shared.with_engine(|b| b.execute_prepared(ready.staged));
                shared.finish_run(&mut shared.lock(), ready.slot, ready.seq, outcome);
            }
        }
    }
}

// ---- the client handle -----------------------------------------------------

/// One tenant's handle onto a shared [`Dispatcher`]: its own FIFO
/// queue, ticket space, admission bound and result map. Dropping the
/// handle cancels its unclaimed batches and releases the slot once
/// in-flight work completes.
pub struct DispatchSession<B: CampBackend + Send + 'static> {
    shared: Arc<Shared<B>>,
    slot: usize,
    /// Process-unique identity stamped into this session's tickets.
    id: u64,
    next_seq: u64,
}

impl<B: CampBackend + Send + 'static> std::fmt::Debug for DispatchSession<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatchSession")
            .field("id", &self.id)
            .field("slot", &self.slot)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl<B: CampBackend + Send + 'static> DispatchSession<B> {
    /// Enqueue one batch at [`Priority::Prefill`] with no deadline; see
    /// [`DispatchSession::submit_with`].
    pub fn submit(&mut self, batch: Vec<GemmRequest>) -> Result<TicketId, RequestError> {
        self.submit_with(batch, Priority::Prefill, None)
    }

    /// Enqueue one batch; returns immediately with the ticket that will
    /// redeem its results. Within one session, batches of equal
    /// priority complete in submission order; across sessions the
    /// dispatcher schedules by priority, deadline, then admission
    /// order.
    ///
    /// Every request is validated against the registration snapshot
    /// taken when the dispatcher started — stale or foreign handles and
    /// malformed shapes are rejected here as [`RequestError`]s, and a
    /// handle condemned by [`Dispatcher::evict_weights`] rejects as
    /// [`RequestError::StaleHandle`]. A session already at its
    /// admission bound rejects with [`RequestError::Saturated`]
    /// (deterministically: the bound counts batches in flight, not
    /// queue occupancy, so it does not depend on how far the pipeline
    /// happens to have drained the queue). Nothing is enqueued on any
    /// error.
    ///
    /// # Panics
    /// Panics if a pipeline thread has already died, or the dispatcher
    /// was shut down while this handle was kept alive.
    pub fn submit_with(
        &mut self,
        batch: Vec<GemmRequest>,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<TicketId, RequestError> {
        let mut handles = Vec::new();
        for r in &batch {
            r.resolve(&self.shared.weights)?;
            if let Operand::Handle(h) = r.weights() {
                handles.push(*h);
            }
        }
        let mut st = self.shared.lock();
        if let Some(who) = st.dead {
            panic!("serving session is dead: {who} thread panicked");
        }
        if st.shutdown {
            panic!("dispatcher is shut down");
        }
        if handles.iter().any(|h| st.condemned.contains(h)) {
            return Err(RequestError::StaleHandle);
        }
        let q = self.shared.queue(&mut st, self.slot);
        if q.pending >= q.depth {
            let depth = q.depth;
            st.stats.rejected += 1;
            return Err(RequestError::Saturated { depth });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        q.pending += 1;
        let admit = st.admit_seq;
        st.admit_seq += 1;
        let q = self.shared.queue(&mut st, self.slot);
        q.submitted.push_back(Pending { seq, batch, priority, deadline, handles, admit });
        st.stats.submitted += 1;
        match self.shared.steal {
            StealPolicy::Eager => self.shared.work_cv.notify_one(),
            StealPolicy::Pinned => self.shared.work_cv.notify_all(),
        }
        Ok(TicketId { session: self.id, seq })
    }

    /// A ticket's queue key, after verifying it belongs to this
    /// session.
    fn check_ticket(&self, ticket: TicketId) -> u64 {
        assert_eq!(ticket.session, self.id, "ticket was issued by a different session");
        assert!(ticket.seq < self.next_seq, "ticket was never issued by this session");
        ticket.seq
    }

    /// Non-blocking result check: `None` while the batch is still in
    /// the pipeline. The result is handed out exactly once — a second
    /// poll of the same ticket returns `None` again. `Some(Err(_))`
    /// reports a batch failed in flight (today: condemned by a racing
    /// [`Dispatcher::evict_weights`]).
    pub fn poll(&mut self, ticket: TicketId) -> Option<Result<BatchOutcome, RequestError>> {
        let seq = self.check_ticket(ticket);
        let mut st = self.shared.lock();
        // completed results stay retrievable even after a pipeline
        // thread died — only a still-pending ticket has to fail
        let q = self.shared.queue(&mut st, self.slot);
        if let Some(result) = q.done.remove(&seq) {
            q.mark_collected(seq);
            return Some(result);
        }
        if let Some(who) = st.dead {
            panic!("serving session is dead: {who} thread panicked");
        }
        None
    }

    /// Block until the batch completes; `Err` reports a batch failed in
    /// flight (today: condemned by a racing
    /// [`Dispatcher::evict_weights`], or shed past its deadline). Each
    /// ticket can be waited on exactly once.
    ///
    /// **Caller runs:** when the batch is the one the pipeline would
    /// run next — this session's only unclaimed batch, the engine idle
    /// and nothing ahead of it (see the [module docs](self)) — the
    /// waiting thread takes the engine slot and prepares and executes
    /// it itself instead of paying the stager and driver hand-offs.
    /// The result, the stats and every scheduling decision are the
    /// same either way; [`DispatchStats::inline`] counts these batches.
    ///
    /// # Panics
    /// Panics if a pipeline thread died, the backend panicked while
    /// this thread ran the batch (the dispatcher is dead afterwards,
    /// exactly as after a driver death), or the ticket's result was
    /// already collected.
    pub fn wait(&mut self, ticket: TicketId) -> Result<BatchOutcome, RequestError> {
        let seq = self.check_ticket(ticket);
        let mut st = self.shared.lock();
        loop {
            let q = self.shared.queue(&mut st, self.slot);
            assert!(!q.is_collected(seq), "ticket result was already collected");
            if let Some(result) = q.done.remove(&seq) {
                q.mark_collected(seq);
                return result;
            }
            if let Some(who) = st.dead {
                panic!("serving session is dead: {who} thread panicked");
            }
            st = match st.claim_inline(self.slot, seq) {
                Some(pending) => {
                    drop(st);
                    self.run_inline(pending)
                }
                None => self.shared.wait(&self.shared.done_cv, st),
            };
        }
    }

    /// The caller-runs path: prepare and execute a batch claimed by
    /// [`DispState::claim_inline`] on this thread, then book it exactly
    /// as the driver would. A panic in the backend kills the
    /// dispatcher the way a driver death does — engine slot released,
    /// `dead` set, every waiter woken — and surfaces here as the same
    /// "serving session is dead" panic every other client sees.
    fn run_inline(&self, pending: Pending) -> MutexGuard<'_, DispState<B::Prepared>> {
        let shared = &*self.shared;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let staged: Vec<B::Prepared> =
                pending.batch.into_iter().map(|r| B::prepare(r, &shared.weights)).collect();
            shared.with_engine(|b| b.execute_prepared(staged))
        }));
        let Ok(outcome) = ran else {
            shared.mark_dead("client");
            panic!("serving session is dead: client thread panicked");
        };
        let mut st = shared.lock();
        st.stats.inline += 1;
        shared.finish_run(&mut st, self.slot, pending.seq, outcome);
        // the driver may be parked on work that arrived while this
        // thread held the engine, or on its shutdown exit
        if !st.ready.is_empty() || !st.controls.is_empty() || st.shutdown {
            shared.ready_cv.notify_all();
        }
        st
    }

    /// Batches submitted whose results have not been collected yet
    /// (queued, staging, computing, or done-but-unredeemed).
    pub fn in_flight(&self) -> usize {
        let mut st = self.shared.lock();
        let collected = self.shared.queue(&mut st, self.slot).collected_count();
        self.next_seq as usize - collected
    }

    /// This session's process-unique identity (the stamp in its
    /// tickets).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl<B: CampBackend> Shared<B> {
    /// A live client's queue. The slot cannot be reaped while the
    /// client exists (reaping requires `closed`, set only on drop).
    fn queue<'a>(
        &self,
        st: &'a mut MutexGuard<'_, DispState<B::Prepared>>,
        slot: usize,
    ) -> &'a mut SessQueue {
        st.sessions[slot].as_mut().expect("live client keeps its slot")
    }
}

impl<B: CampBackend + Send + 'static> Drop for DispatchSession<B> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        if let Some(q) = st.sessions[self.slot].as_mut() {
            q.closed = true;
            // cancel what no stager claimed yet; in-flight batches run
            // to completion (their results are dropped)
            let cancelled = q.submitted.len();
            q.pending -= cancelled;
            q.submitted.clear();
            q.done.clear();
            st.stats.cancelled += cancelled as u64;
            st.maybe_reap(self.slot);
        }
        // cancellation can change every stager's drainable() answer
        self.shared.work_cv.notify_all();
    }
}

// ---- the dispatcher --------------------------------------------------------

/// Shared multi-tenant serving front end over one [`CampBackend`]; see
/// the [module docs](self). Create sessions with
/// [`Dispatcher::session`], reclaim the warm backend with
/// [`Dispatcher::into_backend`].
pub struct Dispatcher<B: CampBackend + Send + 'static> {
    shared: Arc<Shared<B>>,
    options: DispatchOptions,
    stagers: Vec<JoinHandle<()>>,
    driver: Option<JoinHandle<()>>,
}

impl<B: CampBackend + Send + 'static> std::fmt::Debug for Dispatcher<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("options", &self.options)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<B: CampBackend + Send + 'static> Dispatcher<B> {
    /// Start dispatching on `backend` with [`DispatchOptions::from_env`].
    /// Weights must already be registered: submissions are validated
    /// against this moment's registry.
    pub fn new(backend: B) -> Self {
        Dispatcher::with_options(backend, DispatchOptions::from_env())
    }

    /// Start dispatching on `backend` with explicit options.
    pub fn with_options(backend: B, options: DispatchOptions) -> Self {
        assert!(options.stagers >= 1, "a dispatcher needs at least one stager");
        assert!(options.queue_depth >= 1, "a zero admission bound would reject everything");
        let shared: Arc<Shared<B>> = Arc::new(Shared {
            state: Mutex::new(DispState::new(options.stagers)),
            weights: backend.weight_snapshot(),
            engine: Mutex::new(Some(backend)),
            steal: options.steal,
            work_cv: Condvar::new(),
            ready_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });

        let stagers = (0..options.stagers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let (count, steal) = (options.stagers, options.steal);
                crate::sync::thread::Builder::new()
                    .name(format!("camp-dispatch-stager-{worker}"))
                    .spawn(move || stager_loop::<B>(&shared, worker, count, steal))
                    .expect("failed to spawn dispatch stager")
            })
            .collect();

        let driver_shared = Arc::clone(&shared);
        let driver = crate::sync::thread::Builder::new()
            .name("camp-dispatch-driver".into())
            .spawn(move || driver_loop::<B>(&driver_shared))
            .expect("failed to spawn dispatch driver");

        Dispatcher { shared, options, stagers, driver: Some(driver) }
    }

    /// Open a session at the dispatcher's default admission bound
    /// ([`DispatchOptions::queue_depth`]).
    pub fn session(&self) -> DispatchSession<B> {
        self.session_with_depth(self.options.queue_depth)
    }

    /// Open a session with its own admission bound: at `depth` batches
    /// in flight, further submissions return [`RequestError::Saturated`].
    pub fn session_with_depth(&self, depth: usize) -> DispatchSession<B> {
        assert!(depth >= 1, "a zero admission bound would reject everything");
        let mut st = self.shared.lock();
        let slot = match st.sessions.iter().position(Option::is_none) {
            Some(slot) => slot,
            None => {
                st.sessions.push(None);
                st.sessions.len() - 1
            }
        };
        st.sessions[slot] = Some(SessQueue::with_depth(depth));
        DispatchSession {
            shared: Arc::clone(&self.shared),
            slot,
            id: next_session_id(),
            next_seq: 0,
        }
    }

    /// Condemn a weight registration: the handle is rejected at every
    /// later submission, batches already queued against it fail with
    /// [`RequestError::StaleHandle`] instead of reaching the engine,
    /// and the driver evicts the backend registration in series with
    /// batch execution. Returns the registration's metadata, or
    /// [`RequestError::StaleHandle`] on a double eviction — a handle
    /// racing a live session errs, it never panics.
    pub fn evict_weights(&self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        let meta = self.shared.weights.meta(h)?;
        let mut st = self.shared.lock();
        if !st.condemned.insert(h) {
            return Err(RequestError::StaleHandle);
        }
        st.controls.push_back(h);
        st.stats.evictions += 1;
        self.shared.ready_cv.notify_all();
        Ok(meta)
    }

    /// Snapshot of the dispatcher's counters and gauges.
    pub fn stats(&self) -> DispatchStats {
        let st = self.shared.lock();
        DispatchStats {
            submitted: st.stats.submitted,
            executed: st.stats.executed,
            inline: st.stats.inline,
            cancelled: st.stats.cancelled,
            rejected: st.stats.rejected,
            stolen: st.stats.stolen,
            evictions: st.stats.evictions,
            stale_failures: st.stats.stale_failures,
            shed: st.stats.shed,
            staging_live: st.sessions.iter().flatten().map(|q| q.staged_live).sum(),
            ready_now: st.ready.len(),
            engine_busy: st.running,
            sessions_live: st.sessions.iter().flatten().count(),
        }
    }

    /// The options this dispatcher runs with.
    pub fn options(&self) -> DispatchOptions {
        self.options
    }

    /// Drain the pipeline (every batch still queued by a live session
    /// finishes; uncollected results are dropped when their sessions
    /// drop) and return the backend, weights and warm pools intact.
    /// Sessions kept alive across this call panic on their next
    /// submission.
    pub fn into_backend(mut self) -> B {
        self.begin_shutdown();
        for h in self.stagers.drain(..) {
            let _ = h.join();
        }
        let driver = self.driver.take().expect("driver already joined");
        driver.join().expect("dispatcher driver panicked");
        // the driver exits only with the engine slot released, and no
        // client takes it once shutdown began
        let mut slot = self.shared.engine.lock().expect("dispatcher backend panicked");
        slot.take().expect("backend already taken")
    }

    fn begin_shutdown(&self) {
        let mut st = self.shared.lock();
        st.shutdown = true;
        self.shared.work_cv.notify_all();
        self.shared.ready_cv.notify_all();
    }
}

impl<B: CampBackend + Send + 'static> Drop for Dispatcher<B> {
    fn drop(&mut self) {
        self.begin_shutdown();
        for h in self.stagers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.driver.take() {
            let _ = h.join();
        }
        // drop the backend (and its worker pool) here, with the
        // pipeline joined, not on whichever client handle happens to
        // release the shared state last
        drop(self.shared.engine.lock().unwrap_or_else(|e| e.into_inner()).take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Capability, ExecStats, Output};
    use crate::engine::{CampEngine, DType, EngineStats};
    use camp_gemm::gemm_i32_ref;
    use camp_gemm::KernelInfo;
    use std::sync::OnceLock;

    /// Shared permit counter gating the mock driver: executions block
    /// until a permit is granted, so tests pin the pipeline in a known
    /// state and release it deterministically.
    type Gate = std::sync::Arc<(std::sync::Mutex<usize>, std::sync::Condvar)>;

    fn grant(gate: &Gate, n: usize) {
        let mut permits = gate.0.lock().unwrap();
        *permits += n;
        gate.1.notify_all();
    }

    /// Batch identities (m) whose `prepare` parks the calling thread
    /// while a [`Held`] guard for them lives: pins a stager inside
    /// staging, so the only way to the engine left is a waiting
    /// client's caller-runs path. Each test holds its own m values.
    static HELD: OnceLock<(std::sync::Mutex<HashSet<usize>>, std::sync::Condvar)> = OnceLock::new();

    /// Releases its m on drop — also when the test fails, so the
    /// dispatcher's `Drop` can still join the parked stager.
    struct Held(usize);

    fn hold(m: usize) -> Held {
        HELD.get_or_init(Default::default).0.lock().unwrap().insert(m);
        Held(m)
    }

    impl Drop for Held {
        fn drop(&mut self) {
            let (held, cv) = HELD.get_or_init(Default::default);
            held.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.0);
            cv.notify_all();
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload.downcast::<&str>().expect("panic message").to_string(),
        }
    }

    /// The batch identity whose execution panics in [`GateBackend`].
    const POISON_M: usize = 666;

    /// Mock backend whose `execute_prepared` consumes one [`Gate`]
    /// permit per batch and logs the batch's m (the tests' batch
    /// identity) in execution order; `prepare` honours [`hold`], and a
    /// [`POISON_M`] batch panics on the engine.
    struct GateBackend {
        gate: Gate,
        log: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
    }

    impl GateBackend {
        fn new(permits: usize) -> (Self, Gate, std::sync::Arc<std::sync::Mutex<Vec<usize>>>) {
            let gate: Gate =
                std::sync::Arc::new((std::sync::Mutex::new(permits), std::sync::Condvar::new()));
            let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            (GateBackend { gate: std::sync::Arc::clone(&gate), log: log.clone() }, gate, log)
        }
    }

    impl CampBackend for GateBackend {
        type Prepared = GemmRequest;

        fn name(&self) -> &'static str {
            "test-gate"
        }

        fn threads(&self) -> usize {
            1
        }

        fn supports(&self, _cap: Capability) -> bool {
            false
        }

        fn kernel_info(&self) -> KernelInfo {
            unimplemented!("not part of the dispatch protocol")
        }

        fn register_weights(
            &mut self,
            _n: usize,
            _k: usize,
            _b: &[i8],
            _dtype: DType,
        ) -> WeightHandle {
            unimplemented!("gate tests submit dense requests only")
        }

        fn evict_weights(&mut self, _h: WeightHandle) -> Result<WeightMeta, RequestError> {
            unimplemented!("gate tests submit dense requests only")
        }

        fn clear_weights(&mut self) {}

        fn try_weight_meta(&self, _h: WeightHandle) -> Result<WeightMeta, RequestError> {
            unimplemented!("gate tests submit dense requests only")
        }

        fn weight_snapshot(&self) -> WeightSnapshot {
            WeightSnapshot::empty()
        }

        fn execute_batch(&mut self, _reqs: &[GemmRequest]) -> Result<BatchOutcome, RequestError> {
            unimplemented!("dispatchers drive execute_prepared")
        }

        fn prepare(req: GemmRequest, _weights: &WeightSnapshot) -> GemmRequest {
            let (held, cv) = HELD.get_or_init(Default::default);
            let mut held = held.lock().unwrap();
            while held.contains(&req.m()) {
                held = cv.wait(held).unwrap();
            }
            req
        }

        fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome {
            assert!(batch.first().is_none_or(|r| r.m() != POISON_M), "poisoned batch");
            let (permits, cv) = &*self.gate;
            let mut p = permits.lock().unwrap();
            while *p == 0 {
                p = cv.wait(p).unwrap();
            }
            *p -= 1;
            drop(p);
            self.log.lock().unwrap().push(batch.first().map_or(0, |r| r.m()));
            let outputs =
                batch.iter().map(|r| Output::new(vec![0; r.m()], r.m(), 1)).collect::<Vec<_>>();
            BatchOutcome::new(outputs, ExecStats::Host(EngineStats::default()))
        }
    }

    /// An m×1 GeMM over k = 1: `m` is the batch's identity in the
    /// execution log.
    fn req(m: usize) -> GemmRequest {
        GemmRequest::dense(m, 1, 1, vec![1i8; m], vec![1i8]).expect("well-formed request")
    }

    fn opts(stagers: usize, steal: StealPolicy) -> DispatchOptions {
        DispatchOptions { stagers, queue_depth: 8, steal }
    }

    /// Poll the dispatcher until `pred` holds (the pipeline threads are
    /// asynchronous; 5 s cap, far beyond any real staging latency).
    fn wait_for<B: CampBackend + Send + 'static>(
        d: &Dispatcher<B>,
        pred: impl Fn(&DispatchStats) -> bool,
    ) -> DispatchStats {
        for _ in 0..50_000 {
            let s = d.stats();
            if pred(&s) {
                return s;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        panic!("dispatcher never reached the expected state: {:?}", d.stats());
    }

    #[test]
    fn saturation_fires_deterministically_at_the_bound_and_recovers() {
        let (backend, gate, _log) = GateBackend::new(0);
        let dispatcher = Dispatcher::with_options(backend, opts(1, StealPolicy::Eager));
        let mut session = dispatcher.session_with_depth(3);

        // the bound counts batches in flight, not queue occupancy: with
        // the driver gated shut, exactly `depth` submissions are
        // admitted no matter how the stager interleaves
        let tickets: Vec<TicketId> =
            (0..3).map(|i| session.submit(vec![req(i + 1)]).expect("below the bound")).collect();
        let err = session.submit(vec![req(99)]).unwrap_err();
        assert_eq!(err, RequestError::Saturated { depth: 3 });
        assert!(err.to_string().contains("bounded depth 3"), "{err}");
        // nothing was enqueued: still exactly 3 in flight
        assert_eq!(session.in_flight(), 3);
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.rejected), (3, 1));

        // drain: the session recovers without leaking staging permits
        grant(&gate, 3);
        for t in tickets {
            assert_eq!(session.wait(t).expect("gated batches complete").outputs.len(), 1);
        }
        let stats = wait_for(&dispatcher, |s| s.staging_live == 0);
        assert_eq!(stats.executed, 3);
        grant(&gate, 1);
        let t = session.submit(vec![req(4)]).expect("drained sessions admit again");
        assert_eq!(session.wait(t).expect("admitted batch completes").outputs[0].m, 4);
    }

    #[test]
    fn decode_overtakes_queued_prefill() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::with_options(backend, opts(1, StealPolicy::Eager));
        let mut prefill = dispatcher.session();
        let mut decode = dispatcher.session();

        let p1 = prefill.submit(vec![req(1)]).unwrap();
        let p2 = prefill.submit(vec![req(2)]).unwrap();
        let d = decode.submit_with(vec![req(3)], Priority::Decode, None).unwrap();
        // pin the pipeline: batch 1 on the (gated) engine, batches 2
        // and 3 staged and ready
        wait_for(&dispatcher, |s| s.staging_live == 3 && s.ready_now == 2 && s.engine_busy);

        grant(&gate, 3);
        assert_eq!(decode.wait(d).unwrap().outputs[0].m, 3);
        assert_eq!(prefill.wait(p1).unwrap().outputs[0].m, 1);
        assert_eq!(prefill.wait(p2).unwrap().outputs[0].m, 2);
        // the decode batch overtook the still-queued prefill batch;
        // which prefill batch reached the engine before the decode one
        // was staged is a benign race, so only the relative order is
        // asserted
        let log = log.lock().unwrap();
        let pos = |m| log.iter().position(|&x| x == m).unwrap();
        assert!(pos(3) < pos(2), "decode must beat the queued prefill batch: {log:?}");
        assert!(pos(1) < pos(2), "per-session FIFO must hold: {log:?}");
    }

    #[test]
    fn deadlines_order_equal_priority_work() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::with_options(backend, opts(1, StealPolicy::Eager));
        let mut a = dispatcher.session();
        let mut b = dispatcher.session();

        // the deadline orders, it must not expire: a loaded machine can
        // take milliseconds to reach the pick, and a missed deadline is
        // shed (see the next test)
        let deadline = Instant::now() + std::time::Duration::from_secs(3600);
        let gate_batch = a.submit(vec![req(9)]).unwrap(); // occupies the engine
        let relaxed = a.submit_with(vec![req(1)], Priority::Prefill, None).unwrap();
        let urgent = b.submit_with(vec![req(2)], Priority::Prefill, Some(deadline)).unwrap();
        wait_for(&dispatcher, |s| s.staging_live == 3 && s.ready_now == 2 && s.engine_busy);

        grant(&gate, 3);
        assert!(a.wait(gate_batch).is_ok());
        assert!(a.wait(relaxed).is_ok());
        assert!(b.wait(urgent).is_ok());
        // the deadline batch beat the earlier-admitted no-deadline one
        let log = log.lock().unwrap();
        let pos = |m| log.iter().position(|&x| x == m).unwrap();
        assert!(pos(2) < pos(1), "earliest deadline must run first at equal priority: {log:?}");
    }

    #[test]
    fn missed_deadlines_are_shed_not_computed() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::with_options(backend, opts(1, StealPolicy::Eager));
        let mut session = dispatcher.session();

        // occupy the (gated) engine so the doomed batch waits in ready;
        // Decode priority guarantees the blocker wins the first pick no
        // matter how staging interleaves
        let blocker = session.submit_with(vec![req(9)], Priority::Decode, None).unwrap();
        let doomed =
            session.submit_with(vec![req(1)], Priority::Prefill, Some(Instant::now())).unwrap();
        let live = session
            .submit_with(
                vec![req(2)],
                Priority::Prefill,
                Some(Instant::now() + std::time::Duration::from_secs(3600)),
            )
            .unwrap();
        // pin: blocker on the engine, doomed staged behind it (the
        // third batch waits out the MAX_STAGED window in the queue)
        wait_for(&dispatcher, |s| s.staging_live == 2 && s.ready_now == 1);
        // let the already-expired deadline pass unambiguously
        std::thread::sleep(std::time::Duration::from_millis(5));

        // 3 permits offered, but the shed batch must not consume one
        grant(&gate, 3);
        assert_eq!(session.wait(doomed).unwrap_err(), RequestError::Shed);
        assert_eq!(session.wait(blocker).unwrap().outputs[0].m, 9);
        assert_eq!(session.wait(live).unwrap().outputs[0].m, 2);
        let stats = wait_for(&dispatcher, |s| s.staging_live == 0);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.executed, 2, "only the batches that can make their deadlines run");
        let log = log.lock().unwrap();
        assert_eq!(&*log, &[9, 2], "the shed batch must never reach the engine: {log:?}");
        assert!(RequestError::Shed.to_string().contains("shed"));
    }

    #[test]
    fn pinned_stagers_never_steal() {
        let (backend, gate, _log) = GateBackend::new(0);
        grant(&gate, 12);
        let dispatcher = Dispatcher::with_options(backend, opts(2, StealPolicy::Pinned));
        let mut s0 = dispatcher.session();
        let mut s1 = dispatcher.session();
        let t0: Vec<TicketId> = (0..6).map(|i| s0.submit(vec![req(i + 1)]).unwrap()).collect();
        let t1: Vec<TicketId> = (0..6).map(|i| s1.submit(vec![req(i + 10)]).unwrap()).collect();
        for t in t0 {
            assert!(s0.wait(t).is_ok());
        }
        for t in t1 {
            assert!(s1.wait(t).is_ok());
        }
        let stats = dispatcher.stats();
        assert_eq!(stats.stolen, 0, "pinned stagers must never claim outside their partition");
        assert_eq!(stats.executed, 12);
    }

    /// Rendezvous in `prepare`: both stagers must be staging
    /// *simultaneously* before either proceeds, which forces each of
    /// the two claims onto a different stager.
    struct BarrierBackend;

    static STEAL_BARRIER: OnceLock<std::sync::Barrier> = OnceLock::new();

    impl CampBackend for BarrierBackend {
        type Prepared = GemmRequest;

        fn name(&self) -> &'static str {
            "test-barrier"
        }

        fn threads(&self) -> usize {
            1
        }

        fn supports(&self, _cap: Capability) -> bool {
            false
        }

        fn kernel_info(&self) -> KernelInfo {
            unimplemented!("not part of the dispatch protocol")
        }

        fn register_weights(
            &mut self,
            _n: usize,
            _k: usize,
            _b: &[i8],
            _dtype: DType,
        ) -> WeightHandle {
            unimplemented!("barrier tests submit dense requests only")
        }

        fn evict_weights(&mut self, _h: WeightHandle) -> Result<WeightMeta, RequestError> {
            unimplemented!("barrier tests submit dense requests only")
        }

        fn clear_weights(&mut self) {}

        fn try_weight_meta(&self, _h: WeightHandle) -> Result<WeightMeta, RequestError> {
            unimplemented!("barrier tests submit dense requests only")
        }

        fn weight_snapshot(&self) -> WeightSnapshot {
            WeightSnapshot::empty()
        }

        fn execute_batch(&mut self, _reqs: &[GemmRequest]) -> Result<BatchOutcome, RequestError> {
            unimplemented!("dispatchers drive execute_prepared")
        }

        fn prepare(req: GemmRequest, _weights: &WeightSnapshot) -> GemmRequest {
            STEAL_BARRIER.get_or_init(|| std::sync::Barrier::new(2)).wait();
            req
        }

        fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome {
            let outputs =
                batch.iter().map(|r| Output::new(vec![0; r.m()], r.m(), 1)).collect::<Vec<_>>();
            BatchOutcome::new(outputs, ExecStats::Host(EngineStats::default()))
        }
    }

    #[test]
    fn eager_stagers_steal_across_sessions() {
        // one session, two eager stagers, two batches: the prepare
        // barrier forces one claim onto each stager, and only worker 0
        // is home for slot 0 — exactly one claim is a steal
        let dispatcher = Dispatcher::with_options(BarrierBackend, opts(2, StealPolicy::Eager));
        let mut session = dispatcher.session();
        let t1 = session.submit(vec![req(1)]).unwrap();
        let t2 = session.submit(vec![req(2)]).unwrap();
        assert!(session.wait(t1).is_ok());
        assert!(session.wait(t2).is_ok());
        assert_eq!(dispatcher.stats().stolen, 1, "exactly one of the two claims crossed homes");
        drop(session);
        let _ = dispatcher.into_backend();
    }

    #[test]
    fn aging_bounds_prefill_starvation_under_a_decode_flood() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::with_options(backend, opts(2, StealPolicy::Eager));
        let mut d1 = dispatcher.session();
        let mut d2 = dispatcher.session();
        let mut p = dispatcher.session();

        let mut decode_tickets = Vec::new();
        for i in 0..6 {
            decode_tickets
                .push((0, d1.submit_with(vec![req(100 + i)], Priority::Decode, None).unwrap()));
            decode_tickets
                .push((1, d2.submit_with(vec![req(200 + i)], Priority::Decode, None).unwrap()));
        }
        // pin: one decode on the gated engine, both decode sessions at
        // their staging window — the first executed batch is decode
        wait_for(&dispatcher, |s| s.staging_live == 4 && s.ready_now == 3 && s.engine_busy);
        let pt = p.submit(vec![req(7)]).unwrap();
        // the prefill batch is staged before the flood is released:
        // aging picks among ready batches
        wait_for(&dispatcher, |s| s.ready_now == 4);

        grant(&gate, 13);
        for (who, t) in decode_tickets {
            let outcome = if who == 0 { d1.wait(t) } else { d2.wait(t) };
            assert!(outcome.is_ok());
        }
        assert!(p.wait(pt).is_ok());

        let log = log.lock().unwrap();
        let pos = log.iter().position(|&m| m == 7).expect("prefill batch executed");
        assert!(pos >= 1, "the engine already held a decode batch: {log:?}");
        assert!(
            pos <= DECODE_BURST as usize,
            "aging must run prefill after at most {DECODE_BURST} consecutive decodes: {log:?}"
        );
    }

    #[test]
    fn eviction_racing_a_live_session_errs_and_never_panics() {
        let (n, k) = (4, 16);
        let w1: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
        let w2: Vec<i8> = (0..k * n).map(|i| (i % 13) as i8 - 6).collect();
        let a: Vec<i8> = (0..2 * k).map(|i| (i % 11) as i8 - 5).collect();
        let mut engine = CampEngine::with_threads(1);
        let h1 = engine.register_weights(n, k, &w1, DType::I8);
        let h2 = engine.register_weights(n, k, &w2, DType::I8);

        let dispatcher = Dispatcher::with_options(engine, opts(1, StealPolicy::Eager));
        let mut session = dispatcher.session();
        let racing: Vec<TicketId> = (0..4)
            .map(|_| {
                session
                    .submit(vec![GemmRequest::with_weights(2, a.clone(), h1).unwrap()])
                    .expect("live handle admits")
            })
            .collect();

        let meta = dispatcher.evict_weights(h1).expect("first eviction succeeds");
        assert_eq!((meta.n, meta.k), (n, k));
        assert_eq!(dispatcher.evict_weights(h1).unwrap_err(), RequestError::StaleHandle);

        // post-condemnation submissions reject immediately ...
        let err =
            session.submit(vec![GemmRequest::with_weights(2, a.clone(), h1).unwrap()]).unwrap_err();
        assert_eq!(err, RequestError::StaleHandle);

        // ... and every batch racing the eviction either completed
        // before it or failed cleanly as stale — never a panic
        let mut completed = 0;
        for t in racing {
            match session.wait(t) {
                Ok(outcome) => {
                    completed += 1;
                    assert_eq!(outcome.outputs[0].c, gemm_i32_ref(2, n, k, &a, &w1));
                }
                Err(e) => assert_eq!(e, RequestError::StaleHandle),
            }
        }

        // the surviving registration still serves
        let t = session
            .submit(vec![GemmRequest::with_weights(2, a.clone(), h2).unwrap()])
            .expect("uncondemned handle admits");
        assert_eq!(session.wait(t).unwrap().outputs[0].c, gemm_i32_ref(2, n, k, &a, &w2));

        let stats = dispatcher.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.stale_failures, 4 - completed);
        drop(session);
        let mut engine = dispatcher.into_backend();
        // the driver really evicted the backend registration
        assert_eq!(engine.evict_weights(h1).unwrap_err(), RequestError::StaleHandle);
        assert!(engine.evict_weights(h2).is_ok());
    }

    #[test]
    fn dropped_sessions_cancel_unclaimed_work_and_release_their_slot() {
        let (backend, gate, _log) = GateBackend::new(0);
        let dispatcher = Dispatcher::with_options(backend, opts(1, StealPolicy::Eager));
        let mut session = dispatcher.session_with_depth(64);
        for i in 0..5 {
            session.submit(vec![req(i + 1)]).unwrap();
        }
        // the staging window claims exactly 2; 3 stay queued
        wait_for(&dispatcher, |s| s.staging_live == 2);
        drop(session);
        let stats = wait_for(&dispatcher, |s| s.cancelled == 3);
        assert_eq!(stats.sessions_live, 1, "in-flight work pins the slot");

        // in-flight batches run to completion; the slot is reaped after
        grant(&gate, 2);
        let stats = wait_for(&dispatcher, |s| s.sessions_live == 0);
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.staging_live, 0, "no staging permits leak past a reap");

        // the freed slot is reused by the next session
        let mut again = dispatcher.session();
        grant(&gate, 1);
        let t = again.submit(vec![req(9)]).unwrap();
        assert_eq!(again.wait(t).unwrap().outputs[0].m, 9);
    }

    #[test]
    fn cross_session_tickets_fail_fast() {
        let (backend, gate, _log) = GateBackend::new(4);
        grant(&gate, 0);
        let dispatcher = Dispatcher::with_options(backend, opts(1, StealPolicy::Eager));
        let mut a = dispatcher.session();
        let mut b = dispatcher.session();
        let ta = a.submit(vec![req(1)]).unwrap();
        let _tb = b.submit(vec![req(2)]).unwrap();
        assert!(a.wait(ta).is_ok());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.poll(ta)));
        let msg = *caught.unwrap_err().downcast::<String>().expect("panic message");
        assert!(msg.contains("different session"), "{msg}");
    }

    #[test]
    fn into_backend_drains_every_live_session() {
        let (backend, gate, log) = GateBackend::new(0);
        grant(&gate, 6);
        let dispatcher = Dispatcher::with_options(backend, opts(2, StealPolicy::Eager));
        let mut a = dispatcher.session();
        let mut b = dispatcher.session();
        for i in 0..3 {
            a.submit(vec![req(i + 1)]).unwrap();
            b.submit(vec![req(i + 10)]).unwrap();
        }
        // drain without collecting: every submitted batch must execute
        let _backend = dispatcher.into_backend();
        assert_eq!(log.lock().unwrap().len(), 6);
        drop(a);
        drop(b);
    }

    #[test]
    fn claim_inline_takes_only_the_batch_the_pipeline_would_run_next() {
        fn pending(seq: u64, priority: Priority, admit: u64) -> Pending {
            Pending {
                seq,
                batch: vec![req(1)],
                priority,
                deadline: None,
                handles: Vec::new(),
                admit,
            }
        }
        // slot 0 waits on its only batch (seq 0, admitted 5); slot 1 is
        // another tenant with nothing queued
        fn state(priority: Priority) -> DispState<GemmRequest> {
            let mut st = DispState::new(1);
            let mut q = SessQueue::with_depth(8);
            q.submitted.push_back(pending(0, priority, 5));
            q.pending = 1;
            st.sessions.push(Some(q));
            st.sessions.push(Some(SessQueue::with_depth(8)));
            st
        }
        fn queue(st: &mut DispState<GemmRequest>, slot: usize) -> &mut SessQueue {
            st.sessions[slot].as_mut().unwrap()
        }
        let h = CampEngine::new().register_weights(1, 1, &[1], DType::I8);

        let mut st = state(Priority::Prefill);
        let claimed = st.claim_inline(0, 0).expect("an idle pipeline hands the batch over");
        assert_eq!(claimed.seq, 0);
        assert!(st.running, "the claim takes the engine slot");
        assert_eq!(queue(&mut st, 0).staged_live, 1, "and a staging-window permit");
        assert!(state(Prefill).claim_inline(0, 1).is_none(), "only the awaited batch");

        use Priority::{Decode, Prefill};
        type Perturb = fn(&mut DispState<GemmRequest>, WeightHandle);
        let blocked: [(&str, Priority, Perturb); 13] = [
            ("the engine is busy", Prefill, |st, _| st.running = true),
            ("shutdown began", Prefill, |st, _| st.shutdown = true),
            ("a batch is ready", Prefill, |st, _| {
                let (staged, handles) = (Vec::new(), Vec::new());
                let (slot, seq, priority, deadline, admit) = (1, 0, Prefill, None, 9);
                st.ready.push(ReadyBatch { slot, seq, staged, priority, deadline, handles, admit })
            }),
            ("a decode batch is ready", Prefill, |st, _| {
                let (staged, handles) = (Vec::new(), Vec::new());
                let (slot, seq, priority, deadline, admit) = (1, 0, Decode, None, 9);
                st.ready.push(ReadyBatch { slot, seq, staged, priority, deadline, handles, admit })
            }),
            ("an eviction is pending", Prefill, |st, h| st.controls.push_back(h)),
            ("a second batch is queued", Prefill, |st, _| {
                queue(st, 0).submitted.push_back(pending(1, Prefill, 6))
            }),
            ("an earlier batch is in flight", Prefill, |st, _| queue(st, 0).staged_live = 1),
            ("another front was admitted first", Prefill, |st, _| {
                queue(st, 1).submitted.push_back(pending(0, Prefill, 4))
            }),
            ("a decode batch is queued", Prefill, |st, _| {
                queue(st, 1).submitted.push_back(pending(0, Decode, 7))
            }),
            ("a decode batch is being staged", Prefill, |st, _| st.staging[Decode as usize] = 1),
            ("aging owes a staged prefill", Decode, |st, _| {
                st.decode_run = DECODE_BURST;
                st.staging[Prefill as usize] = 1;
            }),
            ("the deadline passed", Prefill, |st, _| {
                queue(st, 0).submitted[0].deadline = Some(Instant::now());
                std::thread::sleep(std::time::Duration::from_millis(1));
            }),
            ("a handle is condemned", Prefill, |st, h| {
                queue(st, 0).submitted[0].handles.push(h);
                st.condemned.insert(h);
            }),
        ];
        for (why, priority, perturb) in blocked {
            let mut st = state(priority);
            perturb(&mut st, h);
            assert!(st.claim_inline(0, 0).is_none(), "claimed although {why}");
            assert_eq!(queue(&mut st, 0).submitted[0].seq, 0, "{why}: the batch stays queued");
        }

        // aging owes a queued prefill batch its turn too ...
        let mut st = state(Decode);
        st.decode_run = DECODE_BURST;
        queue(&mut st, 1).submitted.push_back(pending(0, Prefill, 9));
        assert!(st.claim_inline(0, 0).is_none());
        // ... but below the bound decode outranks prefill anywhere, and
        // the claim advances the aging count like a driver pick
        let mut st = state(Decode);
        st.decode_run = 3;
        st.staging[Prefill as usize] = 1;
        queue(&mut st, 1).submitted.push_back(pending(0, Prefill, 4));
        assert!(st.claim_inline(0, 0).is_some());
        assert_eq!(st.decode_run, 4);
    }

    #[test]
    fn an_idle_engine_runs_a_waiting_clients_batch_on_its_thread() {
        let (backend, _gate, log) = GateBackend::new(8);
        let dispatcher = Dispatcher::with_options(backend, opts(1, StealPolicy::Eager));
        let mut helper = dispatcher.session();
        let mut client = dispatcher.session();
        // pin the only stager inside a prepare: nothing reaches the
        // engine through the pipeline
        let stager = hold(1001);
        let held = helper.submit(vec![req(1001)]).unwrap();
        wait_for(&dispatcher, |s| s.staging_live == 1);

        let t = client.submit(vec![req(5)]).unwrap();
        assert_eq!(client.wait(t).unwrap().outputs[0].m, 5);
        let stats = dispatcher.stats();
        assert_eq!((stats.inline, stats.executed, stats.staging_live), (1, 1, 1));

        drop(stager);
        assert_eq!(helper.wait(held).unwrap().outputs[0].m, 1001);
        let stats = dispatcher.stats();
        assert_eq!((stats.inline, stats.executed), (1, 2), "the staged batch used the driver");
        assert_eq!(*log.lock().unwrap(), [5, 1001]);
    }

    #[test]
    fn a_waiting_prefill_client_never_runs_ahead_of_queued_decode() {
        let (backend, _gate, log) = GateBackend::new(8);
        let dispatcher = Dispatcher::with_options(backend, opts(1, StealPolicy::Eager));
        let mut helper = dispatcher.session();
        let mut decode = dispatcher.session();
        let mut prefill = dispatcher.session();
        let stager = hold(1002);
        let held = helper.submit(vec![req(1002)]).unwrap();
        wait_for(&dispatcher, |s| s.staging_live == 1);

        let td = decode.submit_with(vec![req(6)], Priority::Decode, None).unwrap();
        let tp = prefill.submit(vec![req(7)]).unwrap();
        let waiter = std::thread::spawn(move || prefill.wait(tp).map(|o| o.outputs[0].m));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(dispatcher.stats().inline, 0, "prefill ran ahead of a queued decode batch");

        // the decode client runs its own batch, which frees the prefill
        // waiter to run its batch in turn
        assert_eq!(decode.wait(td).unwrap().outputs[0].m, 6);
        assert_eq!(waiter.join().unwrap(), Ok(7));
        assert_eq!(dispatcher.stats().inline, 2);
        assert_eq!(*log.lock().unwrap(), [6, 7]);
        drop(stager);
        assert!(helper.wait(held).is_ok());
    }

    #[test]
    fn an_inline_panic_kills_the_dispatcher_for_every_tenant() {
        let (backend, _gate, log) = GateBackend::new(8);
        let dispatcher = Dispatcher::with_options(backend, opts(1, StealPolicy::Eager));
        let mut helper = dispatcher.session();
        let mut poisoned = dispatcher.session();
        let mut victim = dispatcher.session();
        let stager = hold(1003);
        let _held = helper.submit(vec![req(1003)]).unwrap();
        wait_for(&dispatcher, |s| s.staging_live == 1);

        let tp = poisoned.submit(vec![req(POISON_M)]).unwrap();
        let tv = victim.submit(vec![req(8)]).unwrap();
        let died = std::thread::spawn(move || poisoned.wait(tp)).join().unwrap_err();
        assert_eq!(panic_message(died), "serving session is dead: client thread panicked");

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| victim.wait(tv)));
        let msg = panic_message(caught.unwrap_err());
        assert!(msg.contains("serving session is dead"), "{msg}");
        let stats = dispatcher.stats();
        assert_eq!((stats.inline, stats.executed), (0, 0));
        assert!(log.lock().unwrap().is_empty(), "nothing ran after the death");

        // the stager leaves its prepare and exits; Drop joins everything
        drop(stager);
        drop((helper, victim));
        drop(dispatcher);
    }

    #[test]
    fn env_options_apply_and_validate() {
        // avoid cross-test env races: set, read, restore immediately
        std::env::set_var("CAMP_DISPATCH_STAGERS", "3");
        std::env::set_var("CAMP_QUEUE_DEPTH", "0");
        std::env::set_var("CAMP_STEAL_POLICY", "PINNED");
        let opts = DispatchOptions::from_env();
        std::env::remove_var("CAMP_DISPATCH_STAGERS");
        std::env::remove_var("CAMP_QUEUE_DEPTH");
        std::env::remove_var("CAMP_STEAL_POLICY");
        assert_eq!(opts.stagers, 3);
        assert_eq!(opts.queue_depth, 1, "zero depth clamps to 1");
        assert_eq!(opts.steal, StealPolicy::Pinned);
        assert_eq!(DispatchOptions::default(), DispatchOptions::from_env());
    }
}
