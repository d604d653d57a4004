//! The serving phase: seeded prompts driven through `camp-infer`, the
//! `Dispatcher` and `CampEngine`, closed loop, one thread per client.
//!
//! The untraced phase uses plain `InferSession`s. The traced phase
//! drives `InferContext::prefill_with` / `decode_with` through
//! [`TracedExec`] over a [`TracedEngine`] dispatcher — the same public
//! calls `InferSession` makes, with spans around each.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use camp_core::backend::{host_threads_from_env, CampBackend};
use camp_core::dispatch::{DispatchOptions, DispatchSession, DispatchStats, Dispatcher, Priority};
use camp_core::CampEngine;
use camp_gemm::reference::SplitMix64;
use camp_infer::{InferContext, InferError, InferSession, Model, ModelHandles, RefExec};
use camp_models::TransformerConfig;

use crate::record;
use crate::stats::{percentile, ratio};
use crate::trace::{self, now_ns, ClientTrace, Span, TracedEngine, TracedExec};

/// Model weights are fixed; only the prompts come from the seed.
const MODEL_SEED: u64 = 0x11FE_2ACE;

/// Distinct prompts per client. Sessions cycle through them: nothing in
/// the stack caches prompts or results, so a repeat costs the same work
/// as a fresh prompt, and the reference replay stays bounded.
const PROMPT_POOL: usize = 8;

/// Model S: the `llm_serve` full configuration.
const MODEL_S: (TransformerConfig, usize) =
    (TransformerConfig { hidden: 128, ff_dim: 256, heads: 4, layers: 3, seq_len: 64 }, 64);

/// Model L: wide enough that prefill GeMMs take the blocked kernels.
const MODEL_L: (TransformerConfig, usize) =
    (TransformerConfig { hidden: 256, ff_dim: 1024, heads: 4, layers: 4, seq_len: 128 }, 256);

/// One client's closed loop: open a session, prefill a `prompt_len`
/// prompt, serve `steps` decode tokens, repeat.
#[derive(Debug, Clone, Copy)]
pub struct Script {
    pub prompt_len: usize,
    pub steps: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Model S, two tenants of short prompts and long decodes: every
    /// GeMM is m = 1 against registered weights, so the dispatcher
    /// round trip dominates.
    Decode,
    /// Model L, one client of long prompts and a single decode token:
    /// blocked kernels and host requantization dominate.
    Prefill,
    /// Model L, a decoding client beside a client prefilling back to
    /// back: decode waits behind prefill batches.
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Decode, Workload::Prefill, Workload::Mixed];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Decode => "decode",
            Workload::Prefill => "prefill",
            Workload::Mixed => "mixed",
        }
    }

    fn model(self) -> (TransformerConfig, usize) {
        match self {
            Workload::Decode => MODEL_S,
            Workload::Prefill | Workload::Mixed => MODEL_L,
        }
    }

    pub fn scripts(self) -> Vec<Script> {
        match self {
            Workload::Decode => vec![Script { prompt_len: 4, steps: 56 }; 2],
            Workload::Prefill => vec![Script { prompt_len: 120, steps: 1 }],
            Workload::Mixed => {
                vec![Script { prompt_len: 4, steps: 120 }, Script { prompt_len: 120, steps: 0 }]
            }
        }
    }

    /// Each client's prompt pool, drawn from `seed`.
    pub fn prompts(self, seed: u64) -> Vec<Vec<Vec<u32>>> {
        let vocab = self.model().1 as u64;
        self.scripts()
            .iter()
            .enumerate()
            .map(|(c, s)| {
                let mut rng =
                    SplitMix64::new(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                (0..PROMPT_POOL)
                    .map(|_| (0..s.prompt_len).map(|_| (rng.next_u64() % vocab) as u32).collect())
                    .collect()
            })
            .collect()
    }

    pub fn describe(self) -> String {
        let (cfg, vocab) = self.model();
        let clients: Vec<String> = self
            .scripts()
            .iter()
            .map(|s| format!("{}-token prompt + {} decode", s.prompt_len, s.steps))
            .collect();
        format!(
            "d{}/ff{}/{} heads/{} layers/seq {}/vocab {}; clients: {}",
            cfg.hidden,
            cfg.ff_dim,
            cfg.heads,
            cfg.layers,
            cfg.seq_len,
            vocab,
            clients.join(", ")
        )
    }
}

/// A model registered on a backend, served by a dispatcher.
pub struct Served<B: CampBackend + Send + 'static> {
    pub model: Arc<Model>,
    pub handles: Arc<ModelHandles>,
    pub dispatcher: Dispatcher<B>,
}

/// Build the workload's model.
pub fn build_model(w: Workload) -> Arc<Model> {
    let (cfg, vocab) = w.model();
    Arc::new(Model::new(cfg, vocab, MODEL_SEED))
}

/// Register `model` on `backend` and spawn its dispatcher with the
/// serving defaults.
pub fn serve<B: CampBackend + Send + 'static>(model: Arc<Model>, mut backend: B) -> Served<B> {
    let handles = Arc::new(model.register(&mut backend));
    let dispatcher = Dispatcher::with_options(backend, DispatchOptions::default());
    Served { model, handles, dispatcher }
}

/// The engine the way serving builds it.
pub fn engine() -> CampEngine {
    CampEngine::with_threads(host_threads_from_env())
}

/// One session's served tokens: the prefill's first token, then one
/// per decode step.
#[derive(Debug)]
struct SessionLog {
    prompt: usize,
    tokens: Vec<u32>,
}

/// Everything one client did in one phase.
#[derive(Debug, Default)]
pub struct ClientLog {
    sessions: Vec<SessionLog>,
    /// Prompt submit to first token: (completion ns, seconds).
    pub ttft: Vec<(u64, f64)>,
    /// Gap between consecutive tokens of a session: (completion ns,
    /// seconds).
    pub itl: Vec<(u64, f64)>,
    pub prompt_tokens: u64,
    pub decode_tokens: u64,
    pub calls: u64,
    pub errors: u64,
}

/// What a client does; implemented over plain and traced sessions.
trait Client {
    fn open(&mut self);
    /// Forget what the warm-up session recorded.
    fn end_warmup(&mut self) {}
    fn prefill(&mut self, prompt: &[u32]) -> Result<u32, InferError>;
    fn decode(&mut self) -> Result<u32, InferError>;
}

enum Limit {
    Sessions(usize),
    Until(Instant),
}

impl Limit {
    fn expired(&self) -> bool {
        matches!(self, Limit::Until(t) if Instant::now() >= *t)
    }

    fn done(&self, sessions: usize) -> bool {
        match self {
            Limit::Sessions(n) => sessions >= *n,
            Limit::Until(_) => self.expired(),
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The closed loop: the next call goes out only when the last one
/// returned. A session cut by the deadline keeps its served prefix.
fn drive(c: &mut impl Client, script: Script, prompts: &[Vec<u32>], limit: Limit) -> ClientLog {
    let mut log = ClientLog::default();
    while !limit.done(log.sessions.len()) {
        let prompt = log.sessions.len() % prompts.len();
        c.open();
        let mut s = SessionLog { prompt, tokens: Vec::with_capacity(script.steps + 1) };
        log.calls += 1;
        let sent = now_ns();
        match c.prefill(&prompts[prompt]) {
            Ok(tok) => {
                let mut last = now_ns();
                log.ttft.push((last, secs(last - sent)));
                log.prompt_tokens += script.prompt_len as u64;
                s.tokens.push(tok);
                for _ in 0..script.steps {
                    if limit.expired() {
                        break;
                    }
                    log.calls += 1;
                    match c.decode() {
                        Ok(tok) => {
                            let now = now_ns();
                            log.itl.push((now, secs(now - last)));
                            last = now;
                            log.decode_tokens += 1;
                            s.tokens.push(tok);
                        }
                        Err(e) => {
                            eprintln!("decode failed: {e}");
                            log.errors += 1;
                            break;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("prefill failed: {e}");
                log.errors += 1;
            }
        }
        log.sessions.push(s);
    }
    log
}

struct Plain<'a> {
    served: &'a Served<CampEngine>,
    session: Option<InferSession<CampEngine>>,
}

impl Client for Plain<'_> {
    fn open(&mut self) {
        let s = self.served;
        self.session =
            Some(InferSession::new(&s.dispatcher, Arc::clone(&s.model), Arc::clone(&s.handles)));
    }

    fn prefill(&mut self, prompt: &[u32]) -> Result<u32, InferError> {
        let s = self.session.as_mut().expect("session opened before prefill");
        s.prefill(prompt).map(|t| t.first)
    }

    fn decode(&mut self) -> Result<u32, InferError> {
        self.session.as_mut().expect("session opened before decode").decode_step()
    }
}

struct Traced<'a> {
    served: &'a Served<TracedEngine>,
    session: Option<(InferContext, DispatchSession<TracedEngine>)>,
    trace: ClientTrace,
}

impl Traced<'_> {
    fn call(
        &mut self,
        name: &'static str,
        priority: Priority,
        prompt: Option<&[u32]>,
    ) -> Result<u32, InferError> {
        let Traced { served, session, trace } = self;
        let (ctx, session) = session.as_mut().expect("session opened before a call");
        let id = trace.open();
        let start = now_ns();
        let mut exec =
            TracedExec { session, handles: &served.handles, priority, trace, parent: id };
        let out = match prompt {
            Some(p) => ctx.prefill_with(&served.model, &mut exec, p).map(|t| t.first),
            None => ctx.decode_with(&served.model, &mut exec),
        };
        let end = now_ns();
        trace.spans.push(Span { id, name, start, end, parent: None, req: Some(id), work: None });
        out
    }
}

impl Client for Traced<'_> {
    fn open(&mut self) {
        let s = self.served;
        self.session = Some((InferContext::for_model(&s.model), s.dispatcher.session()));
    }

    fn end_warmup(&mut self) {
        self.trace.spans.clear();
    }

    fn prefill(&mut self, prompt: &[u32]) -> Result<u32, InferError> {
        self.call("infer.prefill", Priority::Prefill, Some(prompt))
    }

    fn decode(&mut self) -> Result<u32, InferError> {
        self.call("infer.decode", Priority::Decode, None)
    }
}

/// One serving phase's outcome.
pub struct Phase {
    /// Per client: the untimed warm-up session, then the timed loop.
    pub warmup: Vec<ClientLog>,
    pub timed: Vec<ClientLog>,
    pub wall_s: f64,
    /// CPU seconds the whole process used over the timed loop.
    pub cpu_s: f64,
    pub spans: Vec<Span>,
    pub stats: DispatchStats,
}

/// Run every client for `seconds` after one untimed warm-up session
/// each. `client(i)` builds client `i` on its own thread.
fn run_phase<C: Client + Send>(
    w: Workload,
    prompts: &[Vec<Vec<u32>>],
    seconds: f64,
    client: impl Fn(usize) -> C + Sync,
    finish: impl FnOnce(&mut [C]) -> (Vec<Span>, DispatchStats),
) -> Phase {
    let scripts = w.scripts();
    let n = scripts.len();
    // clients warm up, then wait twice: the first wait lets the main
    // thread discard warm-up spans, the second starts the clock
    let barrier = Barrier::new(n + 1);
    let (results, wall_s, cpu_s) = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (barrier, client, script) = (&barrier, &client, scripts[i]);
                let pool = &prompts[i];
                sc.spawn(move || {
                    let mut c = client(i);
                    let warm = drive(&mut c, script, pool, Limit::Sessions(1));
                    c.end_warmup();
                    barrier.wait();
                    barrier.wait();
                    let until = Instant::now() + Duration::from_secs_f64(seconds);
                    let timed = drive(&mut c, script, pool, Limit::Until(until));
                    (c, warm, timed)
                })
            })
            .collect();
        barrier.wait();
        trace::drain_shared();
        let (t0, cpu0) = (Instant::now(), record::process_cpu_s());
        barrier.wait();
        let results: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (results, t0.elapsed().as_secs_f64(), record::process_cpu_s() - cpu0)
    });
    let mut clients = Vec::with_capacity(n);
    let (mut warmup, mut timed) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for (c, w, t) in results {
        clients.push(c);
        warmup.push(w);
        timed.push(t);
    }
    let (spans, stats) = finish(&mut clients);
    Phase { warmup, timed, wall_s, cpu_s, spans, stats }
}

/// The untraced phase: plain `InferSession`s.
pub fn run_plain(
    w: Workload,
    served: &Served<CampEngine>,
    prompts: &[Vec<Vec<u32>>],
    seconds: f64,
) -> Phase {
    run_phase(
        w,
        prompts,
        seconds,
        |_| Plain { served, session: None },
        |_| (Vec::new(), served.dispatcher.stats()),
    )
}

/// The traced phase: spans at every layer boundary.
pub fn run_traced(
    w: Workload,
    served: &Served<TracedEngine>,
    prompts: &[Vec<Vec<u32>>],
    seconds: f64,
) -> Phase {
    run_phase(
        w,
        prompts,
        seconds,
        |i| Traced { served, session: None, trace: ClientTrace::new(i) },
        |clients| {
            let mut spans = trace::drain_shared();
            for c in clients.iter_mut() {
                spans.append(&mut c.trace.spans);
            }
            (spans, served.dispatcher.stats())
        },
    )
}

/// The user-visible numbers of one phase.
#[derive(Debug, Clone)]
pub struct Endpoints {
    pub decode_tok_s: f64,
    pub prompt_tok_s: f64,
    /// Tokens per CPU-second of the process: the serving cost, which
    /// CPU time a shared host withholds does not move.
    pub decode_tok_per_cpu_s: f64,
    pub prompt_tok_per_cpu_s: f64,
    /// CPU-seconds per wall-second the process got while serving.
    pub cores: f64,
    /// Inter-token gaps of every client, ms, in completion order.
    pub itl_ms: Vec<f64>,
    /// Times to first token of every client, ms, in completion order.
    pub ttft_ms: Vec<f64>,
}

impl Endpoints {
    pub fn of(p: &Phase) -> Endpoints {
        let sum = |f: fn(&ClientLog) -> u64| p.timed.iter().map(f).sum::<u64>() as f64;
        let ms = |f: fn(&ClientLog) -> &Vec<(u64, f64)>| {
            let mut all: Vec<(u64, f64)> =
                p.timed.iter().flat_map(|l| f(l).iter().copied()).collect();
            all.sort_by_key(|s| s.0);
            all.into_iter().map(|s| s.1 * 1e3).collect::<Vec<f64>>()
        };
        Endpoints {
            decode_tok_s: ratio(sum(|l| l.decode_tokens), p.wall_s),
            prompt_tok_s: ratio(sum(|l| l.prompt_tokens), p.wall_s),
            decode_tok_per_cpu_s: ratio(sum(|l| l.decode_tokens), p.cpu_s),
            prompt_tok_per_cpu_s: ratio(sum(|l| l.prompt_tokens), p.cpu_s),
            cores: ratio(p.cpu_s, p.wall_s),
            itl_ms: ms(|l| &l.itl),
            ttft_ms: ms(|l| &l.ttft),
        }
    }

    pub fn itl_p50(&self) -> f64 {
        percentile(&self.itl_ms, 50.0)
    }

    pub fn ttft_p50(&self) -> f64 {
        percentile(&self.ttft_ms, 50.0)
    }
}

/// Calls attempted and failed in `phases`, every served token replayed
/// against `RefExec`: a call fails when it errs or its token differs
/// from the reference stream of the same prompt.
pub fn check(
    w: Workload,
    model: &Model,
    prompts: &[Vec<Vec<u32>>],
    phases: &[&Phase],
) -> (u64, u64) {
    let scripts = w.scripts();
    let mut reference: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for p in phases {
        for logs in [&p.warmup, &p.timed] {
            for (c, log) in logs.iter().enumerate() {
                attempted += log.calls;
                failed += log.errors;
                for s in &log.sessions {
                    let want = reference
                        .entry((c, s.prompt))
                        .or_insert_with(|| replay(model, &prompts[c][s.prompt], scripts[c].steps));
                    failed +=
                        s.tokens.iter().zip(want.iter()).filter(|(a, b)| a != b).count() as u64;
                }
            }
        }
    }
    (attempted, failed)
}

/// The reference stream for `prompt`: its first token and `steps`
/// decode tokens, every GeMM on `gemm_i32_ref`.
fn replay(model: &Model, prompt: &[u32], steps: usize) -> Vec<u32> {
    let mut ctx = InferContext::for_model(model);
    let mut exec = RefExec::new(model);
    let mut out =
        vec![ctx.prefill_with(model, &mut exec, prompt).expect("reference prefill").first];
    for _ in 0..steps {
        out.push(ctx.decode_with(model, &mut exec).expect("reference decode"));
    }
    out
}
