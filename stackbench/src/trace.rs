//! Tracing from outside the program: spans recorded at the benchmark's
//! own wrappers around each layer's public calls, kept in memory and
//! written out when the run ends.
//!
//! * `infer.prefill` / `infer.decode` — one `InferContext` call; the
//!   root span of one client request.
//! * `dispatch.run` — one `GemmExec::run` round trip through the
//!   dispatcher (child of the infer span), and `dispatch.submit`, the
//!   time inside `submit_with` (child of the run).
//! * `engine.execute` — one `execute_prepared` batch on the dispatcher's
//!   driver thread, and `engine.prepare` — one static `prepare` on a
//!   stager. Neither has a parent knowable from outside the dispatcher,
//!   so both are recorded without one and reconciled in aggregate.
//! * `sim.camp` / `sim.baseline` — one simulated GeMM.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use camp_core::backend::{BatchOutcome, CampBackend, Capability};
use camp_core::dispatch::{DispatchSession, Priority};
use camp_core::engine::StagedRequest;
use camp_core::{
    CampEngine, DType, EngineStats, GemmRequest, RequestError, WeightHandle, WeightMeta,
    WeightSnapshot,
};
use camp_gemm::host::KernelInfo;
use camp_infer::{BOperand, GemmExec, InferError, InferGemm, ModelHandles};

use crate::stats::{percentile, ratio};

/// Nanoseconds since the first call in this process: one clock for the
/// spans of every thread.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Work a GeMM batch did, as the engine counted it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    pub gemms: u64,
    pub macs: u64,
    pub packed_bytes: u64,
    /// Requests routed to the small-m, small-n and blocked paths.
    pub routes: [u64; 3],
}

impl Work {
    fn from_engine(gemms: usize, s: &EngineStats) -> Work {
        Work {
            gemms: gemms as u64,
            macs: s.macs,
            packed_bytes: s.packed_bytes(),
            routes: [s.small_m_routed, s.small_n_routed, s.blocked_routed],
        }
    }
}

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u64>,
    /// The client request (infer call) this span serves, when known.
    pub req: Option<u64>,
    pub work: Option<Work>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans recorded off the client threads (driver and stagers), which
/// carry no parent. `prepare` is a static function, so this sink is
/// process-wide.
static SHARED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn record_shared(name: &'static str, start: u64, work: Option<Work>) {
    let end = now_ns();
    SHARED.lock().expect("span sink poisoned by a panicking thread").push(Span {
        id: 0,
        name,
        start,
        end,
        parent: None,
        req: None,
        work,
    });
}

/// Take every span the driver and stagers recorded so far.
pub fn drain_shared() -> Vec<Span> {
    std::mem::take(&mut *SHARED.lock().expect("span sink poisoned by a panicking thread"))
}

/// The host engine with its driver-thread batches and stager
/// preparation timed. Every other call goes straight to `CampEngine`.
#[derive(Debug)]
pub struct TracedEngine(pub CampEngine);

impl CampBackend for TracedEngine {
    type Prepared = StagedRequest;

    fn name(&self) -> &'static str {
        CampBackend::name(&self.0)
    }

    fn threads(&self) -> usize {
        CampBackend::threads(&self.0)
    }

    fn supports(&self, cap: Capability) -> bool {
        CampBackend::supports(&self.0, cap)
    }

    fn kernel_info(&self) -> KernelInfo {
        CampBackend::kernel_info(&self.0)
    }

    fn register_weights(&mut self, n: usize, k: usize, b: &[i8], dtype: DType) -> WeightHandle {
        CampBackend::register_weights(&mut self.0, n, k, b, dtype)
    }

    fn evict_weights(&mut self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        CampBackend::evict_weights(&mut self.0, h)
    }

    fn clear_weights(&mut self) {
        CampBackend::clear_weights(&mut self.0)
    }

    fn try_weight_meta(&self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        CampBackend::try_weight_meta(&self.0, h)
    }

    fn weight_snapshot(&self) -> WeightSnapshot {
        CampBackend::weight_snapshot(&self.0)
    }

    fn execute_batch(&mut self, reqs: &[GemmRequest]) -> Result<BatchOutcome, RequestError> {
        CampBackend::execute_batch(&mut self.0, reqs)
    }

    fn prepare(req: GemmRequest, weights: &WeightSnapshot) -> StagedRequest {
        let start = now_ns();
        let staged = <CampEngine as CampBackend>::prepare(req, weights);
        record_shared("engine.prepare", start, None);
        staged
    }

    fn execute_prepared(&mut self, batch: Vec<StagedRequest>) -> BatchOutcome {
        let start = now_ns();
        let gemms = batch.len();
        let out = CampBackend::execute_prepared(&mut self.0, batch);
        let work = out.stats.as_host().map(|s| Work::from_engine(gemms, s));
        record_shared("engine.execute", start, work);
        out
    }
}

/// Spans of one client thread, with its own id space.
#[derive(Debug)]
pub struct ClientTrace {
    next: u64,
    pub spans: Vec<Span>,
}

impl ClientTrace {
    /// Client `client`'s ids start at `client << 40`, so ids from
    /// different clients never collide.
    pub fn new(client: usize) -> Self {
        ClientTrace { next: ((client as u64) << 40) + 1, spans: Vec::new() }
    }

    /// Reserve an id for a span that will be pushed when it ends.
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }
}

/// The serving executor's three public calls — request construction,
/// `submit_with` and `wait` — made exactly as `DispatchExec` makes them,
/// with the round trip and the submit timed.
pub struct TracedExec<'a, B: CampBackend + Send + 'static> {
    pub session: &'a mut DispatchSession<B>,
    pub handles: &'a ModelHandles,
    pub priority: Priority,
    pub trace: &'a mut ClientTrace,
    /// The infer span this executor's batches belong to.
    pub parent: u64,
}

impl<B: CampBackend + Send + 'static> GemmExec for TracedExec<'_, B> {
    fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
        let start = now_ns();
        let run_id = self.trace.open();
        let reqs = batch
            .iter()
            .map(|g| match &g.b {
                BOperand::Weight(id) => {
                    GemmRequest::with_weights(g.m, g.a.clone(), self.handles.get(*id))
                }
                BOperand::Dense(b) => GemmRequest::dense(g.m, g.n, g.k, g.a.clone(), b.clone()),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let submit_start = now_ns();
        let ticket = self.session.submit_with(reqs, self.priority, None)?;
        let submit_end = now_ns();
        let outcome = self.session.wait(ticket)?;
        let end = now_ns();
        let req = Some(self.parent);
        let submit_id = self.trace.open();
        self.trace.spans.push(Span {
            id: submit_id,
            name: "dispatch.submit",
            start: submit_start,
            end: submit_end,
            parent: Some(run_id),
            req,
            work: None,
        });
        self.trace.spans.push(Span {
            id: run_id,
            name: "dispatch.run",
            start,
            end,
            parent: Some(self.parent),
            req,
            work: outcome.stats.as_host().map(|s| Work::from_engine(batch.len(), s)),
        });
        Ok(outcome.outputs.into_iter().map(|o| o.c).collect())
    }
}

/// Write spans as CSV, one per line, sorted by start time.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.id));
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "id,name,start_ns,end_ns,parent,req,gemms,macs,packed_bytes,small_m,small_n,blocked"
    )?;
    for s in sorted {
        let opt = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_default();
        let wk = s.work.unwrap_or_default();
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            s.id,
            s.name,
            s.start,
            s.end,
            opt(s.parent),
            opt(s.req),
            wk.gemms,
            wk.macs,
            wk.packed_bytes,
            wk.routes[0],
            wk.routes[1],
            wk.routes[2]
        )?;
    }
    w.flush()
}

/// Per-layer totals over the spans of one traced serving phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Client time: the summed duration of every infer span.
    pub client_ns: f64,
    /// Infer self time: client time not covered by its `dispatch.run`
    /// children (requantization, attention glue, KV appends, argmax).
    pub infer_self_ns: f64,
    /// Dispatch self time: round trips minus engine busy time.
    pub dispatch_self_ns: f64,
    /// Engine busy time on the driver thread.
    pub engine_ns: f64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

#[derive(Default)]
struct Children {
    run_ns: u64,
    runs: u64,
    work: Work,
}

/// Aggregate the spans of one traced serving phase that lasted `wall_ns`.
/// `stats` is the dispatcher's counter snapshot at the end of the phase.
pub fn layers(spans: &[Span], wall_ns: u64, stats: &camp_core::DispatchStats) -> Layers {
    let mut children: HashMap<u64, Children> = HashMap::new();
    let (mut run_durs, mut submit_durs) = (Vec::new(), Vec::new());
    let (mut run_ns, mut engine_ns, mut stage_ns) = (0u64, 0u64, 0u64);
    let (mut engine_batches, mut stages) = (0u64, 0u64);
    // [small-m, blocked] route classes: (2·MACs, busy ns)
    let mut route_ops = [(0u64, 0u64); 2];
    for s in spans {
        match s.name {
            "dispatch.run" => {
                run_ns += s.dur();
                run_durs.push(s.dur() as f64);
                let c = children.entry(s.parent.expect("a run has an infer parent")).or_default();
                c.run_ns += s.dur();
                c.runs += 1;
                let w = s.work.unwrap_or_default();
                c.work.gemms += w.gemms;
                c.work.macs += w.macs;
                c.work.packed_bytes += w.packed_bytes;
                for (acc, r) in c.work.routes.iter_mut().zip(w.routes) {
                    *acc += r;
                }
            }
            "dispatch.submit" => submit_durs.push(s.dur() as f64),
            "engine.execute" => {
                engine_ns += s.dur();
                engine_batches += 1;
                let w = s.work.unwrap_or_default();
                let class = match w.routes {
                    [m, 0, 0] if m > 0 => Some(0),
                    [0, 0, b] if b > 0 => Some(1),
                    _ => None,
                };
                if let Some(c) = class {
                    route_ops[c].0 += 2 * w.macs;
                    route_ops[c].1 += s.dur();
                }
            }
            "engine.prepare" => {
                stage_ns += s.dur();
                stages += 1;
            }
            _ => {}
        }
    }

    // per infer kind: (calls, self ns, children totals)
    let mut kinds: [(u64, u64, Children); 2] = Default::default();
    let mut client_ns = 0u64;
    for s in spans {
        let kind = match s.name {
            "infer.decode" => 0,
            "infer.prefill" => 1,
            _ => continue,
        };
        client_ns += s.dur();
        let c = children.remove(&s.id).unwrap_or_default();
        let k = &mut kinds[kind];
        k.0 += 1;
        k.1 += s.dur().saturating_sub(c.run_ns);
        k.2.runs += c.runs;
        k.2.work.gemms += c.work.gemms;
        k.2.work.macs += c.work.macs;
        k.2.work.packed_bytes += c.work.packed_bytes;
        for (acc, r) in k.2.work.routes.iter_mut().zip(c.work.routes) {
            *acc += r;
        }
    }
    let [(tokens, decode_self, dec), (prompts, prefill_self, pre)] = kinds;
    let tok = tokens as f64;
    let runs = run_durs.len() as f64;
    let infer_self_ns = (decode_self + prefill_self) as f64;
    let dispatch_self_ns = run_ns as f64 - engine_ns as f64;
    let client = client_ns as f64;
    let m = vec![
        ("infer.host_us_per_token", "us", ratio(decode_self as f64, tok) / 1e3),
        ("infer.host_ms_per_prompt", "ms", ratio(prefill_self as f64, prompts as f64) / 1e6),
        ("infer.batches_per_token", "count", ratio(dec.runs as f64, tok)),
        ("infer.gemms_per_token", "count", ratio(dec.work.gemms as f64, tok)),
        ("dispatch.roundtrip_us", "us", percentile(&run_durs, 50.0) / 1e3),
        ("dispatch.overhead_us_per_batch", "us", ratio(dispatch_self_ns, runs) / 1e3),
        ("dispatch.submit_us", "us", percentile(&submit_durs, 50.0) / 1e3),
        ("dispatch.stage_us_per_req", "us", ratio(stage_ns as f64, stages as f64) / 1e3),
        ("dispatch.stolen_frac", "frac", ratio(stats.stolen as f64, stats.executed as f64)),
        ("dispatch.rejected", "count", stats.rejected as f64),
        ("dispatch.shed", "count", stats.shed as f64),
        ("engine.busy_frac", "frac", ratio(engine_ns as f64, wall_ns as f64)),
        ("engine.busy_us_per_batch", "us", ratio(engine_ns as f64, engine_batches as f64) / 1e3),
        ("engine.small_m_gops", "GOPS", ratio(route_ops[0].0 as f64, route_ops[0].1 as f64)),
        ("engine.blocked_gops", "GOPS", ratio(route_ops[1].0 as f64, route_ops[1].1 as f64)),
        ("engine.macs_per_token", "count", ratio(dec.work.macs as f64, tok)),
        ("engine.packed_bytes_per_token", "B", ratio(dec.work.packed_bytes as f64, tok)),
        ("engine.small_m_routed_per_token", "count", ratio(dec.work.routes[0] as f64, tok)),
        ("engine.small_n_routed_per_token", "count", ratio(dec.work.routes[1] as f64, tok)),
        ("engine.blocked_routed_per_token", "count", ratio(dec.work.routes[2] as f64, tok)),
        (
            "engine.small_m_routed_per_prompt",
            "count",
            ratio(pre.work.routes[0] as f64, prompts as f64),
        ),
        (
            "engine.small_n_routed_per_prompt",
            "count",
            ratio(pre.work.routes[1] as f64, prompts as f64),
        ),
        (
            "engine.blocked_routed_per_prompt",
            "count",
            ratio(pre.work.routes[2] as f64, prompts as f64),
        ),
        ("layer.infer_self_frac", "frac", ratio(infer_self_ns, client)),
        ("layer.dispatch_self_frac", "frac", ratio(dispatch_self_ns, client)),
        ("layer.engine_self_frac", "frac", ratio(engine_ns as f64, client)),
    ];
    Layers {
        client_ns: client,
        infer_self_ns,
        dispatch_self_ns,
        engine_ns: engine_ns as f64,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span { id, name, start, end, parent, req: parent, work: None }
    }

    fn work(gemms: u64, macs: u64, routes: [u64; 3]) -> Option<Work> {
        Some(Work { gemms, macs, packed_bytes: 10 * gemms, routes })
    }

    fn metric(l: &Layers, name: &str) -> f64 {
        l.metrics.iter().find(|m| m.0 == name).unwrap_or_else(|| panic!("{name} missing")).2
    }

    /// Two decode tokens and one prompt: per token 2 batches of 3
    /// GeMMs, engine busy inside every round trip.
    fn fixture() -> Vec<Span> {
        let mut s = vec![
            span(1, "infer.decode", 0, 1000, None),
            span(2, "infer.decode", 1000, 2000, None),
            span(3, "infer.prefill", 2000, 5000, None),
        ];
        for (id, parent, start) in
            [(10, 1, 100), (11, 1, 500), (12, 2, 1100), (13, 2, 1500), (14, 3, 2500)]
        {
            let w = if parent == 3 { work(3, 3000, [0, 0, 3]) } else { work(3, 30, [3, 0, 0]) };
            s.push(Span { work: w, ..span(id, "dispatch.run", start, start + 300, Some(parent)) });
            s.push(span(id + 100, "dispatch.submit", start + 10, start + 20, Some(id)));
            s.push(Span { work: w, ..span(0, "engine.execute", start + 50, start + 250, None) });
            s.push(span(0, "engine.prepare", start + 20, start + 40, None));
        }
        s
    }

    #[test]
    fn layer_self_times_reconcile_with_client_time() {
        let l = layers(&fixture(), 10_000, &Default::default());
        assert_eq!(l.client_ns, 5000.0);
        assert_eq!(l.engine_ns, 5.0 * 200.0);
        assert_eq!(l.dispatch_self_ns, 5.0 * 100.0);
        assert_eq!(l.infer_self_ns, 5000.0 - 5.0 * 300.0);
        // infer host + dispatch overhead + engine busy = client time
        assert_eq!(l.infer_self_ns + l.dispatch_self_ns + l.engine_ns, l.client_ns);
        let fracs: f64 =
            ["layer.infer_self_frac", "layer.dispatch_self_frac", "layer.engine_self_frac"]
                .iter()
                .map(|n| metric(&l, n))
                .sum();
        assert!((fracs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_token_and_per_prompt_counts() {
        let l = layers(&fixture(), 10_000, &Default::default());
        assert_eq!(metric(&l, "infer.batches_per_token"), 2.0);
        assert_eq!(metric(&l, "infer.gemms_per_token"), 6.0);
        assert_eq!(metric(&l, "infer.host_us_per_token"), (1000.0 - 600.0) / 1e3);
        assert_eq!(metric(&l, "infer.host_ms_per_prompt"), (3000.0 - 300.0) / 1e6);
        assert_eq!(metric(&l, "engine.macs_per_token"), 60.0);
        assert_eq!(metric(&l, "engine.packed_bytes_per_token"), 60.0);
        assert_eq!(metric(&l, "engine.small_m_routed_per_token"), 6.0);
        assert_eq!(metric(&l, "engine.blocked_routed_per_prompt"), 3.0);
        assert_eq!(metric(&l, "engine.busy_frac"), 0.1);
        assert_eq!(metric(&l, "engine.busy_us_per_batch"), 0.2);
        assert_eq!(metric(&l, "dispatch.roundtrip_us"), 0.3);
        assert_eq!(metric(&l, "dispatch.overhead_us_per_batch"), 0.1);
        assert_eq!(metric(&l, "dispatch.submit_us"), 0.01);
        assert_eq!(metric(&l, "dispatch.stage_us_per_req"), 0.02);
        // 2·MACs per busy ns, by route class
        assert_eq!(metric(&l, "engine.small_m_gops"), 2.0 * 120.0 / 800.0);
        assert_eq!(metric(&l, "engine.blocked_gops"), 2.0 * 3000.0 / 200.0);
    }

    #[test]
    fn empty_phase_reports_zeros_not_nan() {
        let l = layers(&[], 0, &Default::default());
        assert!(l.metrics.iter().all(|m| m.2 == 0.0), "{:?}", l.metrics);
    }
}
