//! The simulator phase: the paper's GeMM inventory on the cycle-accurate
//! simulator. CAMP 8- and 4-bit run through `SimBackend::execute`; each
//! baseline runs through `SimRunner::simulate`, under the figure
//! harnesses' MAC clamp.
//!
//! * Fig. 14 — the LLM layer shapes (FF and SA) on the A64FX-like core
//!   against the OpenBLAS-like f32 baseline. BERT Base and GPT-3 Small
//!   share one configuration, so it appears once.
//! * Fig. 12 — square matrices on the edge RISC-V core against the
//!   BLIS-like int32 baseline.

use std::sync::Arc;

use camp_bench::{harness_options, mac_budget, SimRunner};
use camp_core::backend::{sim_threads_from_env, CampBackend, SimBackend};
use camp_core::{DType, GemmRequest, Operand, Output};
use camp_gemm::reference::{gemm_i32_ref, SplitMix64};
use camp_gemm::{CMatrix, GemmOptions, Method};
use camp_models::LlmModel;
use camp_pipeline::{CoreConfig, FuKind, SimStats};

use crate::record::thread_cpu_ns;
use crate::stats::{geomean, ratio};
use crate::trace::{now_ns, Span};

/// One inventory entry: a shape, its core and baseline, and the seeded
/// operands of its two CAMP requests.
pub struct Entry {
    pub label: String,
    edge: bool,
    baseline: Method,
    m: usize,
    n: usize,
    k: usize,
    a: Arc<[i8]>,
    b: Arc<[i8]>,
    /// The i8 and i4 requests over `a` and `b`.
    reqs: [GemmRequest; 2],
}

impl Entry {
    fn core(&self) -> CoreConfig {
        if self.edge {
            CoreConfig::edge_riscv()
        } else {
            CoreConfig::a64fx()
        }
    }
}

/// The inventory plus the simulators that run it.
pub struct Inventory {
    pub entries: Vec<Entry>,
    a64fx: SimBackend,
    edge: SimBackend,
    runner: SimRunner,
}

/// Build the inventory with operands drawn from `seed`.
pub fn setup(seed: u64) -> Inventory {
    let mut rng = SplitMix64::new(seed ^ 0x5117_F16C);
    let mut shapes: Vec<(String, bool, Method, usize, usize, usize)> = Vec::new();
    for model in LlmModel::all() {
        let cfg = model.config();
        for (tag, s) in [("FF", cfg.ff_shape()), ("SA", cfg.sa_shape())] {
            let dup = shapes.iter().any(|e| !e.1 && (e.3, e.4, e.5) == (s.m, s.n, s.k));
            if !dup {
                let label = format!("fig14 {} {tag}", model.name());
                shapes.push((label, false, Method::OpenblasF32, s.m, s.n, s.k));
            }
        }
    }
    for s in (64..=512).step_by(64) {
        shapes.push((format!("fig12 smm {s}"), true, Method::HandvInt32, s, s, s));
    }
    let entries = shapes
        .into_iter()
        .map(|(label, edge, baseline, m, n, k)| {
            let a: Arc<[i8]> = rng.i8_vec(m * k, -8, 7).into();
            let b: Arc<[i8]> = rng.i8_vec(k * n, -8, 7).into();
            let req = |dtype| {
                GemmRequest::builder()
                    .m(m)
                    .n(n)
                    .k(k)
                    .activation(Arc::clone(&a))
                    .weights(Operand::from_dense(Arc::clone(&b)))
                    .dtype(dtype)
                    .build()
                    .expect("inventory shapes are coherent")
            };
            let reqs = [req(DType::I8), req(DType::I4)];
            Entry { label, edge, baseline, m, n, k, a, b, reqs }
        })
        .collect();
    let threads = sim_threads_from_env();
    let backend = |core| SimBackend::new(core).with_threads(threads).with_mac_budget(mac_budget());
    Inventory {
        entries,
        a64fx: backend(CoreConfig::a64fx()),
        edge: backend(CoreConfig::edge_riscv()),
        runner: SimRunner::with_threads(threads),
    }
}

/// One simulated GeMM: its statistics, host time and an output digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    pub stats: SimStats,
    pub host_ns: u64,
    /// CPU time of the simulating thread inside the call.
    pub cpu_ns: u64,
    pub digest: u64,
}

/// CAMP 8-bit, CAMP 4-bit and the baseline on one entry.
#[derive(Debug, Clone, Copy)]
pub struct EntryRuns {
    pub camp: [Run; 2],
    pub base: Run,
}

fn digest<T: Copy>(vals: &[T], bits: impl Fn(T) -> u64) -> u64 {
    // FNV-1a over the element bits
    vals.iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| (h ^ bits(v)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn digest_c(c: &CMatrix) -> u64 {
    match c {
        CMatrix::I8(v) => digest(v, |x| x as u8 as u64),
        CMatrix::I32(v) => digest(v, |x| x as u32 as u64),
        CMatrix::F32(v) => digest(v, |x| x.to_bits() as u64),
    }
}

/// The driver's structure-preserving MAC clamp: halve the largest
/// dimension above 16 until the problem fits the budget.
fn clamp_dims(mut m: usize, mut n: usize, mut k: usize, budget: u64) -> (usize, usize, usize) {
    while (m as u64) * (n as u64) * (k as u64) > budget {
        if m >= n && m >= k && m > 16 {
            m /= 2;
        } else if n >= k && n > 16 {
            n /= 2;
        } else if k > 16 {
            k /= 2;
        } else {
            break;
        }
    }
    (m, n, k)
}

/// `gemm_i32_ref` on the problem the simulator actually ran: the
/// leading m×k / k×n blocks of a clamped problem, padded to the
/// output's shape.
fn reference(e: &Entry, out: &Output) -> Vec<i32> {
    if !out.clamped {
        return gemm_i32_ref(e.m, e.n, e.k, &e.a, &e.b);
    }
    let (m, n, k) = clamp_dims(e.m, e.n, e.k, mac_budget());
    let a: Vec<i8> = (0..m).flat_map(|i| e.a[i * e.k..i * e.k + k].iter().copied()).collect();
    let b: Vec<i8> = (0..k).flat_map(|l| e.b[l * e.n..l * e.n + n].iter().copied()).collect();
    let c = gemm_i32_ref(m, n, k, &a, &b);
    let mut padded = vec![0i32; out.m * out.n];
    for i in 0..m.min(out.m) {
        for j in 0..n.min(out.n) {
            padded[i * out.n + j] = c[i * n + j];
        }
    }
    padded
}

/// Simulate every baseline once with the driver's own host verification
/// on. Untimed: it proves the baseline outputs the timed pass is then
/// compared against. Returns each baseline run and whether it verified.
pub fn verify_baselines(inv: &Inventory) -> Vec<(Run, bool)> {
    let opts = GemmOptions { verify: true, ..harness_options() };
    inv.entries
        .iter()
        .map(|e| {
            let r = inv.runner.simulate(e.core(), e.baseline, e.m, e.n, e.k, &opts);
            (Run { stats: r.stats, host_ns: 0, cpu_ns: 0, digest: digest_c(&r.c) }, r.correct)
        })
        .collect()
}

/// Run `f`: its value, its start and end on the span clock, and the CPU
/// nanoseconds this thread spent in it.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, u64, u64) {
    let (start, cpu0) = (now_ns(), thread_cpu_ns());
    let v = f();
    let (end, cpu1) = (now_ns(), thread_cpu_ns());
    (v, start, end, cpu1.saturating_sub(cpu0))
}

/// The timed pass. Each CAMP output is checked against
/// `gemm_i32_ref` after its timer stops; `mismatches` counts the ones
/// that differ. Spans go to `spans` when tracing.
pub fn timed_pass(
    inv: &mut Inventory,
    mut spans: Option<&mut Vec<Span>>,
    mismatches: &mut u64,
) -> Vec<EntryRuns> {
    let opts = harness_options();
    let mut out = Vec::with_capacity(inv.entries.len());
    let mut id = 1u64 << 62;
    for e in &inv.entries {
        let backend = if e.edge { &mut inv.edge } else { &mut inv.a64fx };
        let mut record = |name: &'static str, start: u64, end: u64| {
            if let Some(s) = spans.as_deref_mut() {
                id += 1;
                s.push(Span { id, name, start, end, parent: None, req: None, work: None });
            }
        };
        let mut want: Option<Vec<i32>> = None;
        let camp = e.reqs.each_ref().map(|req| {
            let (outcome, start, end, cpu_ns) = timed(|| backend.execute(req));
            record("sim.camp", start, end);
            let outcome = outcome.expect("inventory requests are valid");
            let want = want.get_or_insert_with(|| reference(e, &outcome.output));
            if outcome.output.c != *want {
                eprintln!("mismatch: {} {:?} differs from gemm_i32_ref", e.label, req.dtype());
                *mismatches += 1;
            }
            let stats = *outcome.stats.as_sim().expect("the simulator reports sim stats");
            let digest = digest(&outcome.output.c, |x| x as u32 as u64);
            Run { stats, host_ns: end - start, cpu_ns, digest }
        });
        let (r, start, end, cpu_ns) =
            timed(|| inv.runner.simulate(e.core(), e.baseline, e.m, e.n, e.k, &opts));
        record("sim.baseline", start, end);
        let base = Run { stats: r.stats, host_ns: end - start, cpu_ns, digest: digest_c(&r.c) };
        out.push(EntryRuns { camp, base });
    }
    out
}

/// Speed-ups (baseline simulated cycles ÷ CAMP simulated cycles) of one
/// entry, 8-bit then 4-bit.
pub fn speedups(r: &EntryRuns) -> [f64; 2] {
    r.camp.map(|c| ratio(r.base.stats.cycles as f64, c.stats.cycles as f64))
}

fn all_runs(runs: &[EntryRuns]) -> impl Iterator<Item = Run> + '_ {
    runs.iter().flat_map(|r| [r.camp[0], r.camp[1], r.base])
}

/// The simulator's gated end-to-end numbers: the speed-ups, in
/// simulated time.
pub fn speedup_metrics(runs: &[EntryRuns]) -> Vec<(&'static str, &'static str, f64)> {
    let sp: Vec<[f64; 2]> = runs.iter().map(speedups).collect();
    vec![
        ("sim_speedup_camp8", "x", geomean(&sp.iter().map(|s| s[0]).collect::<Vec<_>>())),
        ("sim_speedup_camp4", "x", geomean(&sp.iter().map(|s| s[1]).collect::<Vec<_>>())),
    ]
}

/// The simulator's speed: simulated instructions per second inside the
/// timed calls, by wall clock and by the simulating thread's CPU time.
pub fn speed_metrics(runs: &[EntryRuns]) -> Vec<(&'static str, &'static str, f64)> {
    let (insts, ns, cpu) = all_runs(runs)
        .fold((0, 0, 0), |(i, t, c), r| (i + r.stats.insts, t + r.host_ns, c + r.cpu_ns));
    // instructions per ns = Ginst/s
    vec![
        ("sim_minst_per_s", "Minst/s", ratio(insts as f64, ns as f64) * 1e3),
        ("sim_minst_per_cpu_s", "Minst/cpu-s", ratio(insts as f64, cpu as f64) * 1e3),
    ]
}

/// Per-layer simulator numbers: host time per side, simulated
/// instruction count, and the pipeline and cache picture of CAMP 8-bit
/// in simulated cycles.
pub fn layers(inv: &Inventory, runs: &[EntryRuns]) -> Vec<(&'static str, &'static str, f64)> {
    let host = |f: fn(&EntryRuns) -> u64| runs.iter().map(f).sum::<u64>() as f64 / 1e9;
    let insts: u64 = all_runs(runs).map(|r| r.stats.insts).sum();
    let mut c8 = SimStats::default();
    let mut camp_unit_cycles = 0u64;
    for (e, r) in inv.entries.iter().zip(runs) {
        c8.merge(&r.camp[0].stats);
        camp_unit_cycles += r.camp[0].stats.cycles * e.core().camp.count as u64;
    }
    let cyc = c8.cycles as f64;
    vec![
        ("sim.camp_host_s", "s", host(|r| r.camp[0].host_ns + r.camp[1].host_ns)),
        ("sim.baseline_host_s", "s", host(|r| r.base.host_ns)),
        ("sim.insts", "count", insts as f64),
        ("pipeline.ipc_camp8", "inst/cycle", ratio(c8.insts as f64, cyc)),
        ("pipeline.stall_fu_frac", "stall/cycle", ratio(c8.stall_fu as f64, cyc)),
        ("pipeline.stall_read_frac", "stall/cycle", ratio(c8.stall_read as f64, cyc)),
        ("pipeline.stall_write_frac", "stall/cycle", ratio(c8.stall_write as f64, cyc)),
        (
            "pipeline.camp_busy_frac",
            "frac",
            ratio(c8.fu_busy[FuKind::Camp.index()] as f64, camp_unit_cycles as f64),
        ),
        ("cache.l1d_miss_rate", "frac", c8.l1d.demand_miss_rate()),
        ("cache.l2_miss_rate", "frac", c8.l2.demand_miss_rate()),
        ("cache.mem_reads", "count", c8.mem_reads as f64),
    ]
}
