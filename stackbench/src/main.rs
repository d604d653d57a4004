//! `stackbench` — the repository benchmark for the CAMP stack.
//!
//! ```text
//! stackbench --workload <decode|prefill|mixed> --seed N --seconds N --trace <0|1>
//! ```
//!
//! One run sets up (model build, weight registration, dispatcher spawn,
//! simulator inventory; repeated, median reported), serves seeded
//! prompts closed loop for `--seconds`, replays every served token on
//! the reference executor, verifies the simulator baselines, then runs
//! the simulator inventory once, timed. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! serves half the time untraced and half traced and reports the
//! per-layer metrics and the tracing overhead. The last line of
//! standard output is the result as one JSON object. The command exits
//! 1 when any output mismatched its reference or any call failed.

mod record;
mod serve;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use serve::{Endpoints, Phase, Workload};
use stats::{beyond, chunked_percentile, median, percentile, ratio};

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 5;

/// Where run records and trace spans are written, under the working
/// directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("decode|prefill|mixed"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value.parse().ok().filter(|&s| s >= 1).ok_or_else(|| bad("seconds >= 1"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

type Metric = (&'static str, &'static str, f64);

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("-- {title}");
    for (name, unit, v) in metrics {
        println!("  {name:<34} = {v:>14.4} {unit}");
    }
}

fn print_samples(what: &str, samples: &[f64], tail: f64) {
    let (n, need) = (samples.len(), stats::supporting_len(tail));
    let how = if n / need >= 2 {
        format!("p{tail} is the median over {} chunks of >= {need} samples", n / need)
    } else if stats::supported(n, tail) {
        format!("p{tail} pooled, {} samples beyond it", beyond(n, tail))
    } else {
        format!("p{tail} pooled, only {} samples beyond it (fewer than 10)", beyond(n, tail))
    };
    println!("  {what}: n={n} samples; {how}");
}

/// The serving numbers a user waits for, and the simulator's speed.
/// They are printed, not gated: on a shared host they drift further
/// than any bound the benchmark may set (see README.md).
fn ungated(e: &Endpoints, runs: &[sim::EntryRuns]) -> Vec<Metric> {
    let mut m = vec![
        ("decode_tok_s", "tok/s", e.decode_tok_s),
        ("itl_p50_ms", "ms", percentile(&e.itl_ms, 50.0)),
        ("itl_p99_ms", "ms", chunked_percentile(&e.itl_ms, 99.0)),
        ("ttft_p50_ms", "ms", percentile(&e.ttft_ms, 50.0)),
        ("ttft_p90_ms", "ms", chunked_percentile(&e.ttft_ms, 90.0)),
        ("prompt_tok_s", "tok/s", e.prompt_tok_s),
    ];
    m.extend(sim::speed_metrics(runs));
    m
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            eprintln!(
                "usage: stackbench --workload <decode|prefill|mixed> --seed N --seconds N \
                 --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let knobs = record::knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "stackbench: refusing to run with {} set: a knob changes the program being measured",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let w = args.workload;
    let rec = record::json(w.name(), args.seed, args.seconds, args.trace, &w.describe());
    println!("record: {rec}");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{OUT_DIR}/record-{}.json", w.name()), &rec))
    {
        eprintln!("stackbench: cannot write the run record: {e}");
        return ExitCode::from(2);
    }

    // ---- set-up, repeated: model build + registration + dispatcher
    // spawn, and the simulator inventory
    record::reset_peak_rss();
    let prompts = w.prompts(args.seed);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let served = serve::serve(serve::build_model(w), serve::engine());
        let inv = sim::setup(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((served, inv));
    }
    let (served, mut inv) = kept.expect("at least one set-up");
    let model = Arc::clone(&served.model);

    // ---- serving
    let secs = args.seconds as f64;
    let (plain, traced): (Phase, Option<Phase>) = if args.trace {
        let plain = serve::run_plain(w, &served, &prompts, secs / 2.0);
        drop(served);
        let tserved = serve::serve(Arc::clone(&model), trace::TracedEngine(serve::engine()));
        (plain, Some(serve::run_traced(w, &tserved, &prompts, secs / 2.0)))
    } else {
        (serve::run_plain(w, &served, &prompts, secs), None)
    };
    let phases: Vec<&Phase> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    let (mut attempted, mut failed) = serve::check(w, &model, &prompts, &phases);
    println!("serving: {attempted} calls, {failed} failed or mismatched the reference");

    // ---- simulator
    let verified = sim::verify_baselines(&inv);
    let mut sim_spans = Vec::new();
    let mut sim_failed = 0u64;
    let runs = sim::timed_pass(&mut inv, args.trace.then_some(&mut sim_spans), &mut sim_failed);
    for ((e, r), (v, ok)) in inv.entries.iter().zip(&runs).zip(&verified) {
        attempted += 3;
        if !ok || r.base.digest != v.digest || r.base.stats != v.stats {
            eprintln!("mismatch: {} baseline differs from its verified run", e.label);
            sim_failed += 1;
        }
    }
    failed += sim_failed;
    println!("simulator: {} GeMMs, {sim_failed} mismatched the reference", 3 * runs.len());

    let mut metrics: Vec<Metric>;
    if let Some(tp) = &traced {
        let layers = trace::layers(&tp.spans, (tp.wall_s * 1e9) as u64, &tp.stats);
        let (base, with) = (Endpoints::of(&plain), Endpoints::of(tp));
        metrics = layers.metrics.clone();
        metrics.extend(sim::layers(&inv, &runs));
        metrics.push(("trace.overhead_itl_p50_us", "us", (with.itl_p50() - base.itl_p50()) * 1e3));
        metrics.push(("trace.overhead_ttft_p50_ms", "ms", with.ttft_p50() - base.ttft_p50()));
        print_metrics("per layer (traced half of the serving phase; simulator pass)", &metrics);
        println!(
            "  client time {:.1} ms = infer self {:.1} + dispatch self {:.1} + engine busy {:.1}",
            layers.client_ns / 1e6,
            layers.infer_self_ns / 1e6,
            layers.dispatch_self_ns / 1e6,
            layers.engine_ns / 1e6
        );
        let mut spans = tp.spans.clone();
        spans.extend(sim_spans);
        let path = std::path::PathBuf::from(format!("{OUT_DIR}/spans-{}.csv", w.name()));
        match trace::write_csv(&path, &spans) {
            Ok(()) => println!("  {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("stackbench: cannot write spans: {e}"),
        }
    } else {
        let e = Endpoints::of(&plain);
        metrics = vec![
            ("decode_tok_per_cpu_s", "tok/cpu-s", e.decode_tok_per_cpu_s),
            ("prompt_tok_per_cpu_s", "tok/cpu-s", e.prompt_tok_per_cpu_s),
        ];
        metrics.extend(sim::speedup_metrics(&runs));
        metrics.push(("setup_s", "s", median(&setup_s)));
        metrics.push(("peak_rss_mb", "MB", record::peak_rss_mb()));
        print_metrics(&format!("end to end, gated ({})", w.name()), &metrics);
        print_metrics("end to end, not gated", &ungated(&e, &runs));
        print_samples("itl", &e.itl_ms, 99.0);
        print_samples("ttft", &e.ttft_ms, 90.0);
        println!("  serving ran on {:.2} CPU-seconds per second of {} cores", e.cores, nproc());
        let per_fig = |fig: &str, i: usize| {
            let s: Vec<f64> = inv
                .entries
                .iter()
                .zip(&runs)
                .filter(|(e, _)| e.label.starts_with(fig))
                .map(|(_, r)| sim::speedups(r)[i])
                .collect();
            (stats::geomean(&s), s.iter().copied().fold(0.0, f64::max))
        };
        for (fig, paper) in [
            ("fig14", "up to 17x over A64FX (abstract); CAMP-4bit up to 15x over OpenBLAS"),
            ("fig12", "up to 23x over the RISC-V edge SoC (abstract); 7-25x by size"),
        ] {
            let ((g8, m8), (g4, m4)) = (per_fig(fig, 0), per_fig(fig, 1));
            println!(
                "  {fig}: camp8 geomean {g8:.2}x max {m8:.2}x, camp4 geomean {g4:.2}x max \
                 {m4:.2}x; paper: {paper}"
            );
        }
        println!("  the simulator is unvalidated against hardware: no error figure is given");
    }
    println!(
        "  failed_frac = {} frac ({failed} of {attempted} calls and GeMMs)",
        ratio(failed as f64, attempted as f64)
    );

    for (name, _, v) in &metrics {
        assert!(v.is_finite(), "metric {name} is not a finite number: {v}");
    }
    println!("{}", json(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
