//! Short runs of every workload, untraced and traced: each must exit 0,
//! report no failure, and print every metric `BENCHMARK.json` names —
//! by name with its unit on a human-readable line, and in the final
//! JSON line. Runs go one at a time, so they do not share the cores.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const WORKLOADS: [&str; 3] = ["decode", "prefill", "mixed"];

/// The metrics every untraced run prints beside the gated ones.
const UNGATED: [(&str, &str); 8] = [
    ("decode_tok_s", "tok/s"),
    ("itl_p50_ms", "ms"),
    ("itl_p99_ms", "ms"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("prompt_tok_s", "tok/s"),
    ("sim_minst_per_s", "Minst/s"),
    ("sim_minst_per_cpu_s", "Minst/cpu-s"),
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the benchmark sits in the repo").into()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let pat = format!("\"{key}\": \"");
        let at = obj.find(&pat).unwrap_or_else(|| panic!("{key} in {obj}")) + pat.len();
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn run(workload: &str, trace: &str) -> String {
    static SERIAL: Mutex<()> = Mutex::new(());
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("run-{workload}-{trace}-{n}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_stackbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for w in WORKLOADS {
            let out = run(w, trace);
            let last = out.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
            assert!(last.contains("\"failed\": 0, "), "{last}");
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = last.find(&entry).unwrap_or_else(|| panic!("{w}: {name} missing"));
                let rest = &last[at + entry.len()..];
                let value: f64 =
                    rest[..rest.find(',').expect("value ends")].parse().expect("number");
                assert!(value.is_finite(), "{w}: {name} = {value}");
                assert!(
                    rest.contains(&format!("\"unit\": \"{unit}\"")),
                    "{w}: {name} lacks unit {unit}"
                );
                assert!(
                    out.lines().any(|l| l.trim_start().starts_with(name.as_str())
                        && l.trim_end().ends_with(&format!(" {unit}"))),
                    "{w}: no human-readable line for {name} in {unit}"
                );
            }
            if section == "end_to_end" {
                for (name, unit) in UNGATED {
                    assert!(
                        out.lines().any(|l| l.trim_start().starts_with(name)
                            && l.trim_end().ends_with(&format!(" {unit}"))),
                        "{w}: no line for {name} in {unit}"
                    );
                }
                assert!(out.contains("failed_frac = 0 frac"), "{out}");
                assert!(out.contains("itl: n="), "{out}");
                assert!(out.contains("ttft: n="), "{out}");
            }
        }
    }
}

#[test]
fn exact_counts_repeat_across_runs() {
    let exact = [
        "infer.batches_per_token",
        "infer.gemms_per_token",
        "engine.macs_per_token",
        "engine.small_m_routed_per_token",
        "engine.blocked_routed_per_prompt",
        "sim.insts",
        "cache.mem_reads",
    ];
    let pick = |out: &str| -> Vec<String> {
        let last = out.lines().last().expect("a result line").to_string();
        exact
            .iter()
            .map(|name| {
                let at = last.find(&format!("\"{name}\"")).expect("metric present");
                last[at..at + last[at..].find('}').expect("entry ends")].to_string()
            })
            .collect()
    };
    let (a, b) = (pick(&run("prefill", "1")), pick(&run("prefill", "1")));
    assert_eq!(a, b);
}

#[test]
fn refuses_to_run_with_a_knob_set() {
    let out = Command::new(env!("CARGO_BIN_EXE_stackbench"))
        .args(["--workload", "decode", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .env("CAMP_THREADS", "1")
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
}
