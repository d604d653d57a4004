//! The run record: what machine and configuration produced a result.

use std::path::Path;

use camp_core::backend::{host_threads_from_env, sim_threads_from_env};
use camp_core::dispatch::DispatchOptions;
use camp_core::CampEngine;

/// Every environment variable with the repository's knob prefix. Any of
/// them would silently measure a different program (a forced scalar
/// kernel, another thread count, another KV capacity).
pub fn knobs_set() -> Vec<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("CAMP_"))
        .collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(name))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The record as one JSON object.
pub fn json(workload: &str, seed: u64, seconds: u64, trace: bool, describe: &str) -> String {
    let engine = CampEngine::with_threads(host_threads_from_env());
    let nproc = crate::nproc();
    let opts = DispatchOptions::default();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"commit\": \"{}\", \"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel_tier\": \"{}\", \
         \"engine_threads\": {}, \"stagers\": {}, \"queue_depth\": {}, \"sim_threads\": {}, \
         \"mac_budget\": {}, \"traffic\": \"{}\"}}",
        esc(workload),
        esc(&commit()),
        esc(&cpu_model()),
        esc(&engine.kernel_info().tier),
        engine.threads(),
        opts.stagers,
        opts.queue_depth,
        sim_threads_from_env(),
        camp_bench::mac_budget(),
        esc(describe)
    )
}

/// CPU seconds this process has used so far, all threads, exited ones
/// included. `/proc` reports them in USER_HZ ticks, which Linux fixes
/// at 100 per second.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| {
            // fields after the parenthesized command name; utime and
            // stime are the 14th and 15th fields of the line
            let rest = t.get(t.rfind(')')? + 2..)?;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Nanoseconds of CPU the calling thread has used so far.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Reset this process's peak resident set (VmHWM), so a later reading
/// covers only what follows.
pub fn reset_peak_rss() {
    // "5" resets the peak RSS counter; best effort where unsupported
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since start or the last reset, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
