//! What the numbers were taken on: host fingerprint, peak memory, and the
//! measurement points this host cannot take honestly.

use std::process::Command;

use crate::json::Json;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MiB: the peak resident set since it started.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory only
/// (the benchmark must not look outside its checkout); `unknown` where the
/// checkout is not a git repository.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// Host fingerprint recorded with every result.
pub fn fingerprint() -> Json {
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("rustc", Json::from(rustc_version())),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (thin LTO, 4 codegen units)"
            }),
        ),
        ("git_commit", Json::from(git_commit())),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
    ])
}

/// Farm width every compile uses: the issue fixes `jobs = 2`; a narrower
/// host runs (and records) what it has.
pub fn farm_jobs() -> usize {
    nproc().min(2)
}

/// Measurement points not taken on this host, each with its reason. They
/// are listed, never reported as numbers.
pub fn skipped() -> Json {
    let n = nproc();
    let points = [
        (
            "cosim threads > 1".to_string(),
            format!(
                "the sharded cosim needs one core per worker on top of the client thread; \
                 this host has nproc = {n}, so only threads = 1 (the same engine, inline) is measured"
            ),
        ),
        (
            format!("build farm jobs > {}", farm_jobs()),
            format!("jobs beyond nproc = {n} oversubscribe the cores and measure the scheduler"),
        ),
        (
            "dfg::threaded / listream engines".to_string(),
            "one OS thread per operator oversubscribes this host; requests run on dfg::run_graph"
                .to_string(),
        ),
        (
            "speculative compiles".to_string(),
            "background threads make stage-hit counts depend on timing".to_string(),
        ),
    ];
    Json::Arr(
        points
            .into_iter()
            .map(|(what, reason)| {
                Json::obj([("what", Json::from(what)), ("reason", Json::from(reason))])
            })
            .collect(),
    )
}
