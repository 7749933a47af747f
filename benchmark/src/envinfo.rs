//! Where a run was made: recorded in every output file, because a
//! timing means nothing without the machine and toolchain beside it.

use crate::json::Json;
use std::process::Command;

/// Hardware threads available to this process: the load thread count
/// of `server_mixed` and the width of the parallel leg.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a tool's output, or "unknown" (the tool is waited for
/// either way; a checkout that is not a git repository has no commit).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn describe(seed: u64) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::Str(cpu_model())),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}
