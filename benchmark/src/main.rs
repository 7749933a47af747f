//! The repo benchmark. See `benchmark/README.md` for the metrics, the
//! workloads and how layer metrics are expected to move them.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out run.json] [--spans spans.json] [--verbose]
//! benchmark --workload all --out F   every workload, untraced then traced
//! benchmark --compare A.json B.json  verdict per (metric, workload)
//! benchmark --check [--seed n]       exact metrics twice, must be identical
//! benchmark --smoke                  all workloads, quick datasets, 1 round
//! ```
//!
//! `--seconds` defaults to `run_seconds` of `BENCHMARK.json`.
//!
//! With a single workload the last line of standard output is one JSON
//! object `{correct, attempted, failed, metrics}` holding every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). The exit code is non-zero when an output failed its
//! check.

mod batch;
mod catalog;
mod cold;
mod compare;
mod compile_cold;
mod envinfo;
mod json;
mod metrics;
mod probes;
mod report;
mod run;
mod sample;
mod server_mixed;
mod span;

use catalog::Size;
use json::Json;
use metrics::{spec, Repeat, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Budget, Cfg, Outcome};
use std::process::ExitCode;

/// Run one workload; the name of the span that roots its attribution.
fn run_workload(name: &str, cfg: &Cfg) -> Option<(Outcome, &'static str)> {
    let (mut outcome, root) = match name {
        "dense_kernel" => (batch::run(catalog::DENSE_KERNEL, cfg), "opt"),
        "dense_blocked" => (batch::run(catalog::DENSE_BLOCKED, cfg), "opt"),
        "irregular" => (batch::run(catalog::IRREGULAR, cfg), "opt"),
        "compile_cold" => (compile_cold::run(cfg), "unit"),
        "server_mixed" => (server_mixed::run(cfg), "request"),
        _ => return None,
    };
    if cfg.trace {
        outcome.metrics.merge(probes::run(cfg.seed));
    }
    Some((outcome, root))
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, n: usize) -> Option<&[String]> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1..i + 1 + n)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name, 1).map(|v| v[0].as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn run_set(seed: u64, seconds: f64, workloads: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("env", envinfo::describe(seed)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// All five workloads at the quick datasets, one round, traced: every
/// registered metric must come out finite, every end-to-end one
/// positive, every output correct.
fn smoke() -> Result<(), String> {
    let cfg = Cfg {
        size: Size::Quick,
        budget: Budget::Fixed {
            rounds: 1,
            requests_per_client: 300,
        },
        seed: 1,
        trace: true,
    };
    for (name, _) in WORKLOADS {
        let (o, _) = run_workload(name, &cfg).expect("registered workload");
        if o.tally.failed > 0 {
            return Err(format!("{name}: {:?}", o.tally.messages));
        }
        let line = report::result_line(&o, true);
        let parsed = Json::parse(&line)?;
        let printed = parsed.get("metrics").map_or(0, |m| m.fields().len());
        if printed != PER_LAYER.len() {
            return Err(format!("{name}: {printed} per-layer metrics printed"));
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let v = o.metrics.get(d.name).value;
            if !v.is_finite() {
                return Err(format!("{name}: {} is not finite", d.name));
            }
        }
        for d in END_TO_END {
            if o.metrics.0.get(d.name).is_none_or(|r| r.value <= 0.0) {
                return Err(format!("{name}: {} is missing or zero", d.name));
            }
        }
        println!("smoke {name}: ok ({} outputs checked)", o.tally.attempted);
    }
    Ok(())
}

/// The count-only legs twice in one process: every metric that should
/// repeat exactly — peak bytes, copies, elisions, allocs, remark counts,
/// plan instructions, plan builds (pretty-IR hashes are checked inside
/// `compile_cold`) — must come out bit-identical.
fn check(seed: u64, out: Option<&str>) -> Result<(), String> {
    let cfg = Cfg {
        size: Size::Full,
        budget: Budget::Fixed {
            rounds: 1,
            requests_per_client: 1500,
        },
        seed,
        trace: true,
    };
    let mut differing = Vec::new();
    let mut workloads = Vec::new();
    for (name, _) in WORKLOADS {
        let (a, root) = run_workload(name, &cfg).expect("registered workload");
        let (b, _) = run_workload(name, &cfg).expect("registered workload");
        for o in [&a, &b] {
            if o.tally.failed > 0 {
                return Err(format!("{name}: outputs failed: {:?}", o.tally.messages));
            }
        }
        let mut compared = 0;
        for d in PER_LAYER.iter().filter(|d| d.repeat != Repeat::Noisy) {
            let (x, y) = (a.metrics.get(d.name).value, b.metrics.get(d.name).value);
            compared += 1;
            if x.to_bits() != y.to_bits() {
                differing.push(format!("{name}: {} = {x} then {y}", d.name));
            }
        }
        println!("check {name}: {compared} exact metrics compared");
        workloads.push((
            name.to_string(),
            report::workload_json(&a, Some((&b, root))),
        ));
    }
    if let Some(path) = out {
        write_file(path, &run_set(seed, 0.0, workloads).render_pretty())?;
    }
    if differing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "exact metrics differ between two runs:\n  {}",
            differing.join("\n  ")
        ))
    }
}

/// `--workload all`: each workload in a process of its own — untraced,
/// then traced — exactly as the driver runs them (resident size and page
/// reuse are per process), with the children's tables passed through
/// and their run-set files merged into one.
fn all_workloads(
    seed: u64,
    seconds: f64,
    out: &str,
    spans: Option<&str>,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut failed = false;
    let mut workloads = Vec::new();
    for (name, why) in WORKLOADS {
        println!("# {name}: {why}");
        let mut correct = true;
        let mut entry: Vec<(String, Json)> = Vec::new();
        for trace in [false, true] {
            let part = format!("{out}.{name}.{}.part", u8::from(trace));
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", name, "--verbose", "--out", &part])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let (true, Some(path)) = (trace, spans) {
                child.args(["--spans", &format!("{path}.{name}.json")]);
            }
            let output = child
                .output()
                .map_err(|e| format!("{name}: cannot run: {e}"))?;
            // Pass the tables through; the one-line result is for drivers.
            for line in String::from_utf8_lossy(&output.stdout).lines() {
                if !line.starts_with('{') {
                    println!("{line}");
                }
            }
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let set = read_json(&part)?;
            std::fs::remove_file(&part).map_err(|e| format!("{part}: {e}"))?;
            let child_entry = set
                .get("workloads")
                .and_then(|w| w.get(name))
                .ok_or_else(|| format!("{part}: no entry for {name}"))?;
            correct &=
                output.status.success() && child_entry.get("correct") == Some(&Json::Bool(true));
            // End-to-end readings and rows come from the untraced run,
            // per-layer readings and the attribution from the traced one.
            let keep: &[&str] = if trace {
                &["per_layer", "attribution_pct", "spans_recorded"]
            } else {
                &["attempted", "failed", "timed_s", "end_to_end", "rows"]
            };
            for key in keep {
                if let Some(v) = child_entry.get(key) {
                    entry.push((key.to_string(), v.clone()));
                }
            }
        }
        entry.insert(0, ("correct".to_string(), Json::Bool(correct)));
        failed |= !correct;
        workloads.push((name.to_string(), Json::Obj(entry)));
    }
    write_file(out, &run_set(seed, seconds, workloads).render_pretty())?;
    Ok(if failed {
        eprintln!("some outputs failed their check");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args(std::env::args().skip(1).collect());
    if args.flag("--smoke") {
        smoke()?;
        return Ok(ExitCode::SUCCESS);
    }
    let seed: u64 = args.parsed("--seed", 1)?;
    if args.flag("--check") {
        check(seed, args.value("--out"))?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.flag("--compare") {
        let files = args
            .values("--compare", 2)
            .ok_or("--compare needs two run-set files")?;
        let regressions =
            compare::compare(&read_json(&files[0])?, &read_json(&files[1])?, &spec())?;
        println!("{regressions} regression(s)");
        return Ok(if regressions == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let workload = args
        .value("--workload")
        .ok_or("--workload <name|all> is required (or --compare, --check, --smoke)")?;
    let run_seconds = spec()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json has run_seconds");
    let seconds: f64 = args.parsed("--seconds", run_seconds)?;
    let trace = match args.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let cfg = Cfg {
        size: Size::Full,
        budget: Budget::Seconds(seconds),
        seed,
        trace,
    };

    if workload == "all" {
        let out = args
            .value("--out")
            .ok_or("--workload all needs --out PATH for the run-set file")?;
        return all_workloads(seed, seconds, out, args.value("--spans"));
    }

    let (outcome, root) = run_workload(workload, &cfg).ok_or_else(|| {
        format!(
            "unknown workload {workload:?}; known: {}, all",
            WORKLOADS.map(|(n, _)| n).join(", ")
        )
    })?;
    if args.flag("--verbose") {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        report::print_table(workload, &outcome, defs, trace);
        if trace {
            report::print_gap_table(workload, &outcome);
            report::print_attribution(workload, &outcome, root);
        }
    }
    for msg in &outcome.tally.messages {
        eprintln!("FAILED: {msg}");
    }
    if let Some(path) = args.value("--out") {
        let entry = if trace {
            report::workload_json(&outcome, Some((&outcome, root)))
        } else {
            report::workload_json(&outcome, None)
        };
        write_file(
            path,
            &run_set(seed, seconds, vec![(workload.to_string(), entry)]).render_pretty(),
        )?;
    }
    if let Some(path) = args.value("--spans") {
        write_file(path, &span::spans_to_json(&outcome.spans).render())?;
    }
    println!("{}", report::result_line(&outcome, trace));
    Ok(if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// `--smoke`: every workload end to end at the quick datasets.
    #[test]
    fn smoke_run_of_all_five_workloads() {
        let t = std::time::Instant::now();
        super::smoke().expect("smoke run is clean");
        assert!(
            t.elapsed().as_secs() < 60,
            "smoke run took {:?}",
            t.elapsed()
        );
    }
}
