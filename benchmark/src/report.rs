//! Rendering: the one-line result the driver reads, the run-set file
//! `--compare` reads, and the tables a person reads.

use crate::json::Json;
use crate::metrics::{MetricDef, Repeat, END_TO_END, PER_LAYER};
use crate::run::Outcome;
use crate::sample::Reading;
use crate::span::{self_times, Span};
use std::collections::BTreeMap;

pub fn reading_json(r: Reading, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(r.value)),
        ("iqr", Json::Num(r.iqr)),
        ("n", Json::Num(r.n as f64)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// The last line of standard output:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
/// with every end-to-end metric (untraced run) or every per-layer
/// metric (traced run).
pub fn result_line(o: &Outcome, traced: bool) -> String {
    let defs = if traced { PER_LAYER } else { END_TO_END };
    Json::obj([
        ("correct", Json::Bool(o.tally.failed == 0)),
        ("attempted", Json::Num(o.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(o.tally.failed as f64)),
        (
            "metrics",
            Json::obj(defs.iter().map(|d| {
                (
                    d.name,
                    Json::obj([
                        ("value", Json::Num(o.metrics.get(d.name).value)),
                        ("unit", Json::Str(d.unit.to_string())),
                    ]),
                )
            })),
        ),
    ])
    .render()
}

fn readings(o: &Outcome, defs: &[MetricDef]) -> Json {
    Json::obj(
        defs.iter()
            .map(|d| (d.name, reading_json(o.metrics.get(d.name), d.unit))),
    )
}

/// Self time per span name under every span called `root`, as shares
/// (percent) of those roots' total duration. The root's own entry is the
/// time no child accounts for.
pub fn attribution(spans: &[Span], root: &str) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let mut under = vec![false; spans.len()];
    let mut total = 0u64;
    let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let is_root = s.name == root;
        under[i] = is_root || s.parent.is_some_and(|p| under[p as usize]);
        if is_root {
            total += s.dur_ns();
        }
        if under[i] {
            *by_name.entry(s.name.to_string()).or_default() += selfs[i];
        }
    }
    by_name
        .into_iter()
        .map(|(k, v)| (k, v as f64 / total.max(1) as f64 * 100.0))
        .collect()
}

/// One workload's entry in a run-set file: end-to-end readings from the
/// untraced run, per-layer readings and the attribution from the traced
/// one.
pub fn workload_json(untraced: &Outcome, traced: Option<(&Outcome, &str)>) -> Json {
    let mut fields = vec![
        (
            "correct",
            Json::Bool(
                untraced.tally.failed == 0 && traced.is_none_or(|(t, _)| t.tally.failed == 0),
            ),
        ),
        ("attempted", Json::Num(untraced.tally.attempted as f64)),
        ("failed", Json::Num(untraced.tally.failed as f64)),
        ("timed_s", Json::Num(untraced.timed_s)),
        ("end_to_end", readings(untraced, END_TO_END)),
    ];
    fields.push(("rows", Json::Arr(untraced.rows.clone())));
    if let Some((t, root)) = traced {
        fields.push(("per_layer", readings(t, PER_LAYER)));
        fields.push((
            "attribution_pct",
            Json::obj(
                attribution(&t.spans, root)
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v))),
            ),
        ));
        fields.push(("spans_recorded", Json::Num(t.spans.len() as f64)));
    }
    Json::obj(fields)
}

fn fmt_reading(r: Reading, d: &MetricDef) -> String {
    match d.repeat {
        Repeat::Noisy if r.n > 1 => {
            format!(
                "{:>14.4} {:<7} iqr {:<10.4} n {}",
                r.value, d.unit, r.iqr, r.n
            )
        }
        _ => format!("{:>14.4} {:<7}", r.value, d.unit),
    }
}

/// Every metric by name with its unit and what it measures or should
/// move, for a person.
pub fn print_table(workload: &str, o: &Outcome, defs: &[MetricDef], skip_zero: bool) {
    println!(
        "== {workload}: {} outputs checked, {} failed, timed section {:.1} s",
        o.tally.attempted, o.tally.failed, o.timed_s
    );
    for d in defs {
        let r = o.metrics.get(d.name);
        if skip_zero && r.value == 0.0 {
            continue;
        }
        println!("  {:<36} {:<52} {}", d.name, fmt_reading(r, d), d.moves);
    }
    for msg in &o.tally.messages {
        println!("  FAILED: {msg}");
    }
}

/// Where the caller's wall beyond the hand-written reference goes, for
/// a batch workload, within one traced run: `io + body - reference =
/// io + dispatch + copy + (kernel - reference)`.
pub fn print_gap_table(workload: &str, o: &Outcome) {
    let g = |n: &str| o.metrics.get(n).value;
    let reference = g("workloads.reference.ms");
    if reference == 0.0 {
        return;
    }
    let wall = g("exec.io.ms") + g("body_ms");
    let gap = wall - reference;
    println!(
        "-- {workload}: optimized caller wall {wall:.2} ms - reference {reference:.2} ms = {gap:.2} ms, attributed:"
    );
    for (layer, v) in [
        ("exec.io (upload, download, release)", g("exec.io.ms")),
        (
            "exec.vm.dispatch (pc loop, alloc, views)",
            g("exec.vm.dispatch.ms"),
        ),
        ("exec.copy", g("exec.copy.ms")),
        ("exec.kernel - reference", g("exec.kernel.ms") - reference),
    ] {
        println!("  {layer:<44} {v:>10.2} ms  {:>6.1} %", v / gap * 100.0);
    }
}

pub fn print_attribution(workload: &str, o: &Outcome, root: &str) {
    let shares = attribution(&o.spans, root);
    if shares.is_empty() {
        return;
    }
    println!("-- {workload}: self time under '{root}' spans, share of their wall:");
    for (name, pct) in &shares {
        let label = if name == root {
            "(unattributed)"
        } else {
            name.as_str()
        };
        println!("  {label:<24} {pct:>7.2} %");
    }
    println!("  {:<24} {:>7.2} %", "sum", shares.values().sum::<f64>());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::run::Tally;

    fn outcome() -> Outcome {
        let mut metrics = Metrics::default();
        metrics.set("wall_ms", Reading::of(&[1.0, 2.0, 4.0]));
        Outcome {
            metrics,
            tally: Tally {
                attempted: 7,
                failed: 0,
                messages: vec![],
            },
            rows: vec![],
            spans: vec![],
            timed_s: 1.5,
        }
    }

    /// Brace balance, the contract's four keys, every name well-formed
    /// and listed in BENCHMARK.json, every value finite.
    #[test]
    fn result_line_meets_the_contract() {
        let spec = crate::metrics::spec();
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = result_line(&outcome(), traced);
            assert!(!line.contains('\n'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            let v = Json::parse(&line).expect("parses");
            let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let listed: Vec<&str> = spec
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap())
                .collect();
            let printed: Vec<&str> = v
                .get("metrics")
                .unwrap()
                .fields()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(printed, listed);
            for (name, m) in v.get("metrics").unwrap().fields() {
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
                assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
                assert!(m.get("unit").and_then(Json::as_str).is_some());
            }
        }
    }

    #[test]
    fn attribution_groups_self_time_by_name_under_the_root() {
        let span = |id, parent, name: &str, start, end| Span {
            id,
            parent,
            name: name.to_string().into(),
            start_ns: start,
            end_ns: end,
            synthetic: false,
        };
        let spans = vec![
            span(0, None, "program", 0, 200),
            span(1, Some(0), "opt", 0, 100),
            span(2, Some(1), "compile", 0, 20),
            span(3, Some(1), "run", 20, 98),
            span(4, Some(3), "body", 20, 80),
            span(5, Some(0), "unopt", 100, 200),
            span(6, Some(5), "run", 100, 200),
        ];
        let a = attribution(&spans, "opt");
        assert_eq!(a["compile"], 20.0);
        assert_eq!(a["body"], 60.0);
        assert_eq!(a["run"], 18.0);
        assert_eq!(a["opt"], 2.0);
        assert!((a.values().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!(!a.contains_key("unopt"));
    }
}
