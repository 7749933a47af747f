//! `--compare A.json B.json`: per (metric, workload), B's reading against
//! A's and the bound `BENCHMARK.json` fixes for the metric.
//!
//! - A metric that repeats exactly is compared for equality.
//! - A timing whose spread (IQR over median, either side) is wider than
//!   its bound, or any timing of a workload whose machine-speed canary
//!   (`workloads.reference.ms`) moved by more than [`CANARY_BOUND`], is
//!   **unresolved**: the two run sets cannot tell.
//! - Otherwise a median worse by more than the bound is **regressed**,
//!   better by more than the bound **improved**, else **unchanged**.
//!
//! Two run sets made with different seeds are not compared: the seed
//! draws the fuzz programs and the request sequence, so exact counts and
//! `compile_cold`'s work differ by design.
//!
//! The exit code is decided by the end-to-end metrics, by every metric
//! that repeats exactly, by the per-layer metrics in [`GATED`], and by
//! outputs that failed their check in B. The other per-layer metrics
//! have no bound of their own; they are judged against [`LAYER_BOUND`]
//! for display only.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, Repeat, END_TO_END, PER_LAYER};
use crate::sample::Reading;

pub const CANARY: &str = "workloads.reference.ms";
pub const CANARY_BOUND: f64 = 0.10;
pub const LAYER_BOUND: f64 = 0.10;
/// The issue's end-to-end metrics that exist on some workloads only —
/// `BENCHMARK.json` can list as end-to-end only what every workload
/// reports — so the driver does not bound them but `--compare` does:
/// `unopt_body_ms`, `opt_rel`, the batch workloads' `compile_ms`,
/// `latency_p99_ms`. (`peak_live_mb` is `exec.store.peak_live_bytes`,
/// which repeats exactly and decides for that reason.)
pub const GATED: [&str; 4] = [
    "exec.vm.body_unopt.ms",
    "workloads.opt_rel",
    "compile.cold.ms",
    "server.latency.p99_ms",
];
/// Their bound: what every end-to-end timing carries on the reference
/// box (see `baseline/REPORT.md`, table 2).
pub const GATED_BOUND: f64 = 0.25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative:
/// better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

pub fn verdict(def: &MetricDef, a: Reading, b: Reading, bound: f64, canary_moved: bool) -> Verdict {
    if a.value == b.value {
        return Verdict::Unchanged;
    }
    let worse = worsening(def.better, a.value, b.value);
    if def.repeat == Repeat::Exact {
        return if worse > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Improved
        };
    }
    let spread = |r: Reading| r.iqr / r.value.abs().max(f64::MIN_POSITIVE);
    if canary_moved || spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn reading(set: &Json, workload: &str, section: &str, metric: &str) -> Option<Reading> {
    let r = set
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?;
    Some(Reading {
        value: r.get("value")?.as_f64()?,
        iqr: r.get("iqr").and_then(Json::as_f64).unwrap_or(0.0),
        n: r.get("n").and_then(Json::as_f64).unwrap_or(1.0) as usize,
    })
}

fn bound_of(spec: &Json, metric: &str) -> Option<f64> {
    spec.get("end_to_end")?
        .as_arr()
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}

fn seed_of(set: &Json) -> Option<f64> {
    set.get("env")?.get("seed")?.as_f64()
}

/// Print the comparison; returns how many (metric, workload) pairs
/// regressed among those that decide the exit code.
pub fn compare(a: &Json, b: &Json, spec: &Json) -> Result<usize, String> {
    if seed_of(a) != seed_of(b) {
        return Err(format!(
            "the run sets were made with different seeds ({:?} and {:?})",
            seed_of(a),
            seed_of(b)
        ));
    }
    let mut regressions = 0;
    let workloads: Vec<&str> = a
        .get("workloads")
        .map(|w| w.fields().iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    for w in workloads {
        let canary_moved = match (
            reading(a, w, "per_layer", CANARY),
            reading(b, w, "per_layer", CANARY),
        ) {
            (Some(x), Some(y)) if x.value > 0.0 => {
                ((y.value - x.value) / x.value).abs() > CANARY_BOUND
            }
            _ => false,
        };
        println!(
            "== {w}{}",
            if canary_moved {
                "  (reference canary moved: timings unresolved)"
            } else {
                ""
            }
        );
        let correct = b.get("workloads").and_then(|ws| ws.get(w)?.get("correct"));
        if correct == Some(&Json::Bool(false)) {
            regressions += 1;
            println!("  outputs failed their check in the second run set: REGRESSED");
        }
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for d in defs {
                let (Some(x), Some(y)) = (
                    reading(a, w, section, d.name),
                    reading(b, w, section, d.name),
                ) else {
                    continue;
                };
                if x.value == 0.0 && y.value == 0.0 {
                    continue;
                }
                // Counts that grow with the run length say nothing
                // between two time-boxed run sets.
                if d.repeat == Repeat::ExactAtFixedWork {
                    continue;
                }
                let gated = GATED.contains(&d.name).then_some(GATED_BOUND);
                let deciding_bound = bound_of(spec, d.name).or(gated);
                let bound = deciding_bound.unwrap_or(LAYER_BOUND);
                let v = verdict(d, x, y, bound, canary_moved);
                let decides = deciding_bound.is_some() || d.repeat == Repeat::Exact;
                if v == Verdict::Regressed && decides {
                    regressions += 1;
                }
                println!(
                    "  {:<36} {:>14.4} -> {:>14.4} {:<7} {:>+8.2} %  bound {:>4.1} %  {}{}",
                    d.name,
                    x.value,
                    y.value,
                    d.unit,
                    (y.value - x.value) / x.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                    bound * 100.0,
                    v.as_str(),
                    if decides {
                        ""
                    } else {
                        "  (per-layer, informative)"
                    },
                );
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn r(value: f64, iqr: f64) -> Reading {
        Reading { value, iqr, n: 21 }
    }

    #[test]
    fn timings_are_judged_against_the_bound_in_their_own_direction() {
        let wall = find("wall_ms").unwrap();
        let rps = find("throughput_ops").unwrap();
        assert_eq!(
            verdict(wall, r(100.0, 1.0), r(103.0, 1.0), 0.06, false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(wall, r(100.0, 1.0), r(110.0, 1.0), 0.06, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(wall, r(100.0, 1.0), r(90.0, 1.0), 0.06, false),
            Verdict::Improved
        );
        assert_eq!(
            verdict(rps, r(100.0, 1.0), r(90.0, 1.0), 0.06, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(rps, r(100.0, 1.0), r(110.0, 1.0), 0.06, false),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_or_a_moved_canary_is_unresolved() {
        let wall = find("wall_ms").unwrap();
        assert_eq!(
            verdict(wall, r(100.0, 9.0), r(120.0, 1.0), 0.06, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(wall, r(100.0, 1.0), r(120.0, 15.0), 0.06, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(wall, r(100.0, 1.0), r(120.0, 1.0), 0.06, true),
            Verdict::Unresolved
        );
        // Identical readings are unchanged whatever the spread.
        assert_eq!(
            verdict(wall, r(100.0, 50.0), r(100.0, 50.0), 0.06, true),
            Verdict::Unchanged
        );
    }

    #[test]
    fn exact_counts_are_compared_for_equality() {
        let elided = find("core.circuits.elided").unwrap();
        let copied = find("exec.copy.bytes").unwrap();
        assert_eq!(
            verdict(elided, r(7.0, 0.0), r(7.0, 0.0), 0.1, true),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(elided, r(7.0, 0.0), r(6.0, 0.0), 0.1, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(copied, r(4096.0, 0.0), r(4097.0, 0.0), 0.1, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(copied, r(4096.0, 0.0), r(0.0, 0.0), 0.1, true),
            Verdict::Improved
        );
    }

    #[test]
    fn compare_counts_only_deciding_regressions() {
        let set = |wall: f64, dispatch: f64, elided: f64, p99: f64| {
            Json::parse(&format!(
                r#"{{"env":{{"seed":1}},"workloads":{{"w":{{"correct":true,
                "end_to_end":{{"wall_ms":{{"value":{wall},"iqr":0.1,"n":9}}}},
                "per_layer":{{"exec.vm.dispatch.ms":{{"value":{dispatch},"iqr":0.1,"n":9}},
                "core.circuits.elided":{{"value":{elided},"iqr":0,"n":1}},
                "server.latency.p99_ms":{{"value":{p99},"iqr":0.1,"n":9}},
                "workloads.reference.ms":{{"value":10,"iqr":0.1,"n":9}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let spec = Json::parse(r#"{"end_to_end":[{"name":"wall_ms","bound":0.06}]}"#).unwrap();
        let base = set(100.0, 5.0, 3.0, 7.0);
        assert_eq!(compare(&base, &set(101.0, 5.0, 3.0, 7.0), &spec), Ok(0));
        // A slower layer alone is informative; a slower wall, a lost
        // elision or a slower gated layer metric decides.
        assert_eq!(compare(&base, &set(101.0, 9.0, 3.0, 7.0), &spec), Ok(0));
        assert_eq!(compare(&base, &set(120.0, 5.0, 3.0, 7.0), &spec), Ok(1));
        assert_eq!(compare(&base, &set(120.0, 5.0, 2.0, 7.0), &spec), Ok(2));
        assert_eq!(compare(&base, &set(100.0, 5.0, 3.0, 9.0), &spec), Ok(1));
    }

    #[test]
    fn failed_outputs_regress_and_other_seeds_are_refused() {
        let set = |seed: u32, correct: bool| {
            Json::parse(&format!(
                r#"{{"env":{{"seed":{seed}}},"workloads":{{"w":{{"correct":{correct},
                "end_to_end":{{"wall_ms":{{"value":100,"iqr":0.1,"n":9}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let spec = Json::parse(r#"{"end_to_end":[{"name":"wall_ms","bound":0.06}]}"#).unwrap();
        assert_eq!(compare(&set(1, true), &set(1, true), &spec), Ok(0));
        assert_eq!(compare(&set(1, true), &set(1, false), &spec), Ok(1));
        assert!(compare(&set(1, true), &set(2, true), &spec).is_err());
    }
}
