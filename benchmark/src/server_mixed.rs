//! `server_mixed`: a closed loop of `nproc` client threads against one
//! `Server` (`max_in_flight = nproc`, `queue_depth = 64`, VM threads 1).
//! Client *c* alternates between tenants *c* and *c + 2* (two requests
//! each, so both see traced and untraced requests), so four tenants
//! share the plan cache and the arena. 98 % of requests draw a
//! quick-dataset case of the ten workload programs by fixed weight with
//! the seeded generator (warm plan); 2 % present a fuzz program nobody
//! has seen, which the client must `compile` first (cold plan). A
//! client sends its next request only when the previous one returned.
//!
//! Latency is client-side: compile-if-new + `Server::execute`. With 2 %
//! cold requests costing a multiple of any warm one, p50 is a typical
//! warm request and p99 a typical cold one. Responses are validated on
//! first sight per (tenant, program) and every 64th after — a workload
//! program against its hand-written reference, a fuzz program against
//! `Mode::Pure` on its un-compiled source IR.

use crate::catalog::{fuzz_program, mix, Size, ALL_TEN};
use crate::envinfo::nproc;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::run::{outputs_match, traced_round, us, Budget, Cfg, Epochs, Outcome, Tally};
use crate::sample::{iqr, median, percentile, Reading};
use crate::span::Tracer;
use arraymem_core::{compile, Compiled, Options};
use arraymem_exec::{run_program, InputValue, KernelRegistry, Mode, OutputValue, PlanCache, Stats};
use arraymem_server::{ExecRequest, Server, ServerConfig};
use arraymem_symbolic::Rng64;
use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
const COLD_SHARE: f64 = 0.02;
/// Ops per cold fuzz trace: sized so a cold request (compile + lower +
/// run) costs at least twice the slowest warm class.
const COLD_OPS: usize = 64;
const VALIDATE_EVERY: u64 = 64;
/// Requests each client sends to one server before the epoch ends and a
/// fresh server replaces it (time-boxed runs): the tenant stores and the
/// arena grow with every request at this commit, so a fixed server age
/// keeps latency and resident size independent of the run length.
const REQUESTS_PER_EPOCH: usize = 2000;
/// Draw weights of the ten warm classes, in `ALL_TEN` order (percent).
/// Sorted by latency the classes below `nn` add up to 40 % and `nn`
/// itself holds 20 %, so the median request sits in the middle of one
/// class and p50 does not hop between classes from run to run.
const WEIGHTS: [u32; 10] = [4, 4, 8, 8, 16, 16, 20, 8, 8, 8];
/// Consecutive slices of a run whose medians give the spread of a
/// percentile.
const SLICES: usize = 8;
const COLD_CLASS: u8 = ALL_TEN.len() as u8;

struct Served {
    name: String,
    compiled: Compiled,
    kernels: KernelRegistry,
    inputs: Vec<InputValue>,
    expect: Vec<OutputValue>,
    tol: f64,
}

struct Sample {
    class: u8,
    /// Whether the request recorded spans.
    traced: bool,
    latency_us: f64,
    body_us: f64,
}

struct ClientLog {
    samples: Vec<Sample>,
    tally: Tally,
    tracer: Tracer,
    cold_keys: Vec<u64>,
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

/// Build the served set and a server, and let every tenant run every
/// program once (validated): afterwards each warm plan is cached and
/// each tenant's store holds recycled blocks.
fn set_up(tally: &mut Tally) -> (Vec<Served>, Server) {
    let served: Vec<Served> = ALL_TEN
        .iter()
        .map(|spec| {
            let case = (spec.build)(Size::Quick);
            let (_, expect) = (case.reference)(&case.inputs);
            Served {
                name: format!("{}/{}", case.name, case.dataset),
                compiled: case.compile(true),
                kernels: case.kernels.clone(),
                inputs: case.inputs.clone(),
                expect,
                tol: case.tol,
            }
        })
        .collect();
    let server = Server::new(ServerConfig {
        max_in_flight: nproc(),
        queue_depth: 64,
        threads: 1,
        ..ServerConfig::default()
    });
    for t in 0..TENANTS {
        for s in &served {
            let req =
                ExecRequest::from_compiled(&s.compiled, &s.kernels, &[], &s.inputs, Mode::Memory);
            let got = server.execute(&tenant_name(t), req);
            tally.check(
                got.as_ref()
                    .is_ok_and(|(out, _)| outputs_match(&s.expect, out, s.tol)),
                || {
                    format!(
                        "{} @ tenant-{t}: warm-up response wrong: {:?}",
                        s.name,
                        got.as_ref().err()
                    )
                },
            );
        }
    }
    (served, server)
}

fn draw_class(rng: &mut Rng64) -> usize {
    let total: u32 = WEIGHTS.iter().sum();
    let mut x = rng.usize_in(total as usize) as u32;
    WEIGHTS
        .iter()
        .position(|w| {
            if x < *w {
                true
            } else {
                x -= w;
                false
            }
        })
        .expect("draw below the weight total")
}

/// One client's closed loop for one epoch. The (epoch, client) pair
/// seeds the request sequence and the cold programs, so no two loops of
/// a run present the same ones.
#[allow(clippy::too_many_arguments)]
fn client(
    c: usize,
    epoch_no: usize,
    cfg: &Cfg,
    served: &[Served],
    server: &Server,
    start: &Barrier,
    epoch: Instant,
) -> ClientLog {
    let stream = (epoch_no * nproc() + c) as u64;
    let mut rng = Rng64::new(mix(cfg.seed, 0xC11E_0000 + stream));
    let tenants = [tenant_name(c % TENANTS), tenant_name((c + 2) % TENANTS)];
    let no_kernels = KernelRegistry::new();
    let mut log = ClientLog {
        samples: Vec::new(),
        tally: Tally::default(),
        tracer: Tracer::new(epoch),
        cold_keys: Vec::new(),
    };
    // Requests seen per (tenant slot, class): validation happens on the
    // first and every VALIDATE_EVERY-th after.
    let mut seen = [[0u64; ALL_TEN.len()]; 2];
    let mut cold_drawn = 0u64;
    start.wait();
    let requests = match cfg.budget {
        Budget::Seconds(_) => REQUESTS_PER_EPOCH,
        Budget::Fixed {
            requests_per_client,
            ..
        } => requests_per_client,
    };
    for i in 0..requests {
        let traced = cfg.trace && traced_round(epoch_no, i);
        log.tracer.on = traced;
        let slot = i / 2 % 2;
        let tenant = &tenants[slot];
        let cold = rng.chance(COLD_SHARE);
        let class = draw_class(&mut rng);
        let tr = &mut log.tracer;
        if cold {
            // Think time, outside the latency: make the program and its
            // oracle.
            let program = fuzz_program(mix(cfg.seed, 0xC01D_0000 + stream), cold_drawn, COLD_OPS);
            cold_drawn += 1;
            let oracle = run_program(&program, &[], &no_kernels, Mode::Pure, 1);
            let sp_req = tr.open("request");
            let t0 = Instant::now();
            let sp = tr.open("compile");
            let compiled = compile(&program, &Options::optimized());
            tr.close(sp);
            let result = compiled.as_ref().map_err(|e| e.to_string()).and_then(|cd| {
                let sp = tr.open("execute");
                let r = server
                    .execute(
                        tenant,
                        ExecRequest::from_compiled(cd, &no_kernels, &[], &[], Mode::Memory),
                    )
                    .map_err(|e| e.to_string());
                tr.close(sp);
                if let Ok((_, stats)) = &r {
                    split_execute(tr, sp, stats);
                }
                r
            });
            let latency = t0.elapsed();
            tr.close(sp_req);
            match (&result, &oracle) {
                (Ok((out, stats)), Ok((expect, _))) => {
                    log.tally.check(out == expect, || {
                        format!("client {c}: cold program {cold_drawn} differs from Mode::Pure")
                    });
                    log.samples.push(Sample {
                        class: COLD_CLASS,
                        traced,
                        latency_us: us(latency),
                        body_us: us(stats.total_time),
                    });
                    let cd = compiled.as_ref().expect("executed, so compiled");
                    log.cold_keys.push(PlanCache::key(
                        &cd.program,
                        &no_kernels,
                        &[],
                        &cd.report.merges,
                        &cd.report.par_safety,
                    ));
                }
                _ => {
                    log.tally.check(false, || {
                        format!(
                            "client {c}: cold request failed: {:?} / oracle {:?}",
                            result.as_ref().err(),
                            oracle.as_ref().err()
                        )
                    });
                }
            }
        } else {
            let s = &served[class];
            let sp_req = tr.open("request");
            let t0 = Instant::now();
            let sp = tr.open("execute");
            let result = server.execute(
                tenant,
                ExecRequest::from_compiled(&s.compiled, &s.kernels, &[], &s.inputs, Mode::Memory),
            );
            tr.close(sp);
            let latency = t0.elapsed();
            if let Ok((_, stats)) = &result {
                split_execute(tr, sp, stats);
            }
            tr.close(sp_req);
            match result {
                Ok((out, stats)) => {
                    let nth = seen[slot][class];
                    seen[slot][class] += 1;
                    if nth % VALIDATE_EVERY == 0 {
                        log.tally.check(outputs_match(&s.expect, &out, s.tol), || {
                            format!(
                                "client {c}: {} @ {tenant} differs from the reference",
                                s.name
                            )
                        });
                    } else {
                        log.tally.attempted += 1; // completed, not re-validated
                    }
                    log.samples.push(Sample {
                        class: class as u8,
                        traced,
                        latency_us: us(latency),
                        body_us: us(stats.total_time),
                    });
                }
                Err(e) => {
                    log.tally.check(false, || {
                        format!("client {c}: {} @ {tenant} failed: {e}", s.name)
                    });
                }
            }
        }
    }
    log.tracer.on = false;
    log
}

/// `execute → {overhead, body}` from the returned `Stats`.
fn split_execute(tr: &mut Tracer, execute: Option<u32>, stats: &Stats) {
    let Some(id) = execute else { return };
    let wall = tr.spans()[id as usize].dur_ns();
    let body = stats.total_time.as_nanos() as u64;
    tr.synthetic(execute, "overhead", wall.saturating_sub(body));
    tr.synthetic(execute, "body", body);
}

/// A percentile over all samples, with the spread of the same
/// percentile over consecutive slices of the run.
fn sliced(
    logs: &[ClientLog],
    pick: impl Fn(&Sample) -> Option<f64>,
    stat: impl Fn(&[f64]) -> f64,
) -> Reading {
    let all: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.samples.iter().filter_map(&pick))
        .collect();
    if all.is_empty() {
        return Reading::exact(0.0);
    }
    let per_slice: Vec<f64> = (0..SLICES)
        .filter_map(|k| {
            let part: Vec<f64> = logs
                .iter()
                .flat_map(|l| {
                    let n = l.samples.len();
                    l.samples[k * n / SLICES..(k + 1) * n / SLICES]
                        .iter()
                        .filter_map(&pick)
                })
                .collect();
            (!part.is_empty()).then(|| stat(&part))
        })
        .collect();
    Reading {
        value: stat(&all),
        iqr: iqr(&per_slice),
        n: all.len(),
    }
}

/// Server-side counters, summed over the epochs (peaks: the highest).
#[derive(Default)]
struct Counters {
    admitted: u64,
    rejected: u64,
    queued: u64,
    peak_in_flight: usize,
    peak_queue_depth: usize,
    queue_wait: Duration,
    builds: u64,
    hits: u64,
    coalesced: u64,
    adopted_same: u64,
    adopted_cross: u64,
    bytes_scrubbed: u64,
    arena_peak: u64,
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut tally = Tally::default();
    let mut logs: Vec<ClientLog> = Vec::new();
    let mut n = Counters::default();
    let mut class_names = Vec::new();
    let clients = nproc();
    let epoch = Instant::now();
    let mut epochs = Epochs::default();
    while epochs.more(cfg) {
        let (served, server) = epochs.set_up(|| set_up(&mut tally));
        let warm_up_builds = server.plan_stats().builds;
        let warm_up = server.admission_metrics();

        let start = Barrier::new(clients + 1);
        let (epoch_logs, took): (Vec<ClientLog>, Duration) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (served, server, start) = (&served, &server, &start);
                    let epoch_no = epochs.done();
                    scope.spawn(move || client(c, epoch_no, cfg, served, server, start, epoch))
                })
                .collect();
            start.wait();
            let t = Instant::now();
            let logs = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (logs, t.elapsed())
        });
        let completed = epoch_logs.iter().map(|l| l.samples.len()).sum();
        epochs.close(took, completed, took.as_secs_f64());

        let adm = server.admission_metrics();
        let plans = server.plan_stats();
        let arena = server.arena_stats();
        n.admitted += adm.admitted - warm_up.admitted;
        n.rejected += adm.rejected;
        n.queued += adm.queued - warm_up.queued;
        n.peak_in_flight = n.peak_in_flight.max(adm.peak_in_flight);
        n.peak_queue_depth = n.peak_queue_depth.max(adm.peak_queue_depth);
        n.queue_wait += adm.total_queue_wait - warm_up.total_queue_wait;
        n.builds += plans.builds;
        n.hits += plans.cache_hits;
        n.coalesced += plans.stampedes_coalesced;
        n.adopted_same += arena.adopted_same_tenant;
        n.adopted_cross += arena.adopted_cross_tenant;
        n.bytes_scrubbed += server.global_stats().stats.bytes_cross_tenant_scrubbed;
        n.arena_peak = n.arena_peak.max(arena.peak_bytes_live);
        tally.check(adm.rejected == 0, || {
            format!("{} requests were turned away (Overloaded)", adm.rejected)
        });
        let cold_keys: BTreeSet<u64> = epoch_logs
            .iter()
            .flat_map(|l| l.cold_keys.iter().copied())
            .collect();
        let distinct = warm_up_builds + cold_keys.len() as u64;
        tally.check(plans.builds == distinct, || {
            format!(
                "server lowered {} plans for {distinct} distinct keys issued",
                plans.builds
            )
        });
        class_names = served.iter().map(|s| s.name.clone()).collect();
        logs.extend(epoch_logs);
    }

    let mut m = Metrics::default();
    let mut tracer = Tracer::new(epoch);
    let completed: usize = logs.iter().map(|l| l.samples.len()).sum();

    let any = |s: &Sample| Some(s.latency_us / 1e3);
    let p50 = sliced(&logs, any, median);
    let p99 = sliced(&logs, any, |v| percentile(v, 0.99));
    let body = sliced(&logs, |s| Some(s.body_us / 1e3), median);
    epochs.emit(&mut m);
    m.set("wall_ms", p50);
    m.set("body_ms", body);

    m.set("server.latency.p99_ms", p99);
    let warm = |s: &Sample| (s.class != COLD_CLASS).then_some(s.latency_us);
    let cold = |s: &Sample| (s.class == COLD_CLASS).then_some(s.latency_us);
    m.set("server.latency_warm.p50_us", sliced(&logs, warm, median));
    m.set("server.latency_cold.p50_us", sliced(&logs, cold, median));
    m.set(
        "server.request.overhead.us",
        sliced(
            &logs,
            |s| (s.class != COLD_CLASS).then_some(s.latency_us - s.body_us),
            median,
        ),
    );
    let warm_median = |traced: bool| {
        let v: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.samples.iter())
            .filter(|s| s.traced == traced && s.class != COLD_CLASS)
            .map(|s| s.latency_us)
            .collect();
        median(&v)
    };
    let (traced, untraced) = (warm_median(true), warm_median(false));
    let overhead = (untraced > 0.0).then(|| (traced - untraced) / untraced * 100.0);

    let mut rows = Vec::new();
    for class in 0..=COLD_CLASS {
        let lat: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.samples.iter())
            .filter(|s| s.class == class)
            .map(|s| s.latency_us)
            .collect();
        let name = class_names
            .get(class as usize)
            .map_or("cold:fuzz", |s| s.as_str());
        rows.push(Json::obj([
            ("class", Json::Str(name.to_string())),
            ("requests", Json::Num(lat.len() as f64)),
            (
                "latency_us",
                crate::report::reading_json(Reading::of(&lat), "us"),
            ),
        ]));
    }

    for log in logs {
        tally.absorb(log.tally);
        tracer.absorb(log.tracer);
    }
    if cfg.trace {
        crate::cold::emit_trace(&mut m, &tracer, "request", overhead, completed);
    }

    m.exact("server.admitted", n.admitted as f64);
    m.exact("server.rejected", n.rejected as f64);
    m.exact("server.queued", n.queued as f64);
    m.exact("server.peak_in_flight", n.peak_in_flight as f64);
    m.exact("server.peak_queue_depth", n.peak_queue_depth as f64);
    m.set(
        "server.queue_wait.avg_us",
        Reading::exact(if n.queued == 0 {
            0.0
        } else {
            us(n.queue_wait) / n.queued as f64
        }),
    );
    m.exact("server.plan.builds", n.builds as f64);
    m.exact("server.plan.hits", n.hits as f64);
    m.exact("server.plan.coalesced", n.coalesced as f64);
    m.exact("server.arena.adopted_same", n.adopted_same as f64);
    m.exact("server.arena.adopted_cross", n.adopted_cross as f64);
    m.exact("server.arena.bytes_scrubbed", n.bytes_scrubbed as f64);
    m.exact("server.arena.peak_live_bytes", n.arena_peak as f64);

    Outcome {
        metrics: m,
        tally,
        rows,
        spans: tracer.spans().to_vec(),
        timed_s: epochs.timed.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_draw_follows_the_weights() {
        let mut rng = Rng64::new(9);
        let mut hits = [0u32; 10];
        for _ in 0..20_000 {
            hits[draw_class(&mut rng)] += 1;
        }
        let total: u32 = WEIGHTS.iter().sum();
        for (h, w) in hits.iter().zip(WEIGHTS) {
            let expect = 20_000.0 * w as f64 / total as f64;
            assert!((*h as f64 - expect).abs() < expect * 0.15, "{hits:?}");
        }
    }
}
