//! What every workload runner takes and returns.

use crate::catalog::Size;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::sample::Reading;
use crate::span::Span;
use arraymem_exec::OutputValue;
use std::time::{Duration, Instant};

/// How long the timed section runs.
///
/// A run is a sequence of **epochs**: a fresh set-up (timed: one
/// `setup_s` sample), then a fixed number of timed rounds against what
/// it built, which is dropped at the epoch's end. The age of every
/// session, cache and store a sample sees is therefore the same however
/// long the run measures — at this commit a `Session` parks one
/// input-sized block per run and caller wall climbs with resident size
/// (see `baseline/REPORT.md`), so a reading without a fixed age would
/// drift with the run length.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Epochs until the timed rounds add up to this many seconds (never
    /// fewer than [`MIN_EPOCHS`]).
    Seconds(f64),
    /// One epoch of a fixed amount of work, so counts repeat exactly:
    /// `--check` and `--smoke`.
    Fixed {
        rounds: usize,
        requests_per_client: usize,
    },
}

/// `setup_s` is the median of at least this many set-ups.
const MIN_EPOCHS: usize = 3;
/// Timed rounds per epoch of a time-boxed batch run, after the set-up's
/// two discarded warm-ups.
pub const ROUNDS_PER_EPOCH: usize = 4;

/// Whether a traced run records spans in this round (or, for a server
/// client, this request) of this epoch. Traced and untraced alternate,
/// and the parity flips from one epoch to the next, so neither side is
/// always the older session: at this commit wall rises with session age.
pub fn traced_round(epoch: usize, round: usize) -> bool {
    (epoch + round).is_multiple_of(2)
}

#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub size: Size,
    pub budget: Budget,
    pub seed: u64,
    /// Record spans on alternate rounds and run the probes and the
    /// checked / parallel legs after the timed section.
    pub trace: bool,
}

impl Cfg {
    /// Rounds in one epoch: the workload's own count when time-boxed.
    pub fn rounds_per_epoch(&self, time_boxed: usize) -> usize {
        match self.budget {
            Budget::Seconds(_) => time_boxed,
            Budget::Fixed { rounds, .. } => rounds,
        }
    }
}

/// The epochs of one run: set-up times, the timed sections' total, and
/// each epoch's (operations, seconds of caller time).
#[derive(Default)]
pub struct Epochs {
    setup_s: Vec<f64>,
    pub timed: Duration,
    work: Vec<(usize, f64)>,
}

impl Epochs {
    /// Whether another epoch should start.
    pub fn more(&self, cfg: &Cfg) -> bool {
        match cfg.budget {
            Budget::Seconds(s) => self.work.len() < MIN_EPOCHS || self.timed.as_secs_f64() < s,
            Budget::Fixed { .. } => self.work.is_empty(),
        }
    }

    /// Epochs completed so far.
    pub fn done(&self) -> usize {
        self.work.len()
    }

    /// Run and time one set-up.
    pub fn set_up<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let built = build();
        self.setup_s.push(t.elapsed().as_secs_f64());
        built
    }

    /// Close an epoch whose timed section took `took` and completed
    /// `ops` operations in `caller_s` seconds of caller time.
    pub fn close(&mut self, took: Duration, ops: usize, caller_s: f64) {
        self.timed += took;
        self.work.push((ops, caller_s));
    }

    /// `setup_s`, `throughput_ops` and `peak_rss_mb`. Throughput is
    /// operations per second of caller time in each epoch, then the
    /// median over the epochs, so one disturbed epoch does not move it.
    pub fn emit(&self, m: &mut Metrics) {
        m.set("setup_s", Reading::of(&self.setup_s));
        let per_epoch: Vec<f64> = self
            .work
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .map(|(ops, s)| *ops as f64 / s)
            .collect();
        m.set("throughput_ops", Reading::of(&per_epoch));
        m.exact("peak_rss_mb", peak_rss_mb());
    }
}

/// Outputs checked against their oracle, and how many failed.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub messages: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// One row per program or request class, for the output file.
    pub rows: Vec<Json>,
    pub spans: Vec<Span>,
    /// Wall of the timed section, seconds.
    pub timed_s: f64,
}

/// High-water resident set of this process in MB (`VmHWM`); 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether a program's outputs equal its oracle's, value by value,
/// within the case's relative tolerance.
pub fn outputs_match(expect: &[OutputValue], got: &[OutputValue], tol: f64) -> bool {
    expect.len() == got.len() && expect.iter().zip(got).all(|(e, g)| e.approx_eq(g, tol))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
