//! The common benchmark-case shape and measurement helpers.

use arraymem_core::{compile, Compiled, Options, PassRun};
use arraymem_exec::{InputValue, KernelRegistry, Mode, OutputValue, PlanStats, Session, Stats};
use arraymem_ir::Program;
use arraymem_symbolic::Env;
use std::time::Duration;

/// Runs the reference implementation over the same inputs, returning the
/// time spent in its core computation (excluding input cloning) and its
/// outputs (for validation).
pub type RefFn = Box<dyn Fn(&[InputValue]) -> (Duration, Vec<OutputValue>)>;

/// Iteration scale shared by the fuzzers and property tests: the default
/// keeps CI fast; `ARRAYMEM_SLOW=1` opts into the deeper sweep.
pub fn scale(fast: usize, slow: usize) -> usize {
    match std::env::var("ARRAYMEM_SLOW") {
        Ok(v) if v == "1" => slow,
        _ => fast,
    }
}

/// One benchmark × dataset instance.
pub struct Case {
    /// Benchmark name, e.g. `"nw"`.
    pub name: String,
    /// Dataset label as printed in the table, e.g. `"2048"`.
    pub dataset: String,
    pub program: Program,
    pub env: Env,
    pub inputs: Vec<InputValue>,
    pub kernels: KernelRegistry,
    pub reference: RefFn,
    /// Measurement repetitions (scaled from the paper's run counts).
    pub runs: usize,
    /// Relative tolerance for output validation.
    pub tol: f64,
}

impl Case {
    pub fn compile(&self, short_circuit: bool) -> Compiled {
        let base = if short_circuit {
            Options::optimized()
        } else {
            Options::default()
        };
        compile(&self.program, &base.with_env(self.env.clone()))
            .unwrap_or_else(|e| panic!("{}/{}: compile failed: {e}", self.name, self.dataset))
    }

    /// Run a compiled variant once in a fresh session.
    pub fn run(&self, compiled: &Compiled) -> (Vec<OutputValue>, Stats) {
        self.run_in(&mut Session::new(), compiled)
    }

    /// Run a compiled variant in an existing session, so this run's
    /// allocations recycle blocks released by earlier runs and the plan
    /// is lowered once, on the session's first `prepare`, then replayed
    /// from the cache.
    pub fn run_in(&self, session: &mut Session, compiled: &Compiled) -> (Vec<OutputValue>, Stats) {
        self.run_in_at(session, compiled, arraymem_exec::pool::default_threads())
    }

    /// [`run_in`](Case::run_in) at an explicit thread count — the
    /// thread-invariance tests sweep this over one session.
    pub fn run_in_at(
        &self,
        session: &mut Session,
        compiled: &Compiled,
        threads: usize,
    ) -> (Vec<OutputValue>, Stats) {
        let h = session
            .prepare_full(
                &compiled.program,
                &self.kernels,
                &[],
                &compiled.report.merges,
                &compiled.report.par_safety,
            )
            .unwrap_or_else(|e| panic!("{}/{}: prepare failed: {e}", self.name, self.dataset));
        session
            .run_plan(h, &self.inputs, &self.kernels, Mode::Memory, threads)
            .unwrap_or_else(|e| panic!("{}/{}: run failed: {e}", self.name, self.dataset))
    }

    /// Validate all three versions against each other. Returns the unopt
    /// and opt stats for mechanism assertions.
    pub fn validate(&self) -> (Stats, Stats) {
        let unopt = self.compile(false);
        let opt = self.compile(true);
        let (_, expect) = (self.reference)(&self.inputs);
        let (u_out, u_stats) = self.run(&unopt);
        let (o_out, o_stats) = self.run(&opt);
        assert_eq!(
            expect.len(),
            u_out.len(),
            "{}: arity mismatch vs reference",
            self.name
        );
        for (k, ((e, u), o)) in expect.iter().zip(&u_out).zip(&o_out).enumerate() {
            assert!(
                e.approx_eq(u, self.tol),
                "{}/{}: unopt output {k} differs from reference",
                self.name,
                self.dataset
            );
            assert!(
                e.approx_eq(o, self.tol),
                "{}/{}: opt output {k} differs from reference",
                self.name,
                self.dataset
            );
        }
        (u_stats, o_stats)
    }

    /// Run a compiled variant under [`Mode::Checked`] in an existing
    /// session, cross-checking every short-circuit decision the compile
    /// report recorded. Returns outputs plus the sanitizer's stats.
    pub fn run_checked_in(
        &self,
        session: &mut Session,
        compiled: &Compiled,
    ) -> (Vec<OutputValue>, Stats) {
        self.run_checked_in_at(session, compiled, arraymem_exec::pool::default_threads())
    }

    /// [`run_checked_in`](Case::run_checked_in) at an explicit thread
    /// count. `par_safety`-proven maps run parallel under the sanitizer
    /// (after the concrete pre-dispatch re-proof); unproven maps still
    /// serialize regardless of `threads`.
    pub fn run_checked_in_at(
        &self,
        session: &mut Session,
        compiled: &Compiled,
        threads: usize,
    ) -> (Vec<OutputValue>, Stats) {
        let checks: Vec<_> = compiled.report.checks().cloned().collect();
        let h = session
            .prepare_full(
                &compiled.program,
                &self.kernels,
                &checks,
                &compiled.report.merges,
                &compiled.report.par_safety,
            )
            .unwrap_or_else(|e| panic!("{}/{}: prepare failed: {e}", self.name, self.dataset));
        session
            .run_plan(h, &self.inputs, &self.kernels, Mode::Checked, threads)
            .unwrap_or_else(|e| panic!("{}/{}: checked run failed: {e}", self.name, self.dataset))
    }

    /// Compile with short-circuiting and run **twice** in one session
    /// under the sanitizer — the second run recycles the first run's
    /// released blocks, so its allocations carry stale contents and the
    /// zero-fill-elision obligation is actually exercised. Outputs of both
    /// runs are validated against the reference; the second run's stats
    /// (with any diagnostics) are returned.
    pub fn validate_checked(&self) -> Stats {
        let opt = self.compile(true);
        let (_, expect) = (self.reference)(&self.inputs);
        let mut session = Session::new();
        let mut last = None;
        for round in 0..2 {
            let (out, stats) = self.run_checked_in(&mut session, &opt);
            for (k, (e, o)) in expect.iter().zip(&out).enumerate() {
                assert!(
                    e.approx_eq(o, self.tol),
                    "{}/{}: checked-mode output {k} differs from reference (round {round})",
                    self.name,
                    self.dataset
                );
            }
            last = Some(stats);
        }
        last.expect("two checked rounds ran")
    }
}

/// A measured table row: reference time plus the two Futhark-style
/// variants, reported the way the paper's tables do. Each time is the
/// median over the measured rounds.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub name: String,
    pub dataset: String,
    pub reference: Duration,
    pub unopt: Duration,
    pub opt: Duration,
    /// Each measured round's unopt time / opt time.
    pub round_impacts: Vec<f64>,
    pub unopt_stats: Stats,
    pub opt_stats: Stats,
    /// Plan-cache accounting of the unoptimized variant's session: one
    /// build, then a cache hit per repeated run.
    pub unopt_plan: PlanStats,
    pub opt_plan: PlanStats,
    /// Per-stage pipeline timings of each variant's compile (from
    /// [`arraymem_core::CompileReport`]), for the mechanism tables.
    pub unopt_passes: Vec<PassRun>,
    pub opt_passes: Vec<PassRun>,
}

impl Measurement {
    /// Speed of the unoptimized compiler output relative to the reference
    /// (`>1` = faster than reference), as in the paper's "Unopt. Futhark"
    /// column.
    pub fn unopt_rel(&self) -> f64 {
        self.reference.as_secs_f64() / self.unopt.as_secs_f64()
    }

    pub fn opt_rel(&self) -> f64 {
        self.reference.as_secs_f64() / self.opt.as_secs_f64()
    }

    /// The paper's "Opt. Impact" column: the median of the rounds'
    /// unopt time / opt time, so drift between rounds cancels.
    pub fn impact(&self) -> f64 {
        median(self.round_impacts.iter().copied())
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    match v.len() % 2 {
        0 => (v[m - 1] + v[m]) / 2.0,
        _ => v[m],
    }
}

/// Measure one case: reference vs unopt vs opt, interleaved. Paper
/// methodology runs each a number of times, "always discarding the first
/// run": here a round runs the reference, then the unoptimized variant,
/// then the optimized one, and the first round is discarded, so drift
/// on the machine lands on all three columns alike. Each sample is the
/// program-body execution time (input upload and result download are
/// excluded, as GPU benchmarks exclude host transfers). Each compiled
/// variant runs inside one persistent [`Session`], the way a GPU
/// benchmark reuses one device context: after the warm-up round, every
/// run's allocations are served from the blocks the previous run
/// released. The reported stats are those of the final (steady-state)
/// run.
pub fn measure_case(case: &Case) -> Measurement {
    let variants = [case.compile(false), case.compile(true)];
    let mut sessions = [Session::new(), Session::new()];
    let mut last_stats = [None, None];
    let rounds = case.runs.max(1);
    let mut samples: Vec<[f64; 3]> = Vec::with_capacity(rounds);
    for round in 0..=rounds {
        let (t, out) = (case.reference)(&case.inputs);
        std::hint::black_box(out);
        let mut sample = [t.as_secs_f64(), 0.0, 0.0];
        for (k, compiled) in variants.iter().enumerate() {
            let (out, stats) = case.run_in(&mut sessions[k], compiled);
            std::hint::black_box(out);
            sample[k + 1] = stats.total_time.as_secs_f64();
            last_stats[k] = Some(stats);
        }
        if round > 0 {
            samples.push(sample);
        }
    }
    // The whole point of `prepare`: one lowering per variant, every
    // repeated run (warm-up included) served from the cache.
    let [unopt_plan, opt_plan] = sessions.each_ref().map(|s| s.plan_stats());
    for plan in [unopt_plan, opt_plan] {
        assert_eq!(
            (plan.builds, plan.cache_hits),
            (1, rounds as u64),
            "{}/{}: plan cache missed on a repeated run",
            case.name,
            case.dataset
        );
    }
    let column = |k: usize| Duration::from_secs_f64(median(samples.iter().map(|s| s[k])));
    let [unopt_stats, opt_stats] = last_stats.map(|s| s.expect("at least one measured run"));
    let [unopt, opt] = variants;
    Measurement {
        name: case.name.clone(),
        dataset: case.dataset.clone(),
        reference: column(0),
        unopt: column(1),
        opt: column(2),
        round_impacts: samples.iter().map(|s| s[1] / s[2]).collect(),
        unopt_stats,
        opt_stats,
        unopt_plan,
        opt_plan,
        unopt_passes: unopt.compile_report.passes,
        opt_passes: opt.compile_report.passes,
    }
}
