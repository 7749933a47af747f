//! The differential oracle: one program, every semantics.
//!
//! [`run_all_modes`] executes six legs and reports the first divergence
//! as an `Err` (rather than panicking) so the minimizer can use it as a
//! predicate. Every compiled leg is prepared with its compile's own
//! records, so it executes the plan production executes:
//!
//! 1. pure value semantics on the source program;
//! 2. the unoptimized compile under `Mode::Memory`;
//! 3. the fully optimized compile under `Mode::Memory`;
//! 4. the optimized compile under `Mode::Checked` in a caller-shared
//!    session (so corpus replay recycles blocks across programs), with
//!    the sanitizer required to stay silent;
//! 5. a thread sweep (1 and 8 workers) of the optimized program through
//!    a second shared session — work-stealing dispatch must be
//!    bit-identical to serial execution;
//! 6. a multi-tenant leg: two tenants run the optimized program
//!    *concurrently* through one process-shared [`Server`] (one in
//!    `Memory` mode, one in `Checked`), so corpus replay exercises the
//!    sharded plan cache, stampede coalescing, and each tenant store's
//!    recycling across every seed — both tenants must reproduce the
//!    single-tenant oracle bit-for-bit, with the sanitizer silent.

use crate::gen::GenOp;
use arraymem_core::{compile, CircuitCheck, CompileReport, Compiled, Options};
use arraymem_exec::{run_program, KernelRegistry, Mode, OutputValue, Session, Stats};
use arraymem_ir::Program;
use arraymem_server::{ExecRequest, Server, ServerConfig};
use std::sync::OnceLock;

/// Everything a caller might want to assert on after a clean run.
pub struct DiffReport {
    pub pure_out: Vec<OutputValue>,
    pub unopt_copied: u64,
    pub opt_copied: u64,
    /// The optimized compile's per-pass report (the coverage signal).
    pub opt_report: CompileReport,
    /// Stats of the checked-mode leg (diagnostics guaranteed empty).
    pub checked_stats: Stats,
    /// Stats of the optimized `Mode::Memory` leg.
    pub opt_stats: Stats,
}

fn differ(a: &[OutputValue], b: &[OutputValue]) -> bool {
    a != b
}

/// The process-wide server every fuzz run's multi-tenant leg goes
/// through: sharing it across seeds means tenant stores keep recycling
/// blocks from *earlier programs* — exactly the cross-program
/// contamination surface the leg exists to test.
fn shared_server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        Server::new(ServerConfig {
            cache_shards: 4,
            max_in_flight: 2,
            queue_depth: 8,
            threads: 1,
        })
    })
}

/// Prepare a compile's program with the compile's own records (plus
/// `checks` for a checked-mode leg) and run it once in `session`.
fn run_compiled(
    session: &mut Session,
    compiled: &Compiled,
    checks: &[CircuitCheck],
    kernels: &KernelRegistry,
    mode: Mode,
    threads: usize,
) -> Result<(Vec<OutputValue>, Stats), String> {
    let h = session.prepare_full(
        &compiled.program,
        kernels,
        checks,
        &compiled.report.merges,
        &compiled.report.par_safety,
    )?;
    session.run_plan(h, &[], kernels, mode, threads)
}

/// Run every leg; `Err` describes the first divergence, sanitizer
/// finding, or execution failure.
pub fn run_all_modes(
    prog: &Program,
    checked_session: &mut Session,
    par_session: &mut Session,
) -> Result<DiffReport, String> {
    let kernels = KernelRegistry::new();
    let unopt = compile(prog, &Options::default()).map_err(|e| format!("unopt compile: {e}"))?;
    let opt = compile(prog, &Options::optimized()).map_err(|e| format!("opt compile: {e}"))?;
    let (pure_out, _) =
        run_program(prog, &[], &kernels, Mode::Pure, 1).map_err(|e| format!("pure: {e}"))?;
    let (u_out, u_stats) =
        run_compiled(&mut Session::new(), &unopt, &[], &kernels, Mode::Memory, 1)
            .map_err(|e| format!("unopt run: {e}"))?;
    let (o_out, o_stats) = run_compiled(&mut Session::new(), &opt, &[], &kernels, Mode::Memory, 1)
        .map_err(|e| format!("opt run: {e}"))?;
    if differ(&pure_out, &u_out) {
        return Err("pure vs unopt outputs differ".into());
    }
    if differ(&pure_out, &o_out) {
        return Err("pure vs opt outputs differ".into());
    }
    if o_stats.bytes_copied > u_stats.bytes_copied {
        return Err(format!(
            "optimizer increased copies ({} -> {})",
            u_stats.bytes_copied, o_stats.bytes_copied
        ));
    }
    // Checked leg in the shared session: recycled blocks, silent sanitizer.
    let checks: Vec<_> = opt.report.checks().cloned().collect();
    let (c_out, c_stats) = run_compiled(checked_session, &opt, &checks, &kernels, Mode::Checked, 1)
        .map_err(|e| format!("checked run: {e}"))?;
    if differ(&o_out, &c_out) {
        return Err("checked mode changed the output".into());
    }
    if !c_stats.diagnostics.is_empty() || c_stats.diagnostics_suppressed > 0 {
        return Err(format!("sanitizer fired:\n{c_stats:?}"));
    }
    if c_stats.circuits_skipped > 0 {
        return Err(format!("circuit check skipped:\n{c_stats:?}"));
    }
    // Thread sweep through the second shared session.
    for threads in [1usize, 8] {
        let (p_out, _) = run_compiled(par_session, &opt, &[], &kernels, Mode::Memory, threads)
            .map_err(|e| format!("par sweep at {threads} threads: {e}"))?;
        if differ(&o_out, &p_out) {
            return Err(format!("{threads}-worker run diverged from the serial leg"));
        }
    }
    // Multi-tenant leg: two tenants, one server, concurrently. Tenant A
    // replays in memory mode, tenant B under the sanitizer — blocks
    // recycled from earlier programs must neither leak bytes (outputs
    // would change) nor trip provenance (the program fully writes before reading).
    let server = shared_server();
    let tenant_results = std::thread::scope(|scope| {
        let legs = [("mt-a", Mode::Memory), ("mt-b", Mode::Checked)];
        let handles = legs.map(|(tenant, mode)| {
            let opt = &opt;
            let checks = &checks;
            let kernels = &kernels;
            scope.spawn(move || {
                let req = ExecRequest::from_compiled(opt, kernels, checks, &[], mode);
                (tenant, mode, server.execute(tenant, req))
            })
        });
        handles.map(|h| h.join().expect("tenant thread panicked"))
    });
    for (tenant, mode, result) in tenant_results {
        let (t_out, t_stats) =
            result.map_err(|e| format!("multi-tenant leg ({tenant}, {mode:?}): {e}"))?;
        if differ(&o_out, &t_out) {
            return Err(format!(
                "multi-tenant leg: tenant {tenant} ({mode:?}) diverged from the oracle"
            ));
        }
        if !t_stats.diagnostics.is_empty() || t_stats.diagnostics_suppressed > 0 {
            return Err(format!(
                "multi-tenant leg: sanitizer fired for tenant {tenant}:\n{t_stats:?}"
            ));
        }
        if t_stats.circuits_skipped > 0 {
            return Err(format!(
                "multi-tenant leg: circuit check skipped for tenant {tenant}:\n{t_stats:?}"
            ));
        }
    }
    Ok(DiffReport {
        pure_out,
        unopt_copied: u_stats.bytes_copied,
        opt_copied: o_stats.bytes_copied,
        opt_report: opt.compile_report,
        checked_stats: c_stats,
        opt_stats: o_stats,
    })
}

/// Serialize a trace the way a repro wants it: the corpus text format,
/// ready to paste into a regression file.
pub fn ops_text(ops: &[GenOp]) -> String {
    crate::corpus::format_entry(&crate::corpus::CorpusEntry {
        name: String::new(),
        note: String::new(),
        ops: ops.to_vec(),
    })
}

/// Panic with a full reproduction dossier: the failure, the generator
/// seed, the decision trace (corpus format), and the program's pretty
/// IR. Every fuzzing test funnels its failures through here, so a CI
/// mismatch is reproducible from the log alone.
pub fn fail_with_repro(failure: &str, seed_desc: &str, ops: &[GenOp], prog: &Program) -> ! {
    panic!(
        "differential fuzz failure: {failure}\n\
         seed: {seed_desc}\n\
         trace ({} ops, corpus format):\n{}\
         program:\n{}",
        ops.len(),
        ops_text(ops),
        arraymem_ir::pretty::program_to_string(prog)
    );
}
