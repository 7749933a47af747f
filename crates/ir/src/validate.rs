//! Structural validation of IR programs: pattern arities, scoping, shape
//! agreement where symbolically decidable, and the uniqueness discipline
//! for updates (the "old" array must not be used after an update — §II-C).

use crate::exp::*;
use crate::types::{ElemType, Type};
use std::collections::{HashMap, HashSet};

/// Validate a program; `Err` carries a description of the first violation.
pub fn validate(prog: &Program) -> Result<(), String> {
    let mut scope: HashSet<Var> = prog.params.iter().map(|(v, _)| *v).collect();
    validate_block(&prog.body, &mut scope)
}

fn validate_block(block: &Block, scope: &mut HashSet<Var>) -> Result<(), String> {
    let mut consumed: HashSet<Var> = HashSet::new();
    for (k, stm) in block.stms.iter().enumerate() {
        for v in stm.exp.free_vars() {
            if !scope.contains(&v) {
                return Err(format!("stm {k}: variable {v} used before definition"));
            }
        }
        // The uniqueness discipline: an updated destination must not be
        // used again under its old name.
        if let Exp::Update { dst, .. } = &stm.exp {
            if consumed.contains(dst) {
                return Err(format!("stm {k}: {dst} updated twice (consumed)"));
            }
            consumed.insert(*dst);
        } else {
            for v in stm.exp.free_vars() {
                if consumed.contains(&v) {
                    return Err(format!("stm {k}: use of consumed array {v}"));
                }
            }
        }
        validate_exp(&stm.exp, &stm.pat, scope, k)?;
        for pe in &stm.pat {
            scope.insert(pe.var);
        }
    }
    for v in &block.result {
        if !scope.contains(v) {
            return Err(format!("block result {v} not in scope"));
        }
        if consumed.contains(v) {
            return Err(format!("block returns consumed array {v}"));
        }
    }
    Ok(())
}

fn validate_exp(
    exp: &Exp,
    pat: &[PatElem],
    scope: &mut HashSet<Var>,
    k: usize,
) -> Result<(), String> {
    let arity_err = |want: usize| {
        Err(format!(
            "stm {k}: pattern has {} elements, expression produces {want}",
            pat.len()
        ))
    };
    match exp {
        Exp::Scalar(_)
        | Exp::Alloc { .. }
        | Exp::Iota(_)
        | Exp::Scratch { .. }
        | Exp::Replicate { .. }
        | Exp::Copy(_)
        | Exp::Transform { .. }
        | Exp::Gather { .. }
        | Exp::Update { .. } => {
            if pat.len() != 1 {
                return arity_err(1);
            }
            Ok(())
        }
        Exp::Concat { args, elided } => {
            if pat.len() != 1 {
                return arity_err(1);
            }
            if args.is_empty() {
                return Err(format!("stm {k}: empty concat"));
            }
            if elided.len() != args.len() {
                return Err(format!("stm {k}: concat elided mask length mismatch"));
            }
            Ok(())
        }
        Exp::Map(m) => {
            match &m.body {
                MapBody::Lambda { params, body } => {
                    if pat.len() != body.result.len() {
                        return arity_err(body.result.len());
                    }
                    if params.len() != m.inputs.len() {
                        return Err(format!(
                            "stm {k}: lambda has {} params for {} inputs",
                            params.len(),
                            m.inputs.len()
                        ));
                    }
                    let mut inner = scope.clone();
                    for (p, _) in params {
                        inner.insert(*p);
                    }
                    validate_block(body, &mut inner)?;
                }
                MapBody::Kernel { .. } => {
                    if pat.len() != 1 {
                        return arity_err(1);
                    }
                }
            }
            Ok(())
        }
        Exp::If { then_b, else_b, .. } => {
            if then_b.result.len() != pat.len() || else_b.result.len() != pat.len() {
                return Err(format!("stm {k}: if branches' arity mismatch"));
            }
            let mut s1 = scope.clone();
            validate_block(then_b, &mut s1)?;
            let mut s2 = scope.clone();
            validate_block(else_b, &mut s2)?;
            Ok(())
        }
        Exp::Loop {
            params,
            inits,
            index,
            body,
            ..
        } => {
            if params.len() != inits.len() {
                return Err(format!("stm {k}: loop params/inits mismatch"));
            }
            if body.result.len() != params.len() {
                return Err(format!("stm {k}: loop body arity mismatch"));
            }
            if pat.len() != params.len() {
                return arity_err(params.len());
            }
            let mut inner = scope.clone();
            inner.insert(*index);
            for pp in params {
                inner.insert(pp.var);
            }
            validate_block(body, &mut inner)?;
            Ok(())
        }
    }
}

/// As [`validate`], additionally checking the memory annotations the
/// middle-end passes attach: every [`MemBinding`] — on statement patterns
/// and on loop merge parameters — must name a block variable that is in
/// scope *and* known to be memory (bound by an `alloc`, a `mem`-typed
/// pattern or merge parameter, or the synthetic `<param>_mem` block of an
/// array parameter), and every variable its index function mentions must
/// be in scope. Bindings may reference variables bound by the *same*
/// pattern (existential memory and its scalars are pattern siblings).
/// And where a loop's array merge parameter names one of its mem
/// parameters, the body must yield there the block the array it yields for
/// the parameter lives in: block lifetimes are read off these names.
///
/// The pass pipeline interleaves this between stages in debug/checked
/// builds, so a pass that breaks the memory discipline is caught — and
/// named — immediately rather than surfacing as a lowering failure or a
/// miscompile several stages later.
pub fn validate_memory(prog: &Program) -> Result<(), String> {
    let mut scope: HashSet<Var> = prog.params.iter().map(|(v, _)| *v).collect();
    let mut mems: HashSet<Var> = HashSet::new();
    let mut elems: HashMap<Var, ElemType> = HashMap::new();
    for (v, ty) in &prog.params {
        if ty.is_array() {
            let m = crate::param_block_sym(*v);
            scope.insert(m);
            mems.insert(m);
            if let Some(e) = ty.elem() {
                elems.insert(m, e);
            }
        }
    }
    // Structural validation, with the synthetic parameter blocks in scope:
    // annotated programs legitimately name them (e.g. as the memory
    // initializer of a loop's existential-memory merge parameter).
    validate_block(&prog.body, &mut scope.clone())?;
    validate_mem_block(&prog.body, &mut scope, &mut mems, &mut elems)?;
    validate_loop_memory(prog)
}

/// The loop-memory rule of [`validate_memory`].
fn validate_loop_memory(prog: &Program) -> Result<(), String> {
    let mut homes = prog.body.homes();
    for (v, _) in &prog.params {
        homes.insert(*v, crate::param_block_sym(*v));
    }
    let mut err = None;
    prog.body.for_each_stm(&mut |stm| {
        let Exp::Loop { params, body, .. } = &stm.exp else {
            return;
        };
        for (pp, &r) in params.iter().zip(&body.result) {
            let Some(mb) = &pp.mem else { continue };
            let Some(j) = params.iter().position(|q| q.var == mb.block) else {
                continue;
            };
            let named = body.result[j];
            if let Some(home) = homes.get(&r).filter(|&&home| home != named) {
                err.get_or_insert_with(|| {
                    format!(
                        "loop binding {}: body yields {r}, which lives in block {home}, \
                         as block {named} of merge parameter {}",
                        stm.pat[0].var, pp.var
                    )
                });
            }
        }
    });
    err.map_or(Ok(()), Err)
}

fn check_binding(
    mb: &MemBinding,
    owner: Var,
    owner_ty: &Type,
    k: usize,
    scope: &HashSet<Var>,
    mems: &HashSet<Var>,
    elems: &HashMap<Var, ElemType>,
) -> Result<(), String> {
    if !scope.contains(&mb.block) {
        return Err(format!(
            "stm {k}: memory binding of {owner} names block {} which is not in scope",
            mb.block
        ));
    }
    if !mems.contains(&mb.block) {
        return Err(format!(
            "stm {k}: memory binding of {owner} names {} which is not a memory block",
            mb.block
        ));
    }
    for v in mb.ixfn.vars() {
        if !scope.contains(&v) {
            return Err(format!(
                "stm {k}: index function of {owner} uses {v} which is not in scope"
            ));
        }
    }
    // Several arrays may legitimately share one block (aliasing after an
    // elided update; distinct tenants after block merging) — but never at
    // different element widths: the block's buffer has one element type.
    if let (Some(be), Some(oe)) = (elems.get(&mb.block), owner_ty.elem()) {
        if *be != oe {
            return Err(format!(
                "stm {k}: {owner} ({oe}) bound in block {} allocated as {be}",
                mb.block
            ));
        }
    }
    Ok(())
}

fn validate_mem_block(
    block: &Block,
    scope: &mut HashSet<Var>,
    mems: &mut HashSet<Var>,
    elems: &mut HashMap<Var, ElemType>,
) -> Result<(), String> {
    for (k, stm) in block.stms.iter().enumerate() {
        // Pattern vars enter scope before the bindings are checked:
        // existential memory (`ifmem`/`loopmem_out`) and its scalars are
        // bound by the same pattern the array binding references.
        for pe in &stm.pat {
            scope.insert(pe.var);
            if pe.ty == Type::Mem {
                mems.insert(pe.var);
            }
        }
        if let Exp::Alloc { elem, .. } = &stm.exp {
            elems.insert(stm.pat[0].var, *elem);
        }
        for pe in &stm.pat {
            if let Some(mb) = &pe.mem {
                check_binding(mb, pe.var, &pe.ty, k, scope, mems, elems)?;
            }
        }
        // Nested blocks get a copy of the scope plus what their construct
        // binds. (Cloning after the pattern entered is harmless: pattern
        // vars are fresh, and a nested block referencing them would
        // already fail plain `validate`'s scoping.)
        let mut inner = scope.clone();
        let mut inner_mems = mems.clone();
        match &stm.exp {
            Exp::Loop { params, index, .. } => {
                inner.insert(*index);
                for pp in params {
                    inner.insert(pp.var);
                    if pp.ty == Type::Mem {
                        inner_mems.insert(pp.var);
                    }
                }
                for pp in params {
                    if let Some(mb) = &pp.mem {
                        check_binding(mb, pp.var, &pp.ty, k, &inner, &inner_mems, elems)?;
                    }
                }
            }
            Exp::Map(MapExp {
                body: MapBody::Lambda { params, .. },
                ..
            }) => inner.extend(params.iter().map(|(p, _)| *p)),
            _ => {}
        }
        for b in stm.exp.blocks() {
            let (mut scope, mut mems) = (inner.clone(), inner_mems.clone());
            validate_mem_block(b, &mut scope, &mut mems, &mut elems.clone())?;
        }
    }
    Ok(())
}

/// The dynamic legality checks the language inserts for LMAD-slice updates
/// (§III-B): strides non-zero and dimensions non-overlapping, so the
/// update has no output dependences. Used by the evaluators.
pub fn lmad_slice_is_injective(l: &arraymem_lmad::ConcreteLmad) -> bool {
    // Sort dims by |stride| ascending and check each stride strictly
    // exceeds the reach of the smaller ones — the same sufficient
    // condition as the static test, evaluated concretely; fall back to an
    // exact point-set check for small slices.
    let mut dims: Vec<(i64, i64)> = l
        .dims
        .iter()
        .map(|d| (d.card, d.stride.abs()))
        .filter(|&(c, _)| c > 1)
        .collect();
    if dims.iter().any(|&(_, s)| s == 0) {
        return false;
    }
    dims.sort_by_key(|&(_, s)| s);
    let mut reach = 0i64;
    let mut ok = true;
    for &(c, s) in &dims {
        if s <= reach {
            ok = false;
            break;
        }
        reach += (c - 1) * s;
    }
    if ok {
        return true;
    }
    // Exact fallback (small sets only).
    let n = l.num_points();
    if n <= 1 << 16 {
        let pts = l.points();
        let set: std::collections::HashSet<i64> = pts.iter().copied().collect();
        set.len() == pts.len()
    } else {
        false
    }
}
