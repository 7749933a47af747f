//! Memory introduction (paper §IV-C).
//!
//! Statements creating fresh arrays get a preceding `alloc` and a
//! row-major index function; change-of-layout transforms reuse the source
//! block with a transformed index function; `if`/`loop` results get
//! existential memory via anti-unification of the branch index functions,
//! with normalization copies inserted when anti-unification fails.

use crate::antiunify::{anti_unify, Existential};
use crate::memtable::MemTable;
use crate::remark::{Remark, RemarkKind};
use arraymem_ir::{
    param_block_sym, Block, ElemType, Exp, MemBinding, PatElem, Program, ScalarExp, Stm, Type, Var,
};
use arraymem_lmad::IndexFn;
use arraymem_symbolic::{Poly, Sym};
use std::collections::HashMap;

/// Run memory introduction over the whole program (in place), recording
/// a [`Remark`] for every normalization copy the anti-unification
/// fallbacks insert (§IV-C).
pub fn introduce_memory_with(prog: &mut Program, remarks: &mut Vec<Remark>) -> Result<(), String> {
    // The program carries no annotation yet: the table starts as the
    // parameters' bindings and grows as statements are annotated.
    let mut tbl = MemTable::build(prog);
    let body = std::mem::take(&mut prog.body);
    prog.body = introduce_block(body, &mut tbl, remarks)?;
    Ok(())
}

fn introduce_block(
    block: Block,
    tbl: &mut MemTable,
    remarks: &mut Vec<Remark>,
) -> Result<Block, String> {
    let mut out: Vec<Stm> = Vec::with_capacity(block.stms.len());
    for stm in block.stms {
        introduce_stm(stm, tbl, &mut out, remarks)?;
    }
    Ok(Block {
        stms: out,
        result: block.result,
    })
}

fn alloc_stm(elem: ElemType, size: Poly, prefix: &str) -> (Stm, Var) {
    let m = Sym::fresh(&format!("{prefix}_mem"));
    (
        Stm {
            pat: vec![PatElem::new(m, Type::Mem)],
            exp: Exp::Alloc { elem, size },
        },
        m,
    )
}

fn introduce_stm(
    mut stm: Stm,
    tbl: &mut MemTable,
    out: &mut Vec<Stm>,
    remarks: &mut Vec<Remark>,
) -> Result<(), String> {
    match &mut stm.exp {
        // Fresh-array creators: allocate and lay out row-major.
        Exp::Iota(_)
        | Exp::Scratch { .. }
        | Exp::Replicate { .. }
        | Exp::Copy(_)
        | Exp::Concat { .. }
        | Exp::Gather { .. }
        | Exp::Map(_) => {
            for body in stm.exp.blocks_mut() {
                *body = introduce_block(std::mem::take(body), tbl, remarks)?;
            }
            for pe in &mut stm.pat {
                if !pe.ty.is_array() {
                    continue;
                }
                let elem = pe.ty.elem().unwrap();
                let (astm, m) = alloc_stm(elem, pe.ty.num_elems(), &format!("{}", pe.var));
                out.push(astm);
                let mb = MemBinding {
                    block: m,
                    ixfn: IndexFn::row_major(pe.ty.shape()),
                };
                tbl.insert(pe.var, mb.clone());
                pe.mem = Some(mb);
            }
            out.push(stm);
            Ok(())
        }
        Exp::Transform { src, tr } => {
            let src_mb = tbl
                .get(*src)
                .ok_or_else(|| format!("transform of unbound array {src}"))?
                .clone();
            let ixfn = src_mb
                .ixfn
                .transform(tr)
                .ok_or_else(|| format!("unsupported transform on {src}"))?;
            let mb = MemBinding {
                block: src_mb.block,
                ixfn,
            };
            tbl.insert(stm.pat[0].var, mb.clone());
            stm.pat[0].mem = Some(mb);
            out.push(stm);
            Ok(())
        }
        Exp::Update { dst, .. } => {
            let mb = tbl
                .get(*dst)
                .ok_or_else(|| format!("update of unbound array {dst}"))?
                .clone();
            tbl.insert(stm.pat[0].var, mb.clone());
            stm.pat[0].mem = Some(mb);
            out.push(stm);
            Ok(())
        }
        Exp::Scalar(_) | Exp::Alloc { .. } => {
            out.push(stm);
            Ok(())
        }
        Exp::If { .. } => introduce_if(stm, tbl, out, remarks),
        Exp::Loop { .. } => introduce_loop(stm, tbl, out, remarks),
    }
}

/// Append a normalization copy of `v` (row-major, fresh block) to `block`,
/// replacing result position `pos`. Used when anti-unification fails.
fn normalize_result(block: &mut Block, pos: usize, ty: &Type, tbl: &mut MemTable) {
    let v = block.result[pos];
    let elem = ty.elem().unwrap();
    let (astm, m) = alloc_stm(elem, ty.num_elems(), "norm");
    block.stms.push(astm);
    let copy_var = Sym::fresh("normcopy");
    let mb = MemBinding {
        block: m,
        ixfn: IndexFn::row_major(ty.shape()),
    };
    tbl.insert(copy_var, mb.clone());
    block.stms.push(Stm {
        pat: vec![PatElem {
            var: copy_var,
            ty: ty.clone(),
            mem: Some(mb),
        }],
        exp: Exp::Copy(v),
    });
    block.result[pos] = copy_var;
}

/// Bind the existential scalar values at the end of a block, returning the
/// bound variable names (appended to the block's statements).
fn bind_existential_values(block: &mut Block, values: &[Poly]) -> Vec<Var> {
    values
        .iter()
        .map(|p| {
            let v = Sym::fresh("extv");
            block.stms.push(Stm {
                pat: vec![PatElem::new(v, Type::Scalar(ElemType::I64))],
                exp: Exp::Scalar(ScalarExp::Size(p.clone())),
            });
            v
        })
        .collect()
}

fn introduce_if(
    mut stm: Stm,
    tbl: &mut MemTable,
    out: &mut Vec<Stm>,
    remarks: &mut Vec<Remark>,
) -> Result<(), String> {
    let Exp::If {
        cond,
        then_b,
        else_b,
    } = std::mem::replace(&mut stm.exp, Exp::Iota(Poly::zero()))
    else {
        unreachable!()
    };
    let mut then_b = introduce_block(then_b, tbl, remarks)?;
    let mut else_b = introduce_block(else_b, tbl, remarks)?;

    // For each array result: anti-unify the branch index functions.
    let mut new_pat: Vec<PatElem> = Vec::new();
    let mut then_extra: Vec<Var> = Vec::new();
    let mut else_extra: Vec<Var> = Vec::new();
    for (i, pe) in stm.pat.iter_mut().enumerate() {
        if !pe.ty.is_array() {
            continue;
        }
        let get = |tbl: &MemTable, v: Var| -> MemBinding {
            tbl.get(v).cloned().unwrap_or_else(|| MemBinding {
                block: param_block_sym(v),
                ixfn: IndexFn::row_major(pe.ty.shape()),
            })
        };
        let mut tmb = get(tbl, then_b.result[i]);
        let mut emb = get(tbl, else_b.result[i]);
        let mut unified = anti_unify(&tmb.ixfn, &emb.ixfn);
        if unified.is_none() {
            // Normalize both branches with copies (paper: "we insert copy
            // statements to normalise the arrays to a uniform
            // representation").
            normalize_result(&mut then_b, i, &pe.ty, tbl);
            normalize_result(&mut else_b, i, &pe.ty, tbl);
            tmb = get(tbl, then_b.result[i]);
            emb = get(tbl, else_b.result[i]);
            unified = anti_unify(&tmb.ixfn, &emb.ixfn);
            remarks.push(Remark {
                pass: "introduce",
                stm: Some(pe.var),
                kind: RemarkKind::NormalizationCopy,
                message: format!(
                    "if-branch layouts of {} did not anti-unify; inserted \
                     normalization copies in both branches",
                    pe.var
                ),
            });
        }
        let (gen, exts) = unified.ok_or("anti-unification failed after normalization")?;
        // Existential memory block variable.
        let mem_var = Sym::fresh("ifmem");
        new_pat.push(PatElem::new(mem_var, Type::Mem));
        then_extra.push(tmb.block);
        else_extra.push(emb.block);
        // Existential scalars.
        let mut gen_sub = gen.clone();
        let mut ext_pat_vars = Vec::new();
        let (lefts, rights): (Vec<Poly>, Vec<Poly>) = exts
            .iter()
            .map(|e: &Existential| (e.left.clone(), e.right.clone()))
            .unzip();
        for e in &exts {
            let pv = Sym::fresh("exts");
            new_pat.push(PatElem::new(pv, Type::Scalar(ElemType::I64)));
            gen_sub = gen_sub.subst(e.var, &Poly::var(pv));
            ext_pat_vars.push(pv);
        }
        then_extra.extend(bind_existential_values(&mut then_b, &lefts));
        else_extra.extend(bind_existential_values(&mut else_b, &rights));
        let mb = MemBinding {
            block: mem_var,
            ixfn: gen_sub,
        };
        tbl.insert(pe.var, mb.clone());
        pe.mem = Some(mb);
    }
    // Prepend the existential results to the branch results and pattern.
    let mut then_res = then_extra;
    then_res.extend(then_b.result);
    then_b.result = then_res;
    let mut else_res = else_extra;
    else_res.extend(else_b.result);
    else_b.result = else_res;
    new_pat.extend(std::mem::take(&mut stm.pat));
    stm.pat = new_pat;
    stm.exp = Exp::If {
        cond,
        then_b,
        else_b,
    };
    out.push(stm);
    Ok(())
}

/// The converged memory plan for one array merge parameter of a loop.
struct LoopPlan {
    /// The parameter's index function (may contain existential variables).
    ixfn_param: IndexFn,
    /// Existentials: variable plus (initializer value, iteration value).
    exts: Vec<Existential>,
    /// The existential memory block merge parameter.
    mem_var: Var,
}

/// Anti-unification fallback for loops: copy the initializers (and body
/// results, if needed) into fresh row-major memory so all iterations agree
/// on the layout.
#[allow(clippy::too_many_arguments)]
fn loop_copy_fallback<F>(
    params: &[PatElem],
    array_positions: &[usize],
    mem_vars: &[Var],
    inits: &mut [Var],
    tbl: &mut MemTable,
    out: &mut Vec<Stm>,
    remarks: &mut Vec<Remark>,
    try_round: &F,
) -> Result<(Block, Vec<LoopPlan>), String>
where
    F: Fn(&[IndexFn], &[Var], &MemTable) -> Result<(Block, Vec<MemBinding>, Vec<Remark>), String>,
{
    normalize_loop(params, array_positions, inits, tbl, out)?;
    for &i in array_positions {
        remarks.push(Remark {
            pass: "introduce",
            stm: Some(params[i].var),
            kind: RemarkKind::NormalizationCopy,
            message: format!(
                "loop layouts of merge parameter {} did not stabilize; \
                 normalized the initializer with a row-major copy",
                params[i].var
            ),
        });
    }
    let norm_ixfns: Vec<IndexFn> = array_positions
        .iter()
        .map(|&i| IndexFn::row_major(params[i].ty.shape()))
        .collect();
    let (mut b3, _res, round_remarks) = try_round(&norm_ixfns, mem_vars, tbl)?;
    remarks.extend(round_remarks);
    for &i in array_positions {
        let cur = MemTable::of_block(&b3)
            .get(b3.result[i])
            .map(|mb| mb.ixfn.clone())
            .unwrap_or_else(|| IndexFn::row_major(params[i].ty.shape()));
        if cur != IndexFn::row_major(params[i].ty.shape()) {
            let mut t3 = tbl.clone();
            normalize_result(&mut b3, i, &params[i].ty, &mut t3);
        }
    }
    let plans = array_positions
        .iter()
        .enumerate()
        .map(|(k, &i)| LoopPlan {
            ixfn_param: IndexFn::row_major(params[i].ty.shape()),
            exts: Vec::new(),
            mem_var: mem_vars[k],
        })
        .collect();
    Ok((b3, plans))
}

fn introduce_loop(
    mut stm: Stm,
    tbl: &mut MemTable,
    out: &mut Vec<Stm>,
    remarks: &mut Vec<Remark>,
) -> Result<(), String> {
    let Exp::Loop {
        mut params,
        mut inits,
        index,
        count,
        body,
    } = std::mem::replace(&mut stm.exp, Exp::Iota(Poly::zero()))
    else {
        unreachable!()
    };

    // Strategy (a pragmatic variant of the paper's treatment, see
    // DESIGN.md): first try the common case where the body returns its
    // merge parameter's layout unchanged (in-place loops); otherwise
    // generalize the disagreeing index-function components into
    // existential scalar merge parameters; if even the generalized form
    // is unstable, normalize with copies.
    let array_positions: Vec<usize> = params
        .iter()
        .enumerate()
        .filter(|(_, pe)| pe.ty.is_array())
        .map(|(i, _)| i)
        .collect();

    // One attempt: introduce memory in a copy of the body under the given
    // param index functions; returns the per-array result bindings. Remarks
    // from the body go into a per-round scratch — only the chosen round's
    // remarks are kept, so discarded rounds don't double-report.
    let try_round = |param_ixfns: &[IndexFn],
                     mem_vars: &[Var],
                     tbl: &MemTable|
     -> Result<(Block, Vec<MemBinding>, Vec<Remark>), String> {
        let mut round_tbl = tbl.clone();
        for (k, &i) in array_positions.iter().enumerate() {
            round_tbl.insert(
                params[i].var,
                MemBinding {
                    block: mem_vars[k],
                    ixfn: param_ixfns[k].clone(),
                },
            );
        }
        let mut round_remarks = Vec::new();
        let b = introduce_block(body.clone(), &mut round_tbl, &mut round_remarks)?;
        let mut res = Vec::new();
        for &i in &array_positions {
            let v = b.result[i];
            res.push(
                round_tbl
                    .get(v)
                    .cloned()
                    .ok_or_else(|| format!("loop body result {v} has no memory binding"))?,
            );
        }
        Ok((b, res, round_remarks))
    };

    let mem_vars: Vec<Var> = array_positions
        .iter()
        .map(|_| Sym::fresh("loopmem"))
        .collect();
    let init_ixfns: Vec<IndexFn> = array_positions
        .iter()
        .map(|&i| {
            tbl.get(inits[i])
                .map(|mb| mb.ixfn.clone())
                .unwrap_or_else(|| IndexFn::row_major(params[i].ty.shape()))
        })
        .collect();

    // Round 1: assume layouts are loop-invariant.
    let (b1, res1, rem1) = try_round(&init_ixfns, &mem_vars, tbl)?;
    let stable1 = res1.iter().zip(&init_ixfns).all(|(mb, ix)| &mb.ixfn == ix);

    let (mut body, plans): (Block, Vec<LoopPlan>) = if stable1 {
        let plans = array_positions
            .iter()
            .enumerate()
            .map(|(k, _)| LoopPlan {
                ixfn_param: init_ixfns[k].clone(),
                exts: Vec::new(),
                mem_var: mem_vars[k],
            })
            .collect();
        remarks.extend(rem1);
        (b1, plans)
    } else {
        // Round 2: generalize disagreeing components into existentials and
        // verify the generalized form is a fixed point (the body result's
        // components must be expressible at the ext positions).
        let mut gens: Vec<IndexFn> = Vec::new();
        let mut ext_sets: Vec<Vec<Existential>> = Vec::new();
        let mut ok = true;
        for (k, _) in array_positions.iter().enumerate() {
            match anti_unify(&init_ixfns[k], &res1[k].ixfn) {
                Some((gen, exts)) => {
                    gens.push(gen);
                    ext_sets.push(exts);
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            let (b2, res2, rem2) = try_round(&gens, &mem_vars, tbl)?;
            // Check fixpoint: each result component must equal the
            // generalized one, or be a pure renaming at ext positions.
            let mut plans = Vec::new();
            'outer: for (k, _) in array_positions.iter().enumerate() {
                match anti_unify(&gens[k], &res2[k].ixfn) {
                    Some((_g2, exts2)) => {
                        // Every disagreement must sit at an ext var of gen.
                        let prior: Vec<Sym> = ext_sets[k].iter().map(|e| e.var).collect();
                        let mut body_vals: HashMap<Sym, Poly> = HashMap::new();
                        for e2 in &exts2 {
                            match e2.left.as_var() {
                                Some(v) if prior.contains(&v) => {
                                    body_vals.insert(v, e2.right.clone());
                                }
                                _ => {
                                    ok = false;
                                    break 'outer;
                                }
                            }
                        }
                        let exts = ext_sets[k]
                            .iter()
                            .map(|e| Existential {
                                var: e.var,
                                left: e.left.clone(),
                                right: body_vals
                                    .get(&e.var)
                                    .cloned()
                                    .unwrap_or_else(|| Poly::var(e.var)),
                            })
                            .collect();
                        plans.push(LoopPlan {
                            ixfn_param: gens[k].clone(),
                            exts,
                            mem_var: mem_vars[k],
                        });
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                remarks.extend(rem2);
                (b2, plans)
            } else {
                loop_copy_fallback(
                    &params,
                    &array_positions,
                    &mem_vars,
                    &mut inits,
                    tbl,
                    out,
                    remarks,
                    &try_round,
                )?
            }
        } else {
            loop_copy_fallback(
                &params,
                &array_positions,
                &mem_vars,
                &mut inits,
                tbl,
                out,
                remarks,
                &try_round,
            )?
        }
    };

    // Wire the extended params/inits/results.
    // Per-array group layout: [mem param, existential scalar params...],
    // all groups before the original params.
    let mut new_params: Vec<PatElem> = Vec::new();
    let mut new_inits: Vec<Var> = Vec::new();
    let mut body_extra: Vec<Var> = Vec::new();
    let mut pre_stms: Vec<Stm> = Vec::new();
    let mut pat_extra: Vec<PatElem> = Vec::new();
    let body_bindings = MemTable::of_block(&body);
    // Bind every array merge parameter first (later passes and the VM read
    // it): a body may yield another one — a swap — looked up below.
    for (plan, &i) in plans.iter().zip(&array_positions) {
        let pmb = MemBinding {
            block: plan.mem_var,
            ixfn: plan.ixfn_param.clone(),
        };
        tbl.insert(params[i].var, pmb.clone());
        params[i].mem = Some(pmb);
    }
    for (k, &i) in array_positions.iter().enumerate() {
        let plan = &plans[k];
        new_params.push(PatElem::new(plan.mem_var, Type::Mem));
        let init_mb = tbl
            .get(inits[i])
            .cloned()
            .ok_or_else(|| format!("loop initializer {} has no memory binding", inits[i]))?;
        new_inits.push(init_mb.block);
        // The block the yielded array lives in: a body binding, a merge
        // parameter (bound above) or an array bound outside the loop.
        let res = body_bindings
            .get(body.result[i])
            .or_else(|| tbl.get(body.result[i]));
        body_extra.push(res.ok_or("loop body result has no memory binding")?.block);
        let out_mem = Sym::fresh("loopmem_out");
        pat_extra.push(PatElem::new(out_mem, Type::Mem));

        let mut gen_out = plan.ixfn_param.clone();
        for e in &plan.exts {
            // Scalar merge parameter carrying the existential.
            new_params.push(PatElem::new(e.var, Type::Scalar(ElemType::I64)));
            // Initial value bound before the loop.
            let v = Sym::fresh("extinit");
            pre_stms.push(Stm {
                pat: vec![PatElem::new(v, Type::Scalar(ElemType::I64))],
                exp: Exp::Scalar(ScalarExp::Size(e.left.clone())),
            });
            new_inits.push(v);
            // Iteration value bound at the end of the body.
            let bv = bind_existential_values(&mut body, std::slice::from_ref(&e.right));
            body_extra.extend(bv);
            // Pattern-level existential out.
            let ov = Sym::fresh("exto");
            pat_extra.push(PatElem::new(ov, Type::Scalar(ElemType::I64)));
            gen_out = gen_out.subst(e.var, &Poly::var(ov));
        }
        let mb = MemBinding {
            block: out_mem,
            ixfn: gen_out,
        };
        tbl.insert(stm.pat[i].var, mb.clone());
        stm.pat[i].mem = Some(mb);
    }

    let mut all_params = new_params;
    all_params.extend(params);
    let mut all_inits = new_inits;
    all_inits.extend(inits);
    let mut res = body_extra;
    res.extend(std::mem::take(&mut body.result));
    body.result = res;
    let mut all_pat = pat_extra;
    all_pat.extend(std::mem::take(&mut stm.pat));
    stm.pat = all_pat;

    out.extend(pre_stms);
    stm.exp = Exp::Loop {
        params: all_params,
        inits: all_inits,
        index,
        count,
        body,
    };
    out.push(stm);
    Ok(())
}

/// Normalize the initializers of array merge parameters with fresh
/// row-major copies (the anti-unification fallback).
fn normalize_loop(
    params: &[PatElem],
    array_positions: &[usize],
    inits: &mut [Var],
    tbl: &mut MemTable,
    out: &mut Vec<Stm>,
) -> Result<(), String> {
    for &i in array_positions {
        let ty = &params[i].ty;
        let (astm, m) = alloc_stm(ty.elem().unwrap(), ty.num_elems(), "loopinit");
        out.push(astm);
        let cv = Sym::fresh("loopinitcopy");
        let mb = MemBinding {
            block: m,
            ixfn: IndexFn::row_major(ty.shape()),
        };
        tbl.insert(cv, mb.clone());
        out.push(Stm {
            pat: vec![PatElem {
                var: cv,
                ty: ty.clone(),
                mem: Some(mb),
            }],
            exp: Exp::Copy(inits[i]),
        });
        inits[i] = cv;
    }
    Ok(())
}
