//! Scalar code, typed once.
//!
//! The paper compiles a `map` to a kernel whose body is straight typed
//! code (§VII); the evaluator pays a tag dispatch per operator per
//! element instead. [`Strips`] is the one typer of scalar code: once per
//! entry — tags are dynamic — it walks the code the evaluator runs into
//! lane registers, each a typed strip and how it is made (a value not of
//! its statement's type cast as `coerce` casts it), then makes each with
//! one monomorphic loop over [`crate::arith`]'s per-type functions. A
//! lambda map runs in strips of [`STRIP`] elements, results stored last;
//! a loop runs at width 1, once per iteration in program order, its point
//! reads and stores registers too, its counter and carried scalars
//! registers the back edge writes.
//!
//! What the evaluator refuses it still refuses, in its own words: what
//! does not type runs element by element or steps; a strip in which a
//! lane overflowed or divided by zero stores nothing and re-runs element
//! by element; a loop's failing op raises what `eval_bin`, `eval_un` or
//! `check_point` say of its operands.

use crate::arith::{
    bin_tag, compare, eval_bin, eval_un, int_arith, int_test, int_un, promote, un_tag, Float,
};
use crate::plan::{Arg, Instr, LExp, LSlice, LUpdateSrc, MapLambdaInstr, Op, Slot};
use crate::store::{MemStore, RawBuf};
use crate::value::{ArrayRef, Tag, Value};
use crate::view::{Elem, View, ViewMut};
use crate::vm::{check_point, names};
use arraymem_ir::{BinOp, UnOp};
use arraymem_lmad::Dim;

/// Elements per strip: a few typed strips fit the first-level cache, and
/// the per-strip work (a dispatch per register) is spread over enough
/// elements to vanish.
pub(crate) const STRIP: usize = 1024;

/// How a lane register's strip is made.
#[derive(Clone, Copy)]
enum How {
    /// Input `k`, read in place (`true`) or through its index function.
    Load(u32, bool),
    /// One value in every lane, written at entry; a loop's back edge too.
    All(Value),
    Bin(BinOp, u32, u32),
    Un(UnOp, u32),
    /// Another register's lanes as this one's type.
    Cast(u32),
    /// A loop's read of point `p`, and its store of register `r` there.
    Index(u32),
    Store(u32, u32),
}

#[derive(Clone, Copy)]
struct LaneReg {
    tag: Tag,
    how: How,
}

/// What code is typed against: the registers, the arrays, the store.
pub(crate) type Env<'a> = (&'a [Value], &'a mut [Option<ArrayRef>], &'a mut MemStore);

/// A loop's array access `(array, block, offset, at)`: one LMAD from
/// `offset`, `coords[at]` its dimensions beside the coordinates' registers.
type Point = (ArrayRef, RawBuf, i64, std::ops::Range<usize>);

/// The typed code of a machine: scratch reused by every map and loop of a
/// run, so a warm entry allocates nothing.
#[derive(Default)]
pub(crate) struct Strips {
    /// `lanes` words per register (the width, at most `STRIP`); booleans
    /// are `i64` 0 and 1.
    words: Vec<u64>,
    lanes: usize,
    regs: Vec<LaneReg>,
    /// The register of each slot the code reads or writes, latest last.
    slots: Vec<(Slot, u32)>,
    /// The register of each value of the statement being typed.
    vals: Vec<u32>,
    /// The register of each result of the map.
    results: Vec<u32>,
    points: Vec<Point>,
    coords: Vec<(u32, Dim<i64>)>,
    /// A loop's state `(reg, next, slot)`, the counter's first: see `carry`.
    back: Vec<(u32, u32, Slot)>,
}

/// `$run` with `T` the Rust type of lanes tagged `$tag`.
macro_rules! with_lane_type {
    ($tag:expr, $run:expr) => {
        match $tag {
            Tag::F32 => {
                type T = f32;
                $run
            }
            Tag::F64 => {
                type T = f64;
                $run
            }
            _ => {
                type T = i64;
                $run
            }
        }
    };
}

/// `$run` with `$k` a constant naming the operator `$op` is, one of
/// `$v`: the per-type function `$run` calls with it folds to that
/// operator's arm, so every operator gets a loop of its own.
macro_rules! per_op {
    ($e:ident, $op:expr, [$($v:ident)*], $k:ident => $run:expr) => {
        match $op {
            $($e::$v => {
                const $k: $e = $e::$v;
                $run
            })*
            _ => unreachable!("typed at entry"),
        }
    };
}

/// A register's words as lanes of its type.
fn typed<T: Elem>(words: &[u64]) -> &[T] {
    const { assert!(size_of::<T>() <= 8 && align_of::<T>() <= align_of::<u64>()) }
    // SAFETY: `T` is no wider and no more aligned than the words it
    // overlays (above), and `Elem` is f32, f64 and i64 (`view.rs`, beside
    // the accessors that rely on the same): plain data, every bit pattern
    // valid.
    unsafe { std::slice::from_raw_parts(words.as_ptr() as *const T, words.len()) }
}

fn typed_mut<T: Elem>(words: &mut [u64]) -> &mut [T] {
    const { assert!(size_of::<T>() <= 8 && align_of::<T>() <= align_of::<u64>()) }
    // SAFETY: as in `typed`; the borrow of `words` stays exclusive.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut T, words.len()) }
}

fn zip<T: Copy, U>(out: &mut [U], a: &[T], b: &[T], mut f: impl FnMut(T, T) -> U) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

fn each<T: Copy, U>(out: &mut [U], a: &[T], mut f: impl FnMut(T) -> U) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

/// The registers made so far for `[lo, lo + len)`, or an input's view.
struct Made<'a>(&'a [LaneReg], &'a [u64], &'a [View], usize, usize, usize);

impl<'a> Made<'a> {
    #[inline(always)]
    fn strip<T: Elem>(&self, r: u32) -> &'a [T] {
        let Made(regs, words, inputs, lo, len, lanes) = *self;
        match regs[r as usize].how {
            How::Load(k, true) if !inputs.is_empty() => {
                let strip = inputs[k as usize]
                    .as_slice()
                    .and_then(|s| s.get(lo..lo + len));
                strip.expect("contiguous and `width` long when the map was resolved")
            }
            _ => typed(&words[r as usize * lanes..][..len]),
        }
    }
}

impl Strips {
    /// Type the strip-eligible body of `ml` for one execution of the map,
    /// input `k` read in place if `borrow(k)` (no result lands in its block):
    /// `None` when an operand or operator has no lane type, and the map runs
    /// element by element.
    pub(crate) fn resolve(
        &mut self,
        ml: &MapLambdaInstr,
        m: &mut Env,
        inputs: &[View],
        borrow: impl Fn(usize) -> bool,
        outputs: &[ViewMut],
        width: usize,
    ) -> Option<()> {
        self.clear();
        for (k, view) in inputs.iter().enumerate() {
            let tag = Tag::of(view.elem());
            // A boolean word is any non-zero word until it is loaded.
            let slice =
                with_lane_type!(tag, view.as_slice::<T>().is_some_and(|s| s.len() >= width));
            let in_place = slice && borrow(k) && tag != Tag::Bool;
            let r = self.push(tag, How::Load(k as u32, in_place));
            self.slots.push((ml.params[k], r));
        }
        self.body(&ml.body.instrs, m)?;
        for (result, out) in ml.results.iter().zip(outputs) {
            let r = self.slot(m.0, *result)?;
            let r = self.cast(r, Tag::of(out.elem()))?;
            self.results.push(r);
        }
        self.fill(width);
        Some(())
    }

    /// Type a loop's body and back edge, `idx` its counter, for one entry at
    /// width 1. `None`, and the loop steps, when an operand has no type, an
    /// access is not one LMAD of its rank, or a carried value would move.
    pub(crate) fn resolve_loop(&mut self, code: &[Instr], idx: Slot, m: &mut Env) -> Option<()> {
        self.clear();
        let counter = self.slot(m.0, idx)?;
        self.back.push((counter, counter, idx));
        self.body(code, m)?;
        self.fill(1);
        Some(())
    }

    fn clear(&mut self) {
        self.regs.clear();
        self.slots.clear();
        self.results.clear();
        self.points.clear();
        self.coords.clear();
        self.back.clear();
    }

    /// Write every `All` register's lanes for a width.
    fn fill(&mut self, width: usize) {
        self.lanes = width.clamp(1, STRIP);
        let n = self.regs.len() * self.lanes;
        self.words.resize(self.words.len().max(n), 0);
        for (reg, lanes) in self.regs.iter().zip(self.words.chunks_mut(self.lanes)) {
            if let How::All(v) = reg.how {
                match reg.tag {
                    Tag::F32 => typed_mut(lanes).fill(v.as_f32()),
                    Tag::F64 => typed_mut(lanes).fill(v.as_f64()),
                    _ => typed_mut(lanes).fill(v.as_i64()),
                }
            }
        }
    }

    /// Type statements: scalar code, a point update by a scalar, a back edge.
    fn body(&mut self, code: &[Instr], m: &mut Env) -> Option<()> {
        for instr in code {
            match instr {
                Instr::Scalar { dst, elem, exp } => {
                    self.code(exp, m)?;
                    let r = self.arg(exp, m.0, exp.results[0])?;
                    let r = self.cast(r, elem.map_or(self.regs[r as usize].tag, Tag::of))?;
                    self.slots.push((*dst, r));
                }
                Instr::Update(u) => {
                    let (LSlice::Point(at), LUpdateSrc::Scalar(src)) = (&u.slice, &u.src) else {
                        unreachable!("a typed loop updates points by scalars")
                    };
                    // The result names the array it updates, as in `update`.
                    m.1[u.dest.slot as usize] = Some(m.1[u.dst as usize].clone()?);
                    self.code(at, m)?;
                    let p = self.point(at, &at.results, u.dest.slot, m)?;
                    self.code(src, m)?;
                    let r = self.arg(src, m.0, src.results[0])?;
                    // Stored as the block's type, as `RawBuf::set` converts.
                    let r = self.cast(r, Tag::of(self.points[p as usize].0.elem))?;
                    self.push(Tag::Mem, How::Store(p, r));
                }
                Instr::CopySlots { pairs } => {
                    for &(src, dst) in pairs {
                        match &m.1[src as usize] {
                            // A carried array stays put: the body updates it in place.
                            Some(a) => names(&m.1[dst as usize], a).then_some(())?,
                            None => self.carry(m.0, src, dst)?,
                        }
                    }
                }
                Instr::VerifyChecks { .. } => {}
                _ => unreachable!("typed code is scalar statements, point updates and a back edge"),
            }
        }
        Some(())
    }

    /// Type `e`'s steps, a register each, into `vals`.
    fn code(&mut self, e: &LExp, m: &mut Env) -> Option<()> {
        self.vals.clear();
        for op in &e.ops {
            let r = match *op {
                Op::Bin(op, a, b) => {
                    let (a, b) = (self.arg(e, m.0, a)?, self.arg(e, m.0, b)?);
                    let ty = promote(self.regs[a as usize].tag, self.regs[b as usize].tag);
                    let out = bin_tag(op, ty)?;
                    let (a, b) = (self.cast(a, ty)?, self.cast(b, ty)?);
                    self.push(out, How::Bin(op, a, b))
                }
                Op::Un(op, a) => {
                    let a = self.arg(e, m.0, a)?;
                    let (ty, out) = un_tag(op, self.regs[a as usize].tag)?;
                    let a = self.cast(a, ty)?;
                    match op {
                        UnOp::ToF32 | UnOp::ToF64 | UnOp::ToI64 => a,
                        _ => self.push(out, How::Un(op, a)),
                    }
                }
                Op::Size(k) => {
                    let n = e.sizes[k as usize].eval(m.0).ok()?;
                    self.push(Tag::I64, How::All(Value::i64(n)))
                }
                Op::Index { arr, at, rank } => {
                    let p = self.point(e, &e.coords[at as usize..][..rank as usize], arr, m)?;
                    self.push(Tag::of(self.points[p as usize].0.elem), How::Index(p))
                }
                _ => unreachable!("typed code has no select"),
            };
            self.vals.push(r);
        }
        Some(())
    }

    /// The back edge writes `src`'s register, after each iteration, into the
    /// one `dst` held at entry, of its type. An entry register is copied in
    /// the iteration first, so a swap reads both before writing either; a
    /// block id stays put with its array.
    fn carry(&mut self, file: &[Value], src: Slot, dst: Slot) -> Option<()> {
        let Some(mut next) = self.slot(file, src) else {
            return (file[src as usize].as_mem() == file[dst as usize].as_mem()).then_some(());
        };
        let (reg, tag) = (self.slot(file, dst)?, self.regs[next as usize].tag);
        (self.regs[reg as usize].tag == tag).then_some(())?;
        if let How::All(_) = self.regs[next as usize].how {
            next = self.push(tag, How::Cast(next));
        }
        self.back.push((reg, next, dst));
        Some(())
    }

    fn push(&mut self, tag: Tag, how: How) -> u32 {
        self.regs.push(LaneReg { tag, how });
        self.regs.len() as u32 - 1
    }

    /// The register an operand of a statement's code is in.
    fn arg(&mut self, e: &LExp, file: &[Value], a: Arg) -> Option<u32> {
        let v = match a {
            Arg::Slot(s) => return self.slot(file, s),
            Arg::Const(k) => e.consts[k as usize],
            Arg::Val(k) => return Some(self.vals[k as usize]),
        };
        Some(self.push(v.tag(), How::All(v)))
    }

    /// The register of a slot: the latest the code bound it to, or else
    /// one holding its value at entry.
    fn slot(&mut self, file: &[Value], s: Slot) -> Option<u32> {
        if let Some(&(_, r)) = self.slots.iter().rev().find(|(b, _)| *b == s) {
            return Some(r);
        }
        let v = Some(file[s as usize]).filter(|v| v.tag() != Tag::Mem)?;
        let r = self.push(v.tag(), How::All(v));
        self.slots.push((s, r));
        Some(r)
    }

    /// Pin the array in slot `s` for a point at `at`, integer coordinates
    /// of `e`: `None` unless the array is one LMAD of their rank.
    fn point(&mut self, e: &LExp, at: &[Arg], s: Slot, m: &mut Env) -> Option<u32> {
        let array = m.1.get(s as usize)?.clone()?;
        let lmad = array.ixfn.as_single()?;
        (lmad.dims.len() == at.len()).then_some(())?;
        let (first, offset) = (self.coords.len(), lmad.offset);
        for (c, d) in at.iter().zip(&lmad.dims) {
            let c = self.arg(e, m.0, *c)?;
            matches!(self.regs[c as usize].tag, Tag::I64 | Tag::Bool).then_some(())?;
            self.coords.push((c, *d));
        }
        let (raw, at) = (m.2.raw(array.block), first..self.coords.len());
        self.points.push((array, raw, offset, at));
        Some(self.points.len() as u32 - 1)
    }

    /// A register holding `r`'s lanes as type `to`. A float has no truth
    /// value, as in [`crate::arith::truth`].
    fn cast(&mut self, r: u32, to: Tag) -> Option<u32> {
        match (self.regs[r as usize].tag, to) {
            (from, to) if from == to => Some(r),
            (Tag::F32 | Tag::F64, Tag::Bool) => None,
            _ => Some(self.push(to, How::Cast(r))),
        }
    }

    /// Make every register for elements `[lo, lo + len)` of a map and store
    /// the results: `false`, nothing stored, when a lane has no value.
    pub(crate) fn run(&mut self, inputs: &[View], outs: &[ViewMut], lo: usize, len: usize) -> bool {
        let ok = (0..self.regs.len()).fold(true, |ok, r| self.make(r, inputs, lo, len) & ok);
        let regs = &self.regs[..];
        let made = Made(regs, &self.words, inputs, lo, len, self.lanes);
        for (&r, out) in self.results.iter().zip(outs).filter(|_| ok) {
            with_lane_type!(
                regs[r as usize].tag,
                out.store_strip::<T>(lo, made.strip(r))
            );
        }
        ok
    }

    /// Run a typed loop's `n` iterations — registers in order, then the back
    /// edge — and leave its state in `file`.
    pub(crate) fn run_loop(&mut self, n: i64, file: &mut [Value]) -> Result<(), String> {
        let counter = self.back[0].0 as usize;
        for i in 0..n {
            self.words[counter] = i as u64;
            for r in 0..self.regs.len() {
                if !self.make(r, &[], 0, 1) {
                    return Err(self.error(r));
                }
            }
            for &(reg, next, _) in &self.back {
                self.words[reg as usize] = self.words[next as usize];
            }
        }
        self.words[counter] = n as u64;
        for &(reg, _, s) in &self.back {
            file[s as usize] = Value::new(self.regs[reg as usize].tag, self.words[reg as usize]);
        }
        Ok(())
    }

    /// Make register `r` for elements `[lo, lo + len)`: `false` when a lane
    /// has no value (integer overflow, division by zero, a stray point).
    #[inline(always)]
    fn make(&mut self, r: usize, inputs: &[View], lo: usize, len: usize) -> bool {
        // Registers are in the order they were made: a register's
        // operands lie before it.
        let (words, out) = self.words.split_at_mut(r * self.lanes);
        let (out, regs) = (&mut out[..len], &self.regs[..]);
        let made = Made(regs, words, inputs, lo, len, self.lanes);
        let tag = regs[r].tag;
        match regs[r].how {
            How::All(_) | How::Load(_, true) => true,
            How::Load(k, false) => {
                with_lane_type!(tag, inputs[k as usize].load_strip::<T>(lo, typed_mut(out)));
                if tag == Tag::Bool {
                    out.iter_mut().for_each(|w| *w = (*w != 0) as u64);
                }
                true
            }
            How::Bin(op, a, b) => {
                let test = tag == Tag::Bool;
                match regs[a as usize].tag {
                    Tag::F32 => bin_float::<f32>(op, test, made.strip(a), made.strip(b), out),
                    Tag::F64 => bin_float::<f64>(op, test, made.strip(a), made.strip(b), out),
                    _ => bin_int(op, test, made.strip(a), made.strip(b), typed_mut(out)),
                }
            }
            How::Un(op, a) => match tag {
                Tag::F32 => un_float::<f32>(op, made.strip(a), typed_mut(out)),
                Tag::F64 => un_float::<f64>(op, made.strip(a), typed_mut(out)),
                _ => un_int(op, made.strip(a), typed_mut(out)),
            },
            How::Cast(a) => {
                cast_lanes(regs[a as usize].tag, tag, &made, a, out);
                true
            }
            // A loop's points, at width 1: a lane is a word.
            How::Index(p) | How::Store(p, _) => {
                let (_, raw, mut off, at) = &self.points[p as usize];
                for &(c, d) in &self.coords[at.clone()] {
                    let i = words[c as usize] as i64;
                    if !(0 <= i && i < d.card) {
                        return false;
                    }
                    off += i * d.stride;
                }
                match regs[r].how {
                    How::Store(_, a) => raw.set_lane(off, words[a as usize]),
                    _ => out[0] = raw.lane(off),
                }
                true
            }
        }
    }

    /// The evaluator's error for register `r`, whose lane at width 1 has no value.
    #[cold]
    fn error(&self, r: usize) -> String {
        let v = |a: u32| Value::new(self.regs[a as usize].tag, self.words[a as usize]);
        let err = match self.regs[r].how {
            How::Bin(op, a, b) => eval_bin(op, v(a), v(b)).err(),
            How::Un(op, a) => eval_un(op, v(a)).err(),
            How::Index(p) | How::Store(p, _) => {
                let (array, _, _, at) = &self.points[p as usize];
                let at = &self.coords[at.clone()];
                let point: Vec<_> = at.iter().map(|c| self.words[c.0 as usize] as i64).collect();
                check_point(array, &point).err()
            }
            _ => None,
        };
        err.expect("a lane without a value is an error of the evaluator's")
    }
}

/// A lane's value — or, when it has none, a note that the strip is to be
/// re-run element by element.
fn valued(v: Option<i64>, ok: &mut bool) -> i64 {
    *ok &= v.is_some();
    v.unwrap_or(0)
}

#[inline(always)]
fn bin_float<T: Float + Elem>(op: BinOp, test: bool, a: &[T], b: &[T], out: &mut [u64]) -> bool {
    if test {
        let out = typed_mut::<i64>(out);
        per_op!(BinOp, op, [Eq Ne Lt Le], K => zip(out, a, b, |x, y| compare(K, x, y) as i64));
    } else {
        let out = typed_mut::<T>(out);
        per_op!(BinOp, op, [Add Sub Mul Div Rem Min Max], K => zip(out, a, b, |x, y| T::arith(K, x, y)));
    }
    true
}

#[inline(always)]
fn bin_int(op: BinOp, test: bool, a: &[i64], b: &[i64], out: &mut [i64]) -> bool {
    let mut ok = true;
    if test {
        per_op!(BinOp, op, [Eq Ne Lt Le And Or], K => zip(out, a, b, |x, y| int_test(K, x, y) as i64));
    } else {
        per_op!(BinOp, op, [Add Sub Mul Div Rem Min Max], K => zip(out, a, b, |x, y| valued(int_arith(K, x, y), &mut ok)));
    }
    ok
}

#[inline(always)]
fn un_float<T: Float + Elem>(op: UnOp, a: &[T], out: &mut [T]) -> bool {
    per_op!(UnOp, op, [Neg Abs Sqrt Exp Log], K => each(out, a, |x| T::un(K, x)));
    true
}

#[inline(always)]
fn un_int(op: UnOp, a: &[i64], out: &mut [i64]) -> bool {
    let mut ok = true;
    if op == UnOp::Not {
        each(out, a, |x| (x == 0) as i64);
    } else {
        per_op!(UnOp, op, [Neg Abs], K => each(out, a, |x| valued(int_un(K, x), &mut ok)));
    }
    ok
}

/// `Value::as_f32`, `as_f64`, `as_i64` — `as` between the lane types —
/// and the truth of an integer, over lanes.
#[inline(always)]
fn cast_lanes(from: Tag, to: Tag, made: &Made, a: u32, out: &mut [u64]) {
    if to == Tag::Bool {
        return each(typed_mut(out), made.strip::<i64>(a), |x| (x != 0) as i64);
    }
    with_lane_type!(from, {
        type A = T;
        with_lane_type!(
            to,
            each(typed_mut::<T>(out), made.strip::<A>(a), |x| x as T)
        )
    })
}
