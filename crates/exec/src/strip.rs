//! Lambda maps in strips.
//!
//! The paper compiles a `map` to a kernel whose body is straight typed
//! code (§VII); the element-wise evaluator pays a tag dispatch per
//! operator per element instead. A strip is the middle, reading the code
//! the evaluator runs: [`Strips::resolve`] walks an eligible body's
//! `Instr::Scalar`s **once per execution** — tags are dynamic, so the
//! inputs' element types, the constants and the tags the outer registers
//! hold right now — into lane registers, each a typed strip of [`STRIP`]
//! elements and how it is made; [`Strips::run`] makes every register for
//! one strip of the width with one monomorphic loop each, and stores the
//! results last. The loops call the per-type functions of
//! [`crate::arith`] — the scalar evaluator's — with the operator a
//! constant.
//!
//! What the evaluator refuses it still refuses, in its own words:
//! `resolve` returns `None` on anything it cannot type (the whole map then
//! runs element by element, so a type error fires only if an element
//! runs), and `run` returns `false`, nothing stored, when a lane
//! overflowed or divided by zero: the caller re-runs that strip element
//! by element from inputs it has not touched, and the first failing
//! element words the error.

use crate::arith::{bin_tag, compare, int_arith, int_test, int_un, promote, un_tag, Float};
use crate::plan::{Arg, Instr, LExp, MapLambdaInstr, Op, Slot};
use crate::value::{Tag, Value};
use crate::view::{Elem, View, ViewMut};
use arraymem_ir::{BinOp, UnOp};

/// Elements per strip: a few typed strips fit the first-level cache, and
/// the per-strip work (a dispatch per register) is spread over enough
/// elements to vanish.
pub(crate) const STRIP: usize = 1024;

/// How a lane register's strip is made.
#[derive(Clone, Copy)]
enum How {
    /// Input `k`, contiguous: the strip is a slice of its block.
    Borrow(u32),
    /// Input `k`, copied in through its index function.
    Load(u32),
    /// One value in every lane — a constant, an outer register, a size
    /// — written when the map was resolved.
    All(Value),
    Bin(BinOp, u32, u32),
    Un(UnOp, u32),
    /// Another register's lanes as this one's type.
    Cast(u32),
}

#[derive(Clone, Copy)]
struct LaneReg {
    tag: Tag,
    how: How,
}

/// The strip state of a machine: scratch reused by every map of a run,
/// so a warm map allocates nothing.
#[derive(Default)]
pub(crate) struct Strips {
    /// `STRIP` words per register; a register's strip is the first
    /// `len` elements of its type there. Booleans are `i64` 0 and 1.
    words: Vec<u64>,
    regs: Vec<LaneReg>,
    /// The register of each parameter and body value of the map, by slot.
    slots: Vec<(Slot, u32)>,
    /// The register of each value of the statement being typed.
    vals: Vec<u32>,
    /// The register of each result of the map.
    results: Vec<u32>,
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
            _ => unreachable!("typed when the map was resolved"),
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

/// The registers made so far for elements `[lo, lo + len)` — their
/// words, or for a borrowed input the view — as a strip's operands.
struct Made<'a>(&'a [LaneReg], &'a [u64], &'a [View], usize, usize);

impl<'a> Made<'a> {
    fn strip<T: Elem>(&self, r: u32) -> &'a [T] {
        let Made(regs, words, inputs, lo, len) = *self;
        match regs[r as usize].how {
            How::Borrow(k) => {
                let strip = inputs[k as usize].strip(lo, len);
                strip.expect("contiguous and `width` long when the map was resolved")
            }
            _ => typed(&words[r as usize * STRIP..][..len]),
        }
    }
}

impl Strips {
    /// Type the body of `ml` — strip-eligible, so its `Instr::Scalar`s in
    /// order — for one execution of the map: `file` is the register file,
    /// `borrow(k)` says input `k` may be read in place (no result lands in
    /// its block). `None` when an operand has no type a lane can hold or
    /// an operator none over its operands' — the map then runs element by
    /// element.
    pub(crate) fn resolve(
        &mut self,
        ml: &MapLambdaInstr,
        file: &[Value],
        inputs: &[View],
        borrow: impl Fn(usize) -> bool,
        outputs: &[ViewMut],
        width: usize,
    ) -> Option<()> {
        self.regs.clear();
        self.slots.clear();
        self.results.clear();
        for (k, view) in inputs.iter().enumerate() {
            let tag = Tag::of(view.elem());
            // A boolean word is any non-zero word until it is loaded.
            let in_place = borrow(k) && tag != Tag::Bool;
            let how = if in_place && with_lane_type!(tag, view.strip::<T>(0, width).is_some()) {
                How::Borrow(k as u32)
            } else {
                How::Load(k as u32)
            };
            let r = self.push(tag, how);
            self.slots.push((ml.params[k], r));
        }
        for instr in &ml.body.instrs {
            let Instr::Scalar { dst, elem, exp } = instr else {
                unreachable!("a strip-eligible body is scalar statements")
            };
            self.vals.clear();
            for op in &exp.ops {
                let r = match *op {
                    Op::Bin(op, a, b) => {
                        let (a, b) = (self.arg(exp, file, a)?, self.arg(exp, file, b)?);
                        let ty = promote(self.regs[a as usize].tag, self.regs[b as usize].tag);
                        let out = bin_tag(op, ty)?;
                        let (a, b) = (self.cast(a, ty)?, self.cast(b, ty)?);
                        self.push(out, How::Bin(op, a, b))
                    }
                    Op::Un(op, a) => {
                        let a = self.arg(exp, file, a)?;
                        let (ty, out) = un_tag(op, self.regs[a as usize].tag)?;
                        let a = self.cast(a, ty)?;
                        match op {
                            UnOp::ToF32 | UnOp::ToF64 | UnOp::ToI64 => a,
                            _ => self.push(out, How::Un(op, a)),
                        }
                    }
                    Op::Size(k) => {
                        let n = exp.sizes[k as usize].eval(file).ok()?;
                        self.push(Tag::I64, How::All(Value::i64(n)))
                    }
                    _ => unreachable!("a strip-eligible body has no index and no select"),
                };
                self.vals.push(r);
            }
            let mut r = self.arg(exp, file, exp.results[0])?;
            if let Some(elem) = elem {
                r = self.cast(r, Tag::of(*elem))?;
            }
            self.slots.push((*dst, r));
        }
        for (result, out) in ml.results.iter().zip(outputs) {
            let r = self.slot(file, *result)?;
            let r = self.cast(r, Tag::of(out.elem()))?;
            self.results.push(r);
        }
        if self.words.len() < self.regs.len() * STRIP {
            self.words.resize(self.regs.len() * STRIP, 0);
        }
        for (reg, words) in self.regs.iter().zip(self.words.chunks_mut(STRIP)) {
            if let How::All(v) = reg.how {
                let lanes = &mut words[..width.min(STRIP)];
                match reg.tag {
                    Tag::F32 => typed_mut(lanes).fill(v.as_f32()),
                    Tag::F64 => typed_mut(lanes).fill(v.as_f64()),
                    _ => typed_mut(lanes).fill(v.as_i64()),
                }
            }
        }
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

    /// The register of a parameter or body value; any other slot is one
    /// the body does not write, one value for the whole map.
    fn slot(&mut self, file: &[Value], s: Slot) -> Option<u32> {
        if let Some(&(_, r)) = self.slots.iter().rev().find(|(b, _)| *b == s) {
            return Some(r);
        }
        let v = Some(file[s as usize]).filter(|v| v.tag() != Tag::Mem)?;
        Some(self.push(v.tag(), How::All(v)))
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

    /// Make every register for elements `[lo, lo + len)` and store the
    /// results. `false`, and nothing stored, when a lane's integer
    /// arithmetic has no value.
    pub(crate) fn run(
        &mut self,
        inputs: &[View],
        outputs: &[ViewMut],
        lo: usize,
        len: usize,
    ) -> bool {
        let mut ok = true;
        for r in 0..self.regs.len() {
            // Registers are in the order they were made: a register's
            // operands lie before it.
            let (words, out) = self.words.split_at_mut(r * STRIP);
            let (out, regs) = (&mut out[..len], &self.regs[..]);
            let made = Made(regs, words, inputs, lo, len);
            let tag = regs[r].tag;
            match regs[r].how {
                How::Borrow(_) | How::All(_) => {}
                How::Load(k) => {
                    with_lane_type!(tag, inputs[k as usize].load_strip::<T>(lo, typed_mut(out)));
                    if tag == Tag::Bool {
                        out.iter_mut().for_each(|w| *w = (*w != 0) as u64);
                    }
                }
                How::Bin(op, a, b) => {
                    let test = tag == Tag::Bool;
                    ok &= match regs[a as usize].tag {
                        Tag::F32 => bin_float::<f32>(op, test, made.strip(a), made.strip(b), out),
                        Tag::F64 => bin_float::<f64>(op, test, made.strip(a), made.strip(b), out),
                        _ => bin_int(op, test, made.strip(a), made.strip(b), typed_mut(out)),
                    }
                }
                How::Un(op, a) => {
                    ok &= match tag {
                        Tag::F32 => un_float::<f32>(op, made.strip(a), typed_mut(out)),
                        Tag::F64 => un_float::<f64>(op, made.strip(a), typed_mut(out)),
                        _ => un_int(op, made.strip(a), typed_mut(out)),
                    }
                }
                How::Cast(a) => cast_lanes(regs[a as usize].tag, tag, &made, a, out),
            }
        }
        let regs = &self.regs[..];
        let made = Made(regs, &self.words, inputs, lo, len);
        for (&r, out) in self.results.iter().zip(outputs).filter(|_| ok) {
            with_lane_type!(
                regs[r as usize].tag,
                out.store_strip::<T>(lo, made.strip(r))
            );
        }
        ok
    }
}

/// A lane's value — or, when it has none, a note that the strip is to be
/// re-run element by element.
fn valued(v: Option<i64>, ok: &mut bool) -> i64 {
    *ok &= v.is_some();
    v.unwrap_or(0)
}

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

fn bin_int(op: BinOp, test: bool, a: &[i64], b: &[i64], out: &mut [i64]) -> bool {
    let mut ok = true;
    if test {
        per_op!(BinOp, op, [Eq Ne Lt Le And Or], K => zip(out, a, b, |x, y| int_test(K, x, y) as i64));
    } else {
        per_op!(BinOp, op, [Add Sub Mul Div Rem Min Max], K => zip(out, a, b, |x, y| valued(int_arith(K, x, y), &mut ok)));
    }
    ok
}

fn un_float<T: Float + Elem>(op: UnOp, a: &[T], out: &mut [T]) -> bool {
    per_op!(UnOp, op, [Neg Abs Sqrt Exp Log], K => each(out, a, |x| T::un(K, x)));
    true
}

fn un_int(op: UnOp, a: &[i64], out: &mut [i64]) -> bool {
    let mut ok = true;
    if op == UnOp::Not {
        each(out, a, |x| (x == 0) as i64);
    } else {
        per_op!(UnOp, op, [Neg Abs], K => each(out, a, |x| valued(int_un(K, x), &mut ok)));
    }
    ok
}

/// `Value::as_f32`, `as_f64`, `as_i64` and the truth of an integer, over
/// lanes.
fn cast_lanes(from: Tag, to: Tag, made: &Made, a: u32, out: &mut [u64]) {
    macro_rules! cast {
        ($a:ty => $b:ty) => {
            each(typed_mut::<$b>(out), made.strip::<$a>(a), |x| x as $b)
        };
    }
    match (from, to) {
        (Tag::F32, Tag::F64) => cast!(f32 => f64),
        (Tag::F32, Tag::I64) => cast!(f32 => i64),
        (Tag::F64, Tag::F32) => cast!(f64 => f32),
        (Tag::F64, Tag::I64) => cast!(f64 => i64),
        (Tag::I64 | Tag::Bool, Tag::F32) => cast!(i64 => f32),
        (Tag::I64 | Tag::Bool, Tag::F64) => cast!(i64 => f64),
        (Tag::Bool, Tag::I64) => cast!(i64 => i64),
        (Tag::I64, Tag::Bool) => each(typed_mut(out), made.strip::<i64>(a), |x| (x != 0) as i64),
        _ => unreachable!("no lanes go from {from:?} to {to:?}"),
    }
}
