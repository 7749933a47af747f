//! Scalar arithmetic, once.
//!
//! What an operator computes is a pure function of the operator and its
//! operands' tags: [`promote`] picks the type both operands are converted
//! to, [`bin_tag`] / [`un_tag`] the result's tag (or that there is none —
//! a type error), and the per-type functions ([`Float`], [`int_arith`],
//! [`compare`], [`int_test`], [`int_un`]) do the work. The scalar
//! evaluator ([`eval_bin`], [`eval_un`], [`coerce`]) applies them to one
//! tagged [`Value`]; a strip ([`crate::strip`]) resolves the tags once
//! per map execution and applies *the same functions* to typed lanes,
//! each call with its operator a constant. No second table of what `+`
//! means exists.

use crate::value::{Tag, Value};
use arraymem_ir::{BinOp, ElemType, UnOp};

/// The two float widths: `+ - * / % min max` and `- abs sqrt exp log`,
/// written once over both.
pub(crate) trait Float: Copy + PartialOrd {
    fn arith(op: BinOp, a: Self, b: Self) -> Self;
    fn un(op: UnOp, a: Self) -> Self;
}

macro_rules! float {
    ($($t:ident)*) => {$(
        impl Float for $t {
            #[inline(always)]
            fn arith(op: BinOp, a: $t, b: $t) -> $t {
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Rem => a % b,
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                    _ => unreachable!(),
                }
            }

            #[inline(always)]
            fn un(op: UnOp, a: $t) -> $t {
                match op {
                    UnOp::Neg => -a,
                    UnOp::Abs => a.abs(),
                    UnOp::Sqrt => a.sqrt(),
                    UnOp::Exp => a.exp(),
                    UnOp::Log => a.ln(),
                    _ => unreachable!(),
                }
            }
        }
    )*};
}
float!(f32 f64);

/// `+ - * / % min max` over integers; `None` when the result does not fit
/// an `i64` or the quotient is undefined (`/ 0`, `MIN / -1`). Operands are
/// program inputs: that is the request's error, never a panic or a
/// wrapped value.
#[inline(always)]
pub(crate) fn int_arith(op: BinOp, a: i64, b: i64) -> Option<i64> {
    match op {
        BinOp::Add => a.checked_add(b),
        BinOp::Sub => a.checked_sub(b),
        BinOp::Mul => a.checked_mul(b),
        BinOp::Div => a.checked_div_euclid(b),
        BinOp::Rem => a.checked_rem_euclid(b),
        BinOp::Min => Some(a.min(b)),
        BinOp::Max => Some(a.max(b)),
        _ => unreachable!(),
    }
}

/// `== != < <=` over one type.
#[inline(always)]
pub(crate) fn compare<T: PartialOrd>(op: BinOp, a: T, b: T) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        _ => unreachable!(),
    }
}

/// A comparison or a connective over integers (booleans are 0 and 1).
#[inline(always)]
pub(crate) fn int_test(op: BinOp, a: i64, b: i64) -> bool {
    match op {
        BinOp::And => a != 0 && b != 0,
        BinOp::Or => a != 0 || b != 0,
        _ => compare(op, a, b),
    }
}

/// `-` and `abs` of an integer; `None` for `MIN`, whose negation does not
/// fit either.
#[inline(always)]
pub(crate) fn int_un(op: UnOp, a: i64) -> Option<i64> {
    match op {
        UnOp::Neg => a.checked_neg(),
        UnOp::Abs => a.checked_abs(),
        _ => unreachable!(),
    }
}

/// The type a binary operator converts both operands to: `f32` if either
/// is one, else `f64` if either is, else booleans stay booleans and
/// everything left is an integer.
#[inline]
pub(crate) fn promote(x: Tag, y: Tag) -> Tag {
    match (x, y) {
        (Tag::F32, _) | (_, Tag::F32) => Tag::F32,
        (Tag::F64, _) | (_, Tag::F64) => Tag::F64,
        (Tag::Bool, Tag::Bool) => Tag::Bool,
        _ => Tag::I64,
    }
}

/// The tag of `op` over operands promoted to `ty`; `None` is a type error
/// (a connective over floats, arithmetic or an ordering over booleans).
#[inline]
pub(crate) fn bin_tag(op: BinOp, ty: Tag) -> Option<Tag> {
    use BinOp::*;
    match op {
        And | Or if matches!(ty, Tag::F32 | Tag::F64) => None,
        Eq | Ne | And | Or => Some(Tag::Bool),
        _ if ty == Tag::Bool => None,
        Lt | Le => Some(Tag::Bool),
        _ => Some(ty),
    }
}

/// How `op` takes an operand tagged `x`: the type it converts it to and
/// the result's tag; `None` is a type error. The three conversions *are*
/// the conversion of their operand.
#[inline]
pub(crate) fn un_tag(op: UnOp, x: Tag) -> Option<(Tag, Tag)> {
    use UnOp::*;
    Some(match op {
        Neg | Abs if matches!(x, Tag::F32 | Tag::F64 | Tag::I64) => (x, x),
        Not if matches!(x, Tag::Bool | Tag::I64) => (x, Tag::Bool),
        Neg | Abs | Not => return None,
        Sqrt | Exp | Log if x == Tag::F64 => (Tag::F64, Tag::F64),
        Sqrt | Exp | Log | ToF32 => (Tag::F32, Tag::F32),
        ToF64 => (Tag::F64, Tag::F64),
        ToI64 => (Tag::I64, Tag::I64),
    })
}

#[inline]
pub(crate) fn eval_bin(op: BinOp, x: Value, y: Value) -> Result<Value, String> {
    // The arm knows the promoted type, so `bin_tag` folds into the
    // operator's dispatch.
    match promote(x.tag(), y.tag()) {
        Tag::F32 => float_bin(op, Tag::F32, x.as_f32(), y.as_f32(), Value::f32),
        Tag::F64 => float_bin(op, Tag::F64, x.as_f64(), y.as_f64(), Value::f64),
        ty => {
            let (a, b) = (x.as_i64(), y.as_i64());
            match bin_tag(op, ty) {
                None => Err("arithmetic on booleans".into()),
                Some(Tag::Bool) => Ok(Value::bool(int_test(op, a, b))),
                Some(_) => Ok(Value::i64(
                    int_arith(op, a, b).ok_or_else(|| no_integer(op, a, b))?,
                )),
            }
        }
    }
}

#[inline(always)]
fn float_bin<T: Float>(
    op: BinOp,
    ty: Tag,
    a: T,
    b: T,
    value: fn(T) -> Value,
) -> Result<Value, String> {
    match bin_tag(op, ty) {
        None => Err("boolean op on floats".into()),
        Some(Tag::Bool) => Ok(Value::bool(compare(op, a, b))),
        Some(_) => Ok(value(T::arith(op, a, b))),
    }
}

#[cold]
fn no_integer(op: BinOp, a: i64, b: i64) -> String {
    match op {
        BinOp::Div | BinOp::Rem => format!("integer {op:?} of {a} by {b} is undefined"),
        _ => format!("integer {op:?} of {a} by {b} overflows"),
    }
}

#[inline]
pub(crate) fn eval_un(op: UnOp, x: Value) -> Result<Value, String> {
    let Some((ty, _)) = un_tag(op, x.tag()) else {
        return Err(match op {
            UnOp::Neg => "neg on non-number".into(),
            UnOp::Abs => "abs on non-number".into(),
            _ => not_a_bool(x),
        });
    };
    Ok(match (op, ty) {
        (UnOp::ToF32 | UnOp::ToF64 | UnOp::ToI64, _) => cast(x, ty),
        (UnOp::Not, _) => Value::bool(x.as_i64() == 0),
        (_, Tag::F32) => Value::f32(f32::un(op, x.as_f32())),
        (_, Tag::F64) => Value::f64(f64::un(op, x.as_f64())),
        _ => {
            let a = x.as_i64();
            let overflows = || format!("integer {op:?} of {a} overflows");
            Value::i64(int_un(op, a).ok_or_else(overflows)?)
        }
    })
}

/// `v` as a number of type `ty`.
#[inline(always)]
pub(crate) fn cast(v: Value, ty: Tag) -> Value {
    match ty {
        Tag::F32 => Value::f32(v.as_f32()),
        Tag::F64 => Value::f64(v.as_f64()),
        Tag::I64 => Value::i64(v.as_i64()),
        Tag::Bool | Tag::Mem => unreachable!(),
    }
}

/// `v` as a statement's declared type.
#[inline]
pub(crate) fn coerce(v: Value, elem: Option<ElemType>) -> Result<Value, String> {
    Ok(match elem {
        Some(ElemType::Bool) => Value::bool(truth(v)?),
        Some(elem) => cast(v, Tag::of(elem)),
        None => v,
    })
}

/// A value where a boolean is required. The program is the request's: a
/// float there is its error, never a panic.
#[inline]
pub(crate) fn truth(v: Value) -> Result<bool, String> {
    match v.tag() {
        Tag::Bool | Tag::I64 => Ok(v.as_bool()),
        _ => Err(not_a_bool(v)),
    }
}

#[cold]
fn not_a_bool(v: Value) -> String {
    format!("{v:?} where a boolean is required")
}
