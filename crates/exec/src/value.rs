//! Runtime values.
//!
//! A register holds a [`Value`]: a scalar or a block handle, `Copy` and two
//! words — a tag and its bits. Arrays are not values: an array is a block
//! id plus an index function ([`ArrayRef`]), kept in a table beside the
//! register file, one entry per array-typed slot, its index function
//! handed out by reference count — never by deep copy.

use arraymem_ir::ElemType;
use arraymem_lmad::ConcreteIxFn;
use std::sync::Arc;

/// A runtime array: a block id plus a concrete index function, shared
/// with every other slot that names the same array.
#[derive(Clone, Debug)]
pub(crate) struct ArrayRef {
    pub block: usize,
    pub elem: ElemType,
    pub ixfn: Arc<ConcreteIxFn>,
}

impl ArrayRef {
    pub fn new(block: usize, elem: ElemType, ixfn: ConcreteIxFn) -> ArrayRef {
        let ixfn = Arc::new(ixfn);
        ArrayRef { block, elem, ixfn }
    }
}

/// What the word of a [`Value`] means.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Tag {
    F32,
    F64,
    I64,
    Bool,
    /// A handle to a memory block.
    Mem,
}

impl Tag {
    /// The tag of an element of type `elem`.
    #[inline]
    pub(crate) fn of(elem: ElemType) -> Tag {
        match elem {
            ElemType::F32 => Tag::F32,
            ElemType::F64 => Tag::F64,
            ElemType::I64 => Tag::I64,
            ElemType::Bool => Tag::Bool,
        }
    }
}

/// What a register holds — a scalar, or a memory block handle — as a
/// tag and one word of bits (`f32` bits in the low half, booleans 0/1).
///
/// Two plain scalars rather than an enum over differently-sized payloads:
/// every load of a value reads exactly what a store wrote, and a value
/// travels in two machine registers. (An enum is written piecewise and
/// moved as one 16-byte block, which stalls the load at every operand.)
#[derive(Clone, Copy)]
pub struct Value {
    tag: Tag,
    bits: u64,
}

// Registers are words: the scalar paths copy values freely and never drop.
const _: () = assert!(size_of::<Value>() <= 16);
const _: () = {
    const fn is_copy<T: Copy>() {}
    is_copy::<Value>()
};

impl Value {
    /// The value a word means under `tag` (an `f32` in its low half).
    #[inline]
    pub(crate) const fn new(tag: Tag, bits: u64) -> Value {
        Value { tag, bits }
    }

    #[inline]
    pub fn f32(x: f32) -> Value {
        Value::new(Tag::F32, x.to_bits() as u64)
    }

    #[inline]
    pub fn f64(x: f64) -> Value {
        Value::new(Tag::F64, x.to_bits())
    }

    #[inline]
    pub fn i64(x: i64) -> Value {
        Value::new(Tag::I64, x as u64)
    }

    #[inline]
    pub fn bool(x: bool) -> Value {
        Value::new(Tag::Bool, x as u64)
    }

    /// A block handle ([`MemStore::handle`](crate::store::MemStore::handle)):
    /// the block id in the low 32 bits, its generation in the high 32.
    #[inline]
    pub(crate) fn mem((block, generation): (usize, u32)) -> Value {
        debug_assert!(
            block <= u32::MAX as usize,
            "block id {block} outgrows a handle"
        );
        Value::new(Tag::Mem, block as u64 | (generation as u64) << 32)
    }

    /// A value of element type `elem` from the word a block stores for it.
    #[inline]
    pub(crate) fn of_word(elem: ElemType, w: u64) -> Value {
        match elem {
            ElemType::F32 => Value::f32(f32::from_bits(w as u32)),
            ElemType::F64 => Value::f64(f64::from_bits(w)),
            ElemType::I64 => Value::i64(w as i64),
            ElemType::Bool => Value::bool(w != 0),
        }
    }

    #[inline]
    pub(crate) fn tag(&self) -> Tag {
        self.tag
    }

    #[inline]
    pub fn as_i64(&self) -> i64 {
        match self.tag {
            Tag::I64 | Tag::Bool => self.bits as i64,
            Tag::F32 => f32::from_bits(self.bits as u32) as i64,
            Tag::F64 => f64::from_bits(self.bits) as i64,
            Tag::Mem => not_a("scalar", self),
        }
    }

    #[inline]
    pub fn as_f32(&self) -> f32 {
        match self.tag {
            Tag::F32 => f32::from_bits(self.bits as u32),
            Tag::F64 => f64::from_bits(self.bits) as f32,
            Tag::I64 | Tag::Bool => self.bits as i64 as f32,
            Tag::Mem => not_a("scalar", self),
        }
    }

    #[inline]
    pub fn as_f64(&self) -> f64 {
        match self.tag {
            Tag::F64 => f64::from_bits(self.bits),
            Tag::F32 => f32::from_bits(self.bits as u32) as f64,
            Tag::I64 | Tag::Bool => self.bits as i64 as f64,
            Tag::Mem => not_a("scalar", self),
        }
    }

    #[inline]
    pub fn as_bool(&self) -> bool {
        match self.tag {
            Tag::Bool | Tag::I64 => self.bits != 0,
            _ => not_a("bool", self),
        }
    }

    /// The block id, if this is a block handle.
    #[inline]
    pub(crate) fn as_mem(&self) -> Option<usize> {
        (self.tag == Tag::Mem).then_some(self.bits as u32 as usize)
    }

    /// The block id and generation, if this is a block handle.
    #[inline]
    pub(crate) fn as_handle(&self) -> Option<(usize, u32)> {
        (self.tag == Tag::Mem).then_some((self.bits as u32 as usize, (self.bits >> 32) as u32))
    }
}

#[cold]
#[inline(never)]
fn not_a(what: &str, v: &Value) -> ! {
    panic!("not a {what}: {v:?}")
}

/// Prints as the enum it reads like: `I64(3)`, `F32(1.5)`, `Mem(2)`.
impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.tag {
            Tag::F32 => write!(f, "F32({:?})", self.as_f32()),
            Tag::F64 => write!(f, "F64({:?})", self.as_f64()),
            Tag::I64 => write!(f, "I64({:?})", self.as_i64()),
            Tag::Bool => write!(f, "Bool({:?})", self.bits != 0),
            Tag::Mem => write!(f, "Mem({:?})", self.bits as u32),
        }
    }
}

/// Program inputs supplied by the harness.
#[derive(Clone, Debug)]
pub enum InputValue {
    I64(i64),
    F32(f32),
    F64(f64),
    Bool(bool),
    ArrayF32(Vec<f32>),
    ArrayF64(Vec<f64>),
    ArrayI64(Vec<i64>),
}

impl InputValue {
    /// An array input's element type and its data as raw bytes (`None`
    /// for a scalar) — how inputs enter the untyped block store.
    pub(crate) fn array_bytes(&self) -> Option<(ElemType, &[u8])> {
        fn bytes<T: Copy>(d: &[T]) -> &[u8] {
            // SAFETY: only instantiated at f32/f64/i64 below — plain data
            // without padding, so every byte of `d` is an initialized
            // `u8`; the slice covers exactly `d` and shares its lifetime.
            unsafe { std::slice::from_raw_parts(d.as_ptr() as *const u8, size_of_val(d)) }
        }
        match self {
            InputValue::ArrayF32(d) => Some((ElemType::F32, bytes(d))),
            InputValue::ArrayF64(d) => Some((ElemType::F64, bytes(d))),
            InputValue::ArrayI64(d) => Some((ElemType::I64, bytes(d))),
            _ => None,
        }
    }
}

/// Program outputs extracted in logical row-major order.
#[derive(Clone, Debug, PartialEq)]
pub enum OutputValue {
    I64(i64),
    F32(f32),
    F64(f64),
    Bool(bool),
    ArrayF32(Vec<f32>),
    ArrayF64(Vec<f64>),
    ArrayI64(Vec<i64>),
}

impl OutputValue {
    pub fn as_f32s(&self) -> &[f32] {
        match self {
            OutputValue::ArrayF32(v) => v,
            _ => panic!("not an f32 array"),
        }
    }

    pub fn as_i64s(&self) -> &[i64] {
        match self {
            OutputValue::ArrayI64(v) => v,
            _ => panic!("not an i64 array"),
        }
    }

    /// Approximate equality for float arrays (used to validate the memory
    /// machine against the pure interpreter and the references).
    pub fn approx_eq(&self, other: &OutputValue, tol: f64) -> bool {
        match (self, other) {
            (OutputValue::ArrayF32(a), OutputValue::ArrayF32(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| {
                        let d = (*x as f64 - *y as f64).abs();
                        d <= tol * (1.0 + x.abs().max(y.abs()) as f64)
                    })
            }
            (OutputValue::ArrayF64(a), OutputValue::ArrayF64(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
            }
            (OutputValue::F32(a), OutputValue::F32(b)) => {
                (*a as f64 - *b as f64).abs() <= tol * (1.0 + a.abs().max(b.abs()) as f64)
            }
            _ => self == other,
        }
    }
}
