//! Runtime values.

use arraymem_ir::ElemType;
use arraymem_lmad::concrete::AccessClass;
use arraymem_lmad::ConcreteIxFn;

/// A runtime array: a block id plus a concrete index function.
#[derive(Clone, Debug)]
pub struct ArrayRef {
    pub block: usize,
    pub elem: ElemType,
    pub ixfn: ConcreteIxFn,
    /// Access tier of `ixfn`, classified once when the array value is
    /// created — or earlier, at plan-lower time, when the index function
    /// is statically known. Views over this array reuse it instead of
    /// re-classifying per access path.
    pub class: AccessClass,
}

impl ArrayRef {
    /// An array reference, classifying its index function now.
    pub fn new(block: usize, elem: ElemType, ixfn: ConcreteIxFn) -> ArrayRef {
        let class = ixfn.classify();
        ArrayRef {
            block,
            elem,
            ixfn,
            class,
        }
    }

    /// An array reference with a pre-computed access class (the lowering
    /// stage classifies statically-known index functions once per plan).
    pub fn with_class(
        block: usize,
        elem: ElemType,
        ixfn: ConcreteIxFn,
        class: AccessClass,
    ) -> ArrayRef {
        debug_assert_eq!(class, ixfn.classify());
        ArrayRef {
            block,
            elem,
            ixfn,
            class,
        }
    }
}

/// A runtime value.
#[derive(Clone, Debug)]
pub enum Value {
    F32(f32),
    F64(f64),
    I64(i64),
    Bool(bool),
    Mem(usize),
    Array(ArrayRef),
}

impl Value {
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(x) => *x,
            Value::Bool(b) => *b as i64,
            Value::F32(x) => *x as i64,
            Value::F64(x) => *x as i64,
            _ => panic!("not a scalar: {self:?}"),
        }
    }

    pub fn as_f32(&self) -> f32 {
        match self {
            Value::F32(x) => *x,
            Value::F64(x) => *x as f32,
            Value::I64(x) => *x as f32,
            Value::Bool(b) => *b as i64 as f32,
            _ => panic!("not a scalar: {self:?}"),
        }
    }

    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(x) => *x,
            Value::F32(x) => *x as f64,
            Value::I64(x) => *x as f64,
            Value::Bool(b) => *b as i64 as f64,
            _ => panic!("not a scalar: {self:?}"),
        }
    }

    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::I64(x) => *x != 0,
            _ => panic!("not a bool: {self:?}"),
        }
    }

    pub fn as_array(&self) -> &ArrayRef {
        match self {
            Value::Array(a) => a,
            _ => panic!("not an array: {self:?}"),
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
