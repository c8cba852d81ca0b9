//! Value and launch-geometry types.

use serde::{Deserialize, Serialize};

/// Scalar element types of the mini-CUDA dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScalarTy {
    /// 64-bit signed integer (the dialect's only integer type; wide enough
    /// for CUDA's `int`, `long` and size arithmetic).
    I64,
    /// IEEE 754 single precision (`float`).
    F32,
    /// IEEE 754 double precision (`double`).
    F64,
}

impl ScalarTy {
    /// Size of one element in bytes.
    #[inline]
    pub fn size_bytes(self) -> usize {
        match self {
            ScalarTy::I64 => 8,
            ScalarTy::F32 => 4,
            ScalarTy::F64 => 8,
        }
    }

    /// Is this a floating-point type?
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, ScalarTy::F32 | ScalarTy::F64)
    }
}

impl std::fmt::Display for ScalarTy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalarTy::I64 => write!(f, "int"),
            ScalarTy::F32 => write!(f, "float"),
            ScalarTy::F64 => write!(f, "double"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I64(i64),
    F32(f32),
    F64(f64),
}

impl Value {
    /// The value's type.
    #[inline]
    pub fn ty(self) -> ScalarTy {
        match self {
            Value::I64(_) => ScalarTy::I64,
            Value::F32(_) => ScalarTy::F32,
            Value::F64(_) => ScalarTy::F64,
        }
    }

    /// Interpret as an integer (integers only).
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric value as f64 (lossy for big i64).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I64(v) => v as f64,
            Value::F32(v) => v as f64,
            Value::F64(v) => v,
        }
    }

    /// Truthiness for conditions: nonzero.
    #[inline]
    pub fn is_truthy(self) -> bool {
        match self {
            Value::I64(v) => v != 0,
            Value::F32(v) => v != 0.0,
            Value::F64(v) => v != 0.0,
        }
    }

    /// The zero value of a type.
    pub fn zero(ty: ScalarTy) -> Value {
        match ty {
            ScalarTy::I64 => Value::I64(0),
            ScalarTy::F32 => Value::F32(0.0),
            ScalarTy::F64 => Value::F64(0.0),
        }
    }

    /// Cast to another scalar type with C semantics.
    #[inline]
    pub fn cast(self, ty: ScalarTy) -> Value {
        match ty {
            ScalarTy::I64 => Value::I64(match self {
                Value::I64(v) => v,
                Value::F32(v) => v as i64,
                Value::F64(v) => v as i64,
            }),
            ScalarTy::F32 => Value::F32(match self {
                Value::I64(v) => v as f32,
                Value::F32(v) => v,
                Value::F64(v) => v as f32,
            }),
            ScalarTy::F64 => Value::F64(self.as_f64()),
        }
    }

    /// Encode into little-endian bytes (length = `ty().size_bytes()`).
    #[inline]
    pub fn to_le_bytes(self, out: &mut [u8]) {
        match self {
            Value::I64(v) => out.copy_from_slice(&v.to_le_bytes()),
            Value::F32(v) => out.copy_from_slice(&v.to_le_bytes()),
            Value::F64(v) => out.copy_from_slice(&v.to_le_bytes()),
        }
    }

    /// Decode from little-endian bytes.
    #[inline]
    pub fn from_le_bytes(ty: ScalarTy, bytes: &[u8]) -> Value {
        match ty {
            ScalarTy::I64 => Value::I64(i64::from_le_bytes(bytes.try_into().unwrap())),
            ScalarTy::F32 => Value::F32(f32::from_le_bytes(bytes.try_into().unwrap())),
            ScalarTy::F64 => Value::F64(f64::from_le_bytes(bytes.try_into().unwrap())),
        }
    }
}

/// CUDA-style 3-component extent/index. `x` is the fastest-varying
/// dimension (matches `dim3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// A 1-D extent.
    pub fn new1(x: u32) -> Dim3 {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D extent.
    pub fn new2(x: u32, y: u32) -> Dim3 {
        Dim3 { x, y, z: 1 }
    }

    /// A 3-D extent.
    pub fn new3(x: u32, y: u32, z: u32) -> Dim3 {
        Dim3 { x, y, z }
    }

    /// Total element count `x*y*z`.
    pub fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// Components in `[z, y, x]` order — the tuple order the paper uses
    /// for partitions and access-map dimensions.
    pub fn zyx(self) -> [i64; 3] {
        [self.z as i64, self.y as i64, self.x as i64]
    }

    /// Build from `[z, y, x]` order.
    pub fn from_zyx(zyx: [i64; 3]) -> Dim3 {
        Dim3 {
            x: zyx[2] as u32,
            y: zyx[1] as u32,
            z: zyx[0] as u32,
        }
    }
}

impl std::fmt::Display for Dim3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_casts() {
        assert_eq!(Value::F64(2.9).cast(ScalarTy::I64), Value::I64(2));
        assert_eq!(Value::I64(-3).cast(ScalarTy::F32), Value::F32(-3.0));
        assert_eq!(Value::F32(1.5).cast(ScalarTy::F64), Value::F64(1.5));
    }

    #[test]
    fn value_bytes_roundtrip() {
        for v in [Value::I64(-42), Value::F32(3.25), Value::F64(-0.125)] {
            let mut buf = vec![0u8; v.ty().size_bytes()];
            v.to_le_bytes(&mut buf);
            assert_eq!(Value::from_le_bytes(v.ty(), &buf), v);
        }
    }

    #[test]
    fn truthiness() {
        assert!(Value::I64(2).is_truthy());
        assert!(!Value::I64(0).is_truthy());
        assert!(!Value::F32(0.0).is_truthy());
    }

    #[test]
    fn dim3_orders() {
        let d = Dim3::new3(4, 3, 2);
        assert_eq!(d.count(), 24);
        assert_eq!(d.zyx(), [2, 3, 4]);
        assert_eq!(Dim3::from_zyx([2, 3, 4]), d);
    }
}
