//! Runtime values.

use crate::heap::Handle;
use rafda_classmodel::Ty;
use std::fmt;
use std::sync::Arc;

/// A runtime value of the interpreter.
///
/// Strings are immutable and shared; object and array references are heap
/// [`Handle`]s local to one [`Vm`](crate::Vm) (one address space). A handle
/// from one VM is meaningless in another — crossing address spaces requires
/// marshalling (`rafda-wire`), exactly as in the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The `null` reference.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 32-bit signed integer.
    Int(i32),
    /// A 64-bit signed integer.
    Long(i64),
    /// A 32-bit float.
    Float(f32),
    /// A 64-bit float.
    Double(f64),
    /// An immutable shared string.
    Str(Arc<str>),
    /// Reference to a heap object or array.
    Ref(Handle),
}

impl Value {
    /// The default value for a declared type (JVM zero-values).
    pub fn default_for(ty: &Ty) -> Value {
        match ty {
            Ty::Bool => Value::Bool(false),
            Ty::Int => Value::Int(0),
            Ty::Long => Value::Long(0),
            Ty::Float => Value::Float(0.0),
            Ty::Double => Value::Double(0.0),
            Ty::Str | Ty::Object(_) | Ty::Array(_) | Ty::Void => Value::Null,
        }
    }

    /// Shorthand string constructor.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Truthiness for conditional branches (must be a `Bool`).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The `Int` payload, if any.
    pub fn as_int(&self) -> Option<i32> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The reference payload, if any.
    pub fn as_ref_handle(&self) -> Option<Handle> {
        match self {
            Value::Ref(h) => Some(*h),
            _ => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the value is a reference type (or null).
    pub fn is_reference(&self) -> bool {
        matches!(self, Value::Null | Value::Ref(_))
    }

    /// A short tag for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "int",
            Value::Long(_) => "long",
            Value::Float(_) => "float",
            Value::Double(_) => "double",
            Value::Str(_) => "String",
            Value::Ref(_) => "ref",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Long(i) => write!(f, "{i}L"),
            Value::Float(x) => write!(f, "{x}f"),
            Value::Double(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Ref(h) => write!(f, "@{h}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafda_classmodel::ClassId;

    #[test]
    fn defaults_are_jvm_zero_values() {
        assert_eq!(Value::default_for(&Ty::Int), Value::Int(0));
        assert_eq!(Value::default_for(&Ty::Bool), Value::Bool(false));
        assert_eq!(Value::default_for(&Ty::Object(ClassId(3))), Value::Null);
        assert_eq!(Value::default_for(&Ty::Str), Value::Null);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Long(3).as_int(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert!(Value::Null.is_reference());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::str("x"));
    }
}
