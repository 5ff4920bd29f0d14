//! Offline stand-in for `serde`, serialization only.
//!
//! The real serde decouples data structures from formats through a
//! visitor API; this workspace only ever serializes experiment results to
//! JSON, so the stand-in collapses the design to a JSON value tree:
//! [`Serialize`] renders `self` as a [`Value`], and the `serde_json`
//! stand-in pretty-prints it. `#[derive(Serialize)]` comes from the
//! sibling `serde_derive` proc macro.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

pub use serde_derive::Serialize;

/// A JSON value tree (the stand-in's entire data model).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers are rendered without a decimal point.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// Types renderable as a JSON [`Value`].
pub trait Serialize {
    /// Renders `self` as a JSON value tree.
    fn to_value(&self) -> Value;

    /// The value tree, borrowed where `self` already is one: writers call
    /// this so that serializing a [`Value`] does not deep-clone it.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

macro_rules! impl_ser_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}

impl_ser_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Value {
    /// Object field lookup; `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

impl<K: ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: ToString, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic output
        Value::Object(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_render() {
        assert_eq!(3u32.to_value(), Value::Number(3.0));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::String("x".into()));
        assert_eq!(None::<u8>.to_value(), Value::Null);
        assert_eq!(
            vec![1u8, 2].to_value(),
            Value::Array(vec![Value::Number(1.0), Value::Number(2.0)])
        );
    }

    #[test]
    fn values_are_borrowed_not_cloned() {
        let v = Value::String("page".into());
        assert!(matches!(v.as_value(), Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        assert!(matches!(
            <&Value as Serialize>::as_value(&&v),
            Cow::Borrowed(_)
        ));
        assert_eq!(3u8.as_value(), Cow::<Value>::Owned(Value::Number(3.0)));
    }
}
