//! Typecheck-only stub for serde_json: just enough surface for the bench
//! crate's report plumbing (`Value`, `to_value`, `to_string{,_pretty}`,
//! `from_str`, `json!`). Produces no real JSON — `from_str` always errors
//! and every `Value` is `Null` — so it supports compiling the bench lib
//! offline, NOT running golden-diff comparisons (those need real cargo).

use std::fmt;

#[derive(Clone, Debug, Default, PartialEq)]
pub enum Value {
    #[default]
    Null,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("null")
    }
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        None
    }
    pub fn as_f64(&self) -> Option<f64> {
        None
    }
    pub fn as_u64(&self) -> Option<u64> {
        None
    }
    pub fn as_bool(&self) -> Option<bool> {
        None
    }
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        None
    }
    pub fn get<I>(&self, _index: I) -> Option<&Value> {
        None
    }
}

static NULL: Value = Value::Null;

impl<I> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, _index: I) -> &Value {
        &NULL
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, _other: &&str) -> bool {
        false
    }
}

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stub")
    }
}

impl std::error::Error for Error {}

pub fn to_value<T: serde::Serialize>(_v: T) -> Result<Value, Error> {
    Ok(Value::Null)
}

pub fn to_string<T: ?Sized + serde::Serialize>(_v: &T) -> Result<String, Error> {
    Ok(String::from("null"))
}

pub fn to_string_pretty<T: ?Sized + serde::Serialize>(_v: &T) -> Result<String, Error> {
    Ok(String::from("null"))
}

pub fn from_str<T>(_s: &str) -> Result<T, Error> {
    Err(Error)
}

#[macro_export]
macro_rules! json {
    ($($tt:tt)*) => {
        $crate::Value::Null
    };
}
