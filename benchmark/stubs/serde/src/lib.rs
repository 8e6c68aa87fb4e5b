//! Typecheck-only stub for serde. The traits are blanket-implemented so
//! `T: Serialize` bounds (e.g. in the bench crate's report tables) are
//! satisfiable even though the derive stub expands to nothing.
pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}
