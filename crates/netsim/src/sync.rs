//! The lock behind the statistics handles the benchmark ledger still
//! reads (`DeviceHandle`, `ClientHandle`, `VictimHandle`, `UserHandle`,
//! `CpStatsHandle`). Every other agent or app owns its state, and scenario
//! code reads it back through [`crate::Simulator::agent`] /
//! [`crate::Simulator::app`]; `clippy.toml` refuses this type anywhere
//! else. It goes with the last of those shims (ROADMAP item 1).
#![allow(clippy::disallowed_types)]

use std::sync::{MutexGuard, PoisonError};

/// A `std::sync::Mutex` whose [`Mutex::lock`] returns the guard itself.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A mutex holding `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Lock. A poisoned lock means a simulation thread already panicked
    /// holding it, and that panic is the failure being reported; the
    /// handles guard plain counters that are valid after every update, so
    /// a later reader takes the inner guard instead of panicking again.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
