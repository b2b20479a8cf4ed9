//! Offline stand-in for `parking_lot`: the one type the workspace uses.

use std::sync::{Mutex as StdMutex, MutexGuard};

/// A mutex whose `lock` returns the guard directly, like parking_lot's.
///
/// parking_lot has no poisoning; the data of a mutex whose holder
/// panicked stays reachable here too.
#[derive(Debug, Default)]
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self(StdMutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}
