//! The one lock type of the workspace.

use std::sync::MutexGuard;

/// A mutex whose `lock` returns the guard directly.
///
/// Poisoning is transparent: the data of a mutex whose holder panicked
/// stays reachable, so one failed worker thread reports its own panic
/// instead of turning every later `lock` into a second one.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panicked_holder_does_not_poison_later_locks() {
        let m = Arc::new(Mutex::new(1));
        let held = Arc::clone(&m);
        let worker = std::thread::spawn(move || {
            let mut guard = held.lock();
            *guard = 2;
            panic!("holder dies with the guard");
        });
        assert!(worker.join().is_err());
        assert_eq!(*m.lock(), 2);
    }
}
