//! Minimal synchronization primitives for the simulated machine.
//!
//! The workspace builds with no external crates, so the one piece of
//! parking_lot the machine used is provided here on top of `std`: a
//! panic-transparent [`Mutex`] (lock-poisoning is ignored — a panicking
//! rank already poisons the whole run via the `poisoned` flag).

use std::sync::{self, MutexGuard};

/// A mutex whose `lock` never returns a poison error: if a thread
/// panicked while holding the lock, the data is handed out anyway. The
/// machine's cost ledgers and inboxes stay consistent under panics
/// because every mutation is a single short critical section.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value` in a mutex.
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
