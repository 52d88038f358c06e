//! Offline stand-in for `parking_lot`, wrapping `std::sync` primitives.
//!
//! parking_lot's locks differ from std's in that they do not poison: a
//! panic while holding the lock leaves it usable. The shim reproduces that
//! by stripping `PoisonError` (taking the guard out of the error), which
//! matches parking_lot semantics closely enough for the weight-slot and
//! workspace-pool use in this workspace.

use std::sync::{self, PoisonError};

/// Reader–writer lock with parking_lot's non-poisoning `read`/`write` API.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create a lock owning `value`.
    pub fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }

    /// Acquire a shared read guard (never errors; poison is ignored).
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard (never errors; poison is ignored).
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Mutex with parking_lot's non-poisoning `lock` API.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a mutex owning `value`.
    pub fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    /// Acquire the lock (never errors; poison is ignored).
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() = 2;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn mutex_lock() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }
}
