//! std-only stand-in for the part of `parking_lot` 0.12 that `pdm` uses:
//! a non-poisoning [`Mutex`], and an [`RwLock`] whose guards can own an
//! `Arc` of the lock (`arc_lock`: `read_arc` / `write_arc`).
//!
//! It exists so `benchmark/` builds offline against an empty registry.  It
//! is not tuned: every lock is a `std::sync::Mutex` plus a `Condvar`.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar};

pub use std::sync::MutexGuard;

/// `std::sync::Mutex` with `parking_lot`'s poison-free `lock`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.  A panic in another holder does not
    /// poison the lock, as in `parking_lot`.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Marker naming the raw lock in the arc guard types, as `parking_lot`
/// spells them (`ArcRwLockReadGuard<RawRwLock, T>`).
pub struct RawRwLock(());

/// Holder count: `-1` one writer, `0` free, `n > 0` that many readers.
#[derive(Default)]
struct Holders {
    count: std::sync::Mutex<isize>,
    released: Condvar,
}

impl Holders {
    fn state(&self) -> std::sync::MutexGuard<'_, isize> {
        // The count is only ever updated in one step, so it is valid even
        // if a holder of this inner mutex panicked.
        self.count.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn acquire_shared(&self) {
        let mut n = self.state();
        while *n < 0 {
            n = self.released.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        *n += 1;
    }

    fn acquire_exclusive(&self) {
        let mut n = self.state();
        while *n != 0 {
            n = self.released.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        *n = -1;
    }

    fn release_shared(&self) {
        let mut n = self.state();
        *n -= 1;
        if *n == 0 {
            self.released.notify_all();
        }
    }

    fn release_exclusive(&self) {
        *self.state() = 0;
        self.released.notify_all();
    }
}

/// Reader-writer lock with borrowed and `Arc`-owning guards.
pub struct RwLock<T: ?Sized> {
    holders: Holders,
    data: UnsafeCell<T>,
}

// SAFETY: `holders` admits either one exclusive guard or any number of
// shared guards, and `data` is reached only through a guard.  Sending the
// lock sends the `T`; sharing it hands `&T` to several threads (readers)
// and `&mut T` to one (writer), hence `Send + Sync` on `T` for `Sync`.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock {
            holders: Holders::default(),
            data: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.holders.acquire_shared();
        RwLockReadGuard { lock: self }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.holders.acquire_exclusive();
        RwLockWriteGuard { lock: self }
    }

    /// Shared access through a guard that keeps the lock alive itself.
    pub fn read_arc(this: &Arc<Self>) -> ArcRwLockReadGuard<RawRwLock, T> {
        this.holders.acquire_shared();
        ArcRwLockReadGuard {
            lock: Arc::clone(this),
            raw: PhantomData,
        }
    }

    /// Exclusive access through a guard that keeps the lock alive itself.
    pub fn write_arc(this: &Arc<Self>) -> ArcRwLockWriteGuard<RawRwLock, T> {
        this.holders.acquire_exclusive();
        ArcRwLockWriteGuard {
            lock: Arc::clone(this),
            raw: PhantomData,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

pub struct ArcRwLockReadGuard<R, T: ?Sized> {
    lock: Arc<RwLock<T>>,
    raw: PhantomData<R>,
}

pub struct ArcRwLockWriteGuard<R, T: ?Sized> {
    lock: Arc<RwLock<T>>,
    raw: PhantomData<R>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds a shared count, so no writer exists.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.holders.release_shared();
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard is the only holder.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard is the only holder, and it is borrowed mutably.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.holders.release_exclusive();
    }
}

impl<R, T: ?Sized> Deref for ArcRwLockReadGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds a shared count, so no writer exists; the
        // `Arc` keeps the lock and its data alive.
        unsafe { &*self.lock.data.get() }
    }
}

impl<R, T: ?Sized> Drop for ArcRwLockReadGuard<R, T> {
    fn drop(&mut self) {
        self.lock.holders.release_shared();
    }
}

impl<R, T: ?Sized> Deref for ArcRwLockWriteGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard is the only holder; the `Arc` keeps the data alive.
        unsafe { &*self.lock.data.get() }
    }
}

impl<R, T: ?Sized> DerefMut for ArcRwLockWriteGuard<R, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard is the only holder, and it is borrowed mutably.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<R, T: ?Sized> Drop for ArcRwLockWriteGuard<R, T> {
    fn drop(&mut self) {
        self.lock.holders.release_exclusive();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn arc_write_guard_releases_on_drop() {
        let lock = Arc::new(RwLock::new(vec![0u8; 4]));
        let mut w = RwLock::write_arc(&lock);
        w[0] = 7;
        // A writer elsewhere must wait for `w`: force the interleaving
        // with a channel, not a sleep.
        let (tx, rx) = mpsc::channel();
        let other = Arc::clone(&lock);
        let t = std::thread::spawn(move || {
            tx.send(()).unwrap();
            let mut g = RwLock::write_arc(&other);
            g[1] = g[0] + 1;
        });
        rx.recv().unwrap();
        assert_eq!(w[1], 0, "second writer ran while the first guard was live");
        drop(w);
        t.join().unwrap();
        assert_eq!(&lock.read()[..2], &[7, 8]);
    }

    #[test]
    fn arc_read_guards_share_and_release() {
        let lock = Arc::new(RwLock::new(5u32));
        let a = RwLock::read_arc(&lock);
        let b = RwLock::read_arc(&lock);
        assert_eq!(*a + *b, 10);
        drop(a);
        drop(b);
        *lock.write() = 6;
        assert_eq!(*RwLock::read_arc(&lock), 6);
    }

    #[test]
    fn arc_guard_outlives_other_handles() {
        let lock = Arc::new(RwLock::new(String::from("kept")));
        let g = RwLock::read_arc(&lock);
        drop(lock);
        assert_eq!(&*g, "kept");
    }
}
