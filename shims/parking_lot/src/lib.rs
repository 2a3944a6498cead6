//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors minimal, API-compatible substitutes for the handful of external
//! crates it uses (see `DESIGN.md`, "Dependency policy"). This one wraps
//! `std::sync` primitives behind `parking_lot`'s panic-free interface:
//! `lock()`/`read()`/`write()` return guards directly and poisoning is
//! swallowed (a poisoned std lock yields its inner guard), which matches
//! parking_lot's no-poisoning semantics closely enough for this codebase.
//!
//! # The lock-rank witness
//!
//! One thing here is *not* parking_lot's API: every lock has a [`Rank`],
//! and debug builds check the rank order where locks are taken. A lock
//! made by `new`/`default` is a **leaf** — nothing may be acquired while
//! it is held. A lock that is ever held while another is taken is made by
//! `with_rank(RANK, value)`, and a thread may acquire a lock only when
//! its rank is strictly greater than the rank of every lock the thread
//! already holds; anything else panics, naming both locks, both ranks and
//! where the held one was taken. Two locks of equal rank (two leaves, two
//! connections' `state`, the same `RwLock` read twice) therefore never
//! nest, which also rules out the recursive read that deadlocks against a
//! queued writer.
//!
//! The held set is thread-local and entries are removed by lock identity
//! when their guard drops, so guards dropped out of order, guards
//! returned to callers, `try_*` successes (recorded, never checked: a
//! `try_*` cannot wait) and `Condvar::wait` (releases, then re-acquires
//! under the same check) are all exact. The witness sees the paths a
//! process actually executes, nothing else; it exists only under
//! `cfg(debug_assertions)`, so release builds carry no rank, no held set
//! and no `Drop` on guards — `Mutex<T>` is `std::sync::Mutex<T>` there.

use std::sync;

/// A lock's place in the workspace lock hierarchy: a level (outer locks
/// low, inner locks high) and the name violations are reported under.
/// The one table of ranks is `mmdb_types::lock_rank`.
#[derive(Debug, Clone, Copy)]
pub struct Rank {
    level: u16,
    name: &'static str,
}

impl Rank {
    /// A rank at `level`. `u16::MAX` is reserved for leaf locks.
    pub const fn new(level: u16, name: &'static str) -> Rank {
        assert!(level < u16::MAX, "u16::MAX is the leaf rank");
        Rank { level, name }
    }

    pub const fn level(&self) -> u16 {
        self.level
    }

    pub const fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(debug_assertions)]
mod witness {
    use super::Rank;
    use std::cell::RefCell;
    use std::panic::Location;

    /// The rank of every lock made without one. Its name is filled in
    /// with the protected type at acquisition.
    pub const LEAF: Rank = Rank {
        level: u16::MAX,
        name: "",
    };

    #[derive(Clone, Copy)]
    struct Held {
        /// Address of the lock: stable while any guard of it lives.
        id: usize,
        rank: Rank,
        at: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    fn describe(rank: Rank) -> String {
        if rank.level == LEAF.level {
            format!("leaf lock \"{}\"", rank.name)
        } else {
            format!("\"{}\" (rank {})", rank.name, rank.level)
        }
    }

    /// Panic unless `rank` exceeds the rank of every lock this thread
    /// holds. Runs before the acquisition, so nothing new is held when
    /// it unwinds. Silent once the thread's locals are gone.
    #[track_caller]
    pub fn check(rank: Rank) {
        let highest =
            HELD.try_with(|held| held.borrow().iter().max_by_key(|h| h.rank.level).copied());
        let Ok(Some(h)) = highest else { return };
        assert!(
            h.rank.level < rank.level,
            "lock order violation: acquiring {} while holding {} taken at {}; \
             a lock may be taken only while every held lock has a lower rank",
            describe(rank),
            describe(h.rank),
            h.at,
        );
    }

    #[track_caller]
    pub fn acquired(id: usize, rank: Rank) {
        let at = Location::caller();
        let _ = HELD.try_with(|held| held.borrow_mut().push(Held { id, rank, at }));
    }

    /// Runs from guard drops, possibly while unwinding: never panics.
    pub fn released(id: usize) {
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(at) = held.iter().rposition(|h| h.id == id) {
                held.remove(at);
            }
        });
    }
}

/// A lock's identity in the held set: its address.
#[cfg(debug_assertions)]
fn lock_id<L: ?Sized>(lock: &L) -> usize {
    lock as *const L as *const () as usize
}

/// A leaf's name in a violation report: the type it protects.
#[cfg(debug_assertions)]
fn named<T: ?Sized>(rank: Rank) -> Rank {
    if rank.level == witness::LEAF.level {
        Rank {
            name: std::any::type_name::<T>(),
            ..rank
        }
    } else {
        rank
    }
}

/// A mutex whose `lock` never returns a poison error.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: Rank,
    inner: sync::Mutex<T>,
}

/// Guard for [`Mutex`]. Holds the std guard in an `Option` so that
/// [`Condvar::wait`] can temporarily take it (std's wait consumes the
/// guard; parking_lot's borrows it).
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<sync::MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    id: usize,
    #[cfg(debug_assertions)]
    rank: Rank,
}

impl<T> Mutex<T> {
    /// A leaf mutex: nothing may be acquired while it is held.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            #[cfg(debug_assertions)]
            rank: witness::LEAF,
            inner: sync::Mutex::new(value),
        }
    }

    /// A mutex that may be held while locks of a higher rank are taken.
    pub const fn with_rank(rank: Rank, value: T) -> Mutex<T> {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Mutex {
            #[cfg(debug_assertions)]
            rank,
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Wrap a freshly taken std guard, recording it as held.
    #[cfg_attr(debug_assertions, track_caller)]
    fn guard<'a>(&'a self, guard: sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(debug_assertions)]
        let (id, rank) = (lock_id(self), named::<T>(self.rank));
        #[cfg(debug_assertions)]
        witness::acquired(id, rank);
        MutexGuard {
            guard: Some(guard),
            #[cfg(debug_assertions)]
            id,
            #[cfg(debug_assertions)]
            rank,
        }
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        witness::check(named::<T>(self.rank));
        self.guard(match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        })
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(self.guard(g)),
            Err(sync::TryLockError::Poisoned(p)) => Some(self.guard(p.into_inner())),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        witness::released(self.id);
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard
            .as_ref()
            .expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_mut()
            .expect("guard taken during condvar wait")
    }
}

/// Condition variable with parking_lot's borrow-the-guard `wait`.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// A wait gives the mutex up and takes it again: to the witness that
    /// is a release and a fresh acquisition under whatever else the
    /// thread still holds, checked before the thread parks.
    #[cfg_attr(debug_assertions, track_caller)]
    fn waiting<'a, T, R>(
        guard: &mut MutexGuard<'a, T>,
        wait: impl FnOnce(sync::MutexGuard<'a, T>) -> (sync::MutexGuard<'a, T>, R),
    ) -> R {
        #[cfg(debug_assertions)]
        {
            witness::released(guard.id);
            // A violation unwinds from here with the mutex still locked
            // but already out of the held set; the guard's own release on
            // the way out is then a no-op.
            witness::check(guard.rank);
        }
        let g = guard.guard.take().expect("guard already taken");
        let (g, res) = wait(g);
        guard.guard = Some(g);
        #[cfg(debug_assertions)]
        witness::acquired(guard.id, guard.rank);
        res
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        Self::waiting(guard, |g| match self.inner.wait(g) {
            Ok(g) => (g, ()),
            Err(p) => (p.into_inner(), ()),
        })
    }

    /// Waits with a timeout; returns true when the wait timed out.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        Self::waiting(guard, |g| match self.inner.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r.timed_out()),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r.timed_out())
            }
        })
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A reader-writer lock whose accessors never return poison errors.
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: Rank,
    inner: sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    id: usize,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    id: usize,
}

impl<T> RwLock<T> {
    /// A leaf lock: nothing may be acquired while it is held.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            #[cfg(debug_assertions)]
            rank: witness::LEAF,
            inner: sync::RwLock::new(value),
        }
    }

    /// A lock that may be held while locks of a higher rank are taken.
    pub const fn with_rank(rank: Rank, value: T) -> RwLock<T> {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        RwLock {
            #[cfg(debug_assertions)]
            rank,
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn read_guard<'a>(&'a self, guard: sync::RwLockReadGuard<'a, T>) -> RwLockReadGuard<'a, T> {
        #[cfg(debug_assertions)]
        witness::acquired(lock_id(self), named::<T>(self.rank));
        RwLockReadGuard {
            guard,
            #[cfg(debug_assertions)]
            id: lock_id(self),
        }
    }

    #[cfg_attr(debug_assertions, track_caller)]
    fn write_guard<'a>(&'a self, guard: sync::RwLockWriteGuard<'a, T>) -> RwLockWriteGuard<'a, T> {
        #[cfg(debug_assertions)]
        witness::acquired(lock_id(self), named::<T>(self.rank));
        RwLockWriteGuard {
            guard,
            #[cfg(debug_assertions)]
            id: lock_id(self),
        }
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        witness::check(named::<T>(self.rank));
        self.read_guard(match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        })
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        witness::check(named::<T>(self.rank));
        self.write_guard(match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        })
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(self.read_guard(g)),
            Err(sync::TryLockError::Poisoned(p)) => Some(self.read_guard(p.into_inner())),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(self.write_guard(g)),
            Err(sync::TryLockError::Poisoned(p)) => Some(self.write_guard(p.into_inner())),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        witness::released(self.id);
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        witness::released(self.id);
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_and_rwlock_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let rw = RwLock::new(vec![1, 2]);
        assert_eq!(rw.read().len(), 2);
        rw.write().push(3);
        assert_eq!(rw.read().len(), 3);
        assert!(m.try_lock().is_some());
        assert!(rw.try_read().is_some());
        assert!(rw.try_write().is_some());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(10)));
    }

    const OUTER: Rank = Rank::new(10, "test.outer");
    const INNER: Rank = Rank::new(20, "test.inner");

    /// The witness, armed: `cargo test` builds with debug assertions.
    #[cfg(debug_assertions)]
    mod armed {
        use super::*;

        #[test]
        #[should_panic(
            expected = "acquiring \"test.outer\" (rank 10) while holding \"test.inner\" (rank 20)"
        )]
        fn an_inversion_panics_naming_both_locks_and_both_ranks() {
            let outer = Mutex::with_rank(OUTER, ());
            let inner = RwLock::with_rank(INNER, ());
            let _inner = inner.read();
            let _outer = outer.lock();
        }

        #[test]
        fn ascending_ranks_nest_down_to_a_leaf() {
            let outer = Mutex::with_rank(OUTER, 1);
            let inner = RwLock::with_rank(INNER, 2);
            let leaf = Mutex::new(3);
            let a = outer.lock();
            let b = inner.write();
            let c = leaf.lock();
            assert_eq!(*a + *b + *c, 6);
        }

        #[test]
        #[should_panic(expected = "while holding leaf lock \"alloc::vec::Vec<u8>\"")]
        fn nothing_is_taken_under_a_leaf_not_even_another_leaf() {
            let held = Mutex::new(Vec::<u8>::new());
            let other = RwLock::new(0u8);
            let _held = held.lock();
            let _other = other.read();
        }

        #[test]
        #[should_panic(expected = "lock order violation")]
        fn reading_the_same_rwlock_twice_is_an_equal_rank_nesting() {
            // std's RwLock may park the second read behind a queued writer,
            // which waits for the first: the nesting the witness refuses.
            let rw = RwLock::with_rank(OUTER, ());
            let _first = rw.read();
            let _second = rw.read();
        }

        #[test]
        fn try_lock_records_a_success_unchecked_and_nothing_for_a_failure() {
            let outer = Mutex::with_rank(OUTER, ());
            let inner = Mutex::with_rank(INNER, ());

            let held = inner.lock();
            assert!(inner.try_lock().is_none());
            drop(held);
            // The failure left no entry behind: nothing is held.
            drop(outer.lock());

            // A success is held like any other guard...
            let tried = inner.try_lock().expect("uncontended");
            assert!(std::panic::catch_unwind(|| drop(outer.lock())).is_err());
            drop(tried);
            // ...but taking it is never refused: a try cannot wait.
            let _inner = inner.lock();
            let _outer = outer.try_lock().expect("uncontended");
        }

        #[test]
        fn guards_dropped_out_of_order_release_by_identity() {
            let outer = Mutex::with_rank(OUTER, ());
            let inner = Mutex::with_rank(INNER, ());
            let a = outer.lock();
            let b = inner.lock();
            drop(a);
            // Only `inner` is held now: `outer` would be an inversion...
            let caught = std::panic::catch_unwind(|| drop(outer.lock()));
            assert!(caught.is_err());
            drop(b);
            // ...and with nothing held, either order is a fresh start.
            let _a = outer.lock();
            let _b = inner.lock();
        }

        #[test]
        fn a_guard_returned_from_a_helper_is_still_held_by_the_caller() {
            fn helper(m: &Mutex<u8>) -> MutexGuard<'_, u8> {
                m.lock()
            }
            let outer = Mutex::with_rank(OUTER, 0);
            let inner = Mutex::with_rank(INNER, 0u8);
            let g = helper(&inner);
            assert!(std::panic::catch_unwind(|| drop(outer.lock())).is_err());
            drop(g);
            drop(outer.lock());
        }

        #[test]
        fn condvar_waits_release_and_retake_under_the_check() {
            let outer = Mutex::with_rank(OUTER, ());
            let inner = Mutex::with_rank(INNER, ());
            let cv = Condvar::new();

            // In order: `outer` stays held across the wait, `inner` comes back.
            let _o = outer.lock();
            let mut i = inner.lock();
            cv.wait_for(&mut i, Duration::from_millis(1));
            drop(i);
            drop(_o);

            // While parked the mutex is not held; afterwards it is again.
            let mut i = inner.lock();
            cv.wait_for(&mut i, Duration::from_millis(1));
            assert!(std::panic::catch_unwind(|| drop(outer.lock())).is_err());
            drop(i);

            // Waiting on `outer` retakes it under `inner`: refused before
            // the thread parks, for `wait` and `wait_for` alike.
            let _i = inner.lock();
            let mut o = outer.try_lock().expect("uncontended");
            let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cv.wait_for(&mut o, Duration::from_millis(1))
            }));
            assert!(waited.is_err());
            let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cv.wait(&mut o)));
            assert!(waited.is_err());
        }
    }

    /// The witness, compiled out: `scripts/ci.sh` runs this crate's tests
    /// once with `--release`.
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_builds_carry_no_witness() {
        use std::mem::size_of;
        assert_eq!(size_of::<Mutex<u64>>(), size_of::<sync::Mutex<u64>>());
        assert_eq!(size_of::<RwLock<u64>>(), size_of::<sync::RwLock<u64>>());
        let outer = Mutex::with_rank(OUTER, ());
        let inner = RwLock::with_rank(INNER, ());
        let _inner = inner.read();
        let _outer = outer.lock();
    }
}
