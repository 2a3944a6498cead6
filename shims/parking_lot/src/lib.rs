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
//!
//! # The hot-thread witness
//!
//! The same debug-only machinery holds a second rule: a thread that has
//! declared itself *hot* ([`hot_thread`]; the server's connection reader)
//! never waits. While the mark is set, [`Condvar::wait`]/`wait_for`,
//! `lock()`/`read()`/`write()` on a lock whose rank is
//! [`Rank::held_across_waits`] (its holders keep it through an fsync or a
//! park, so taking it can last that long) and [`about_to_wait`] (called
//! ahead of an fsync) panic, naming the hot context and the wait. A wait
//! that is the design is wrapped in a scoped [`permit_wait`]. Only waits
//! that pass through this crate or announce themselves are seen:
//! `std::thread::sleep`, socket IO and `std::sync` are not. Release
//! builds compile the mark, the permit and every check to nothing.

use std::marker::PhantomData;
use std::sync;

/// A lock's place in the workspace lock hierarchy: a level (outer locks
/// low, inner locks high) and the name violations are reported under.
/// The one table of ranks is `mmdb_types::lock_rank`.
#[derive(Debug, Clone, Copy)]
pub struct Rank {
    level: u16,
    name: &'static str,
    held_across_waits: bool,
}

impl Rank {
    /// A rank at `level`. `u16::MAX` is reserved for leaf locks.
    pub const fn new(level: u16, name: &'static str) -> Rank {
        assert!(level < u16::MAX, "u16::MAX is the leaf rank");
        Rank {
            level,
            name,
            held_across_waits: false,
        }
    }

    /// Mark the lock as one its holders keep through IO or a park: taking
    /// it can take that long, so a hot thread may not (see the crate docs).
    pub const fn held_across_waits(self) -> Rank {
        Rank {
            held_across_waits: true,
            ..self
        }
    }

    pub const fn is_held_across_waits(&self) -> bool {
        self.held_across_waits
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
    use std::cell::{Cell, RefCell};
    use std::panic::Location;

    /// The rank of every lock made without one. Its name is filled in
    /// with the protected type at acquisition.
    pub const LEAF: Rank = Rank {
        level: u16::MAX,
        name: "",
        held_across_waits: false,
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
        /// The context this thread is hot in; `None` when it is not, or
        /// while a wait permit is in scope.
        static HOT: Cell<Option<&'static str>> = const { Cell::new(None) };
    }

    /// Set this thread's hot mark, returning the one it replaces.
    pub fn set_hot(mark: Option<&'static str>) -> Option<&'static str> {
        HOT.try_with(|hot| hot.replace(mark)).unwrap_or(None)
    }

    /// Panic if this thread is hot: it is about to wait for `what`.
    #[track_caller]
    pub fn check_hot(what: impl FnOnce() -> String) {
        if let Ok(Some(context)) = HOT.try_with(Cell::get) {
            panic!(
                "hot thread violation: \"{context}\" must never wait, but is {}; run this on \
                 a thread that may wait, or wrap a wait that is the design in `permit_wait`",
                what(),
            );
        }
    }

    pub fn describe(rank: Rank) -> String {
        if rank.level == LEAF.level {
            format!("leaf lock \"{}\"", rank.name)
        } else {
            format!("\"{}\" (rank {})", rank.name, rank.level)
        }
    }

    /// Panic unless `rank` exceeds the rank of every lock this thread
    /// holds, and the thread may wait as long as `rank`'s holders can.
    /// Runs before the acquisition, so nothing new is held when it
    /// unwinds. Silent once the thread's locals are gone.
    #[track_caller]
    pub fn check(rank: Rank) {
        if rank.held_across_waits {
            check_hot(|| {
                format!(
                    "acquiring {}, which is held across IO or a park",
                    describe(rank)
                )
            });
        }
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

/// A scope of the calling thread's hot mark, made by [`hot_thread`] or
/// [`permit_wait`]; dropping it puts back the mark it replaced. Tied to
/// its thread; in release builds zero-sized and inert.
#[must_use = "the mark lasts only while this is alive"]
pub struct HotScope {
    #[cfg(debug_assertions)]
    outer: Option<&'static str>,
    _this_thread: PhantomData<*const ()>,
}

impl HotScope {
    #[inline]
    fn set(mark: Option<&'static str>) -> HotScope {
        #[cfg(not(debug_assertions))]
        let _ = mark;
        HotScope {
            #[cfg(debug_assertions)]
            outer: witness::set_hot(mark),
            _this_thread: PhantomData,
        }
    }
}

/// Declare the calling thread hot in `context` (the name violations are
/// reported under) until the returned scope drops.
#[inline]
pub fn hot_thread(context: &'static str) -> HotScope {
    HotScope::set(Some(context))
}

/// Let the calling thread wait until the returned scope drops, hot or
/// not. `reason` is for whoever reads the call site: why this wait, on
/// this thread, is the design.
#[inline]
pub fn permit_wait(reason: &'static str) -> HotScope {
    let _ = reason;
    HotScope::set(None)
}

#[cfg(debug_assertions)]
impl Drop for HotScope {
    fn drop(&mut self) {
        witness::set_hot(self.outer);
    }
}

/// Announce a wait this crate cannot see (an fsync): panics on a hot
/// thread, naming `what`.
#[inline]
#[cfg_attr(debug_assertions, track_caller)]
pub fn about_to_wait(what: &'static str) {
    #[cfg(debug_assertions)]
    witness::check_hot(|| what.to_string());
    #[cfg(not(debug_assertions))]
    let _ = what;
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
    /// thread still holds, checked before the thread parks — which a hot
    /// thread may not do at all.
    #[cfg_attr(debug_assertions, track_caller)]
    fn waiting<'a, T, R>(
        guard: &mut MutexGuard<'a, T>,
        wait: impl FnOnce(sync::MutexGuard<'a, T>) -> (sync::MutexGuard<'a, T>, R),
    ) -> R {
        #[cfg(debug_assertions)]
        {
            witness::check_hot(|| {
                format!(
                    "parking on a condition variable of {}",
                    witness::describe(guard.rank)
                )
            });
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
    const SLOW: Rank = Rank::new(30, "test.slow").held_across_waits();

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

        fn panics(f: impl FnOnce()) -> bool {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        }

        #[test]
        #[should_panic(
            expected = "\"test.reader\" must never wait, but is parking on a condition variable of leaf lock \"u8\""
        )]
        fn a_hot_thread_may_not_park_on_a_condvar() {
            let m = Mutex::new(0u8);
            let cv = Condvar::new();
            let mut g = m.lock();
            let _hot = hot_thread("test.reader");
            cv.wait_for(&mut g, Duration::from_millis(1));
        }

        #[test]
        #[should_panic(
            expected = "\"test.reader\" must never wait, but is acquiring \"test.slow\" (rank 30), which is held across IO or a park"
        )]
        fn a_hot_thread_may_not_take_a_lock_held_across_waits() {
            let slow = Mutex::with_rank(SLOW, ());
            let _hot = hot_thread("test.reader");
            let _g = slow.lock();
        }

        #[test]
        fn the_hot_mark_is_scoped_and_so_is_a_permit() {
            let plain = Mutex::with_rank(OUTER, ());
            let slow = RwLock::with_rank(SLOW, ());
            let cv = Condvar::new();
            let hot = hot_thread("test.reader");
            // Locks nobody holds across a wait stay free, a `try_*` cannot
            // wait, and an announced wait is refused like the others.
            let mut g = plain.lock();
            drop(slow.try_write().expect("uncontended"));
            assert!(panics(|| drop(slow.read())));
            assert!(panics(|| drop(slow.write())));
            assert!(panics(|| cv.wait(&mut g)));
            assert!(panics(|| about_to_wait("fsync")));
            {
                let _permit = permit_wait("the test waits on purpose");
                cv.wait_for(&mut g, Duration::from_millis(1));
                drop(slow.write());
                about_to_wait("fsync");
            }
            // The permit is gone, the thread is hot again...
            assert!(panics(|| about_to_wait("fsync")));
            drop(hot);
            // ...and cold once its own scope ends. Other threads never were.
            about_to_wait("fsync");
            let _hot = hot_thread("test.reader");
            std::thread::scope(|s| {
                s.spawn(|| drop(slow.read()));
            });
        }
    }

    /// Both witnesses, compiled out: `scripts/ci.sh` runs this crate's
    /// tests once with `--release`.
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_builds_carry_no_witness() {
        use std::mem::size_of;
        assert_eq!(size_of::<Mutex<u64>>(), size_of::<sync::Mutex<u64>>());
        assert_eq!(size_of::<RwLock<u64>>(), size_of::<sync::RwLock<u64>>());
        assert_eq!(size_of::<Condvar>(), size_of::<sync::Condvar>());
        assert_eq!(size_of::<HotScope>(), 0);
        assert!(!std::mem::needs_drop::<HotScope>());
        let outer = Mutex::with_rank(OUTER, ());
        let inner = RwLock::with_rank(INNER, ());
        let _inner = inner.read();
        let _outer = outer.lock();
        // A hot thread waits unnoticed, with or without a permit.
        let _hot = hot_thread("test.reader");
        let slow = Mutex::with_rank(SLOW, ());
        let mut g = slow.lock();
        Condvar::new().wait_for(&mut g, Duration::from_millis(1));
        about_to_wait("fsync");
        let _permit = permit_wait("sizes only");
    }
}
