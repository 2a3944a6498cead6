//! Cooperative cancellation checkpoints for the executor.
//!
//! The executor's inner loops call [`tick`] once per item. `tick` consults
//! a thread-local [`CancelToken`] installed by [`scope`] for the duration
//! of one query: subqueries re-enter the executor through `eval_expr`, and
//! the thread-local lets them observe the same token without threading a
//! parameter through every `eval` signature.
//!
//! A deadline's check reads the clock, so `tick` checks the token on the
//! first tick of each scope (and of the outer scope again once a nested
//! one ends), then on every 64th, and on a tick whose `query.eval_tick`
//! failpoint fired: a `delay` the torture suite injects there is seen by
//! the check right after it. Between checks a tick is one thread-local
//! access, a branch and a decrement.

use std::cell::{Cell, RefCell};

use mmdb_types::{CancelToken, Result};

/// Failpoint sites owned by this crate (see `mmdb-fault`).
pub const FAILPOINT_SITES: &[&str] = &["query.eval_tick"];

/// Ticks from one check of the token to the next.
const CHECK_EVERY: u32 = 64;

thread_local! {
    /// This thread's active token and the ticks left before its next check.
    static CURRENT: (RefCell<CancelToken>, Cell<u32>) =
        const { (RefCell::new(CancelToken::none()), Cell::new(0)) };
}

/// Install `token` as this thread's active cancellation token for the
/// lifetime of the returned guard; the previous token is restored on drop.
/// Nested scopes (a query run from inside another query's evaluation)
/// stack correctly.
pub fn scope(token: &CancelToken) -> ScopeGuard {
    CURRENT.with(|(current, countdown)| {
        countdown.set(0);
        ScopeGuard { previous: current.replace(token.clone()) }
    })
}

/// Restores the previously installed token when dropped.
pub struct ScopeGuard {
    previous: CancelToken,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|(current, countdown)| {
            current.replace(std::mem::take(&mut self.previous));
            countdown.set(0);
        });
    }
}

/// Cooperative checkpoint called from the executor's inner loops. Returns
/// `Err(DeadlineExceeded)` once the active token is cancelled or expired.
pub fn tick() -> Result<()> {
    let fired = mmdb_fault::eval_unit("query.eval_tick");
    CURRENT.with(|(current, countdown)| {
        let left = if fired { 0 } else { countdown.get() };
        countdown.set(left.checked_sub(1).unwrap_or(CHECK_EVERY - 1));
        if left == 0 { current.borrow().check() } else { Ok(()) }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_is_ok_with_no_scope_installed() {
        assert!(tick().is_ok());
    }

    #[test]
    fn tick_observes_the_scoped_token_and_restores_on_drop() {
        let token = CancelToken::new();
        token.cancel();
        {
            let _guard = scope(&token);
            assert_eq!(tick().unwrap_err().kind(), "deadline_exceeded");
        }
        assert!(tick().is_ok(), "guard drop restores the previous token");
    }

    #[test]
    fn a_scope_checks_its_first_tick_then_every_64th() {
        let token = CancelToken::new();
        let _guard = scope(&token);
        assert!(tick().is_ok());
        token.cancel();
        for n in 2..=CHECK_EVERY {
            assert!(tick().is_ok(), "tick {n} does not check");
        }
        assert!(tick().is_err(), "tick {} checks", CHECK_EVERY + 1);
    }

    #[test]
    fn nested_scopes_stack() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        inner.cancel();
        let _outer_guard = scope(&outer);
        assert!(tick().is_ok());
        {
            let _inner_guard = scope(&inner);
            assert!(tick().is_err());
        }
        assert!(tick().is_ok(), "inner guard restores the outer token");
        {
            let _inner_guard = scope(&CancelToken::none());
            assert!(tick().is_ok());
            outer.cancel();
        }
        assert!(tick().is_err(), "leaving the inner scope re-arms the outer scope's check");
    }
}
