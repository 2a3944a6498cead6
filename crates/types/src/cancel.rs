//! Cooperative cancellation and deadlines.
//!
//! A [`CancelToken`] is a cheap, cloneable handle that long-running work
//! checks at loop boundaries. It carries an optional wall-clock deadline
//! and an explicit cancellation flag; either one trips [`CancelToken::check`]
//! into a retryable [`Error::DeadlineExceeded`].
//!
//! The default token ([`CancelToken::none`]) allocates nothing and its
//! `check` is a branch on a `None` — threading it through hot execution
//! loops costs effectively nothing when no deadline is set. A token with
//! a deadline reads the clock on every `check`, so a per-row loop checks
//! it only now and then (the query executor: on every 64th row).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation handle with an optional deadline.
///
/// Clones share state: cancelling one clone cancels all of them, and all
/// clones observe the same deadline. The server mints one token per
/// request from the client-supplied budget (capped by its own
/// `max_query_time`) and threads it into the query engine.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that never cancels and never expires. Free to check.
    pub const fn none() -> CancelToken {
        CancelToken { inner: None }
    }

    /// A token with no deadline that can be cancelled explicitly.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner { cancelled: AtomicBool::new(false), deadline: None })),
        }
    }

    /// A token that expires `budget` from now.
    pub fn with_timeout(budget: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + budget)
    }

    /// A token that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// Trip the token: every clone's next [`check`](CancelToken::check) fails.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// True once the token is cancelled or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.cancelled.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// Cooperative checkpoint: `Ok(())` while live, a retryable
    /// [`Error::DeadlineExceeded`] once cancelled or expired.
    pub fn check(&self) -> Result<()> {
        let Some(inner) = &self.inner else { return Ok(()) };
        if inner.cancelled.load(Ordering::Acquire) {
            return Err(Error::DeadlineExceeded("request cancelled".into()));
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(Error::DeadlineExceeded(format!(
                    "request deadline passed {:?} ago",
                    Instant::now().saturating_duration_since(deadline)
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_trips() {
        let t = CancelToken::none();
        assert!(t.check().is_ok());
        t.cancel(); // no-op, must not panic
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(clone.check().is_ok());
        t.cancel();
        let err = clone.check().unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        assert!(err.is_retryable());
    }

    #[test]
    fn expired_deadline_trips_with_deadline_exceeded() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.is_cancelled());
        assert_eq!(t.check().unwrap_err().kind(), "deadline_exceeded");
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(t.check().is_ok());
        assert!(t.deadline().is_some());
    }
}
