//! # mmdb-fault — deterministic fault injection
//!
//! Named failpoints for crash-recovery testing, in the spirit of the
//! `fail` crate but with zero dependencies. A *site* is a string naming a
//! spot on a durability path (`"wal.append"`, `"txn.commit.before_wal"`,
//! …). Instrumented code calls [`eval`] (or the [`fail_point!`] macro) at
//! the site; tests arm sites with an [`Action`] and the call site then
//! errors, panics, truncates its write, or sleeps — deterministically.
//!
//! Configuration is process-global: programmatically via [`configure`] /
//! [`set`], or through the `MMDB_FAILPOINTS` environment variable read on
//! first use. The spec grammar is
//!
//! ```text
//! spec    := entry (';' entry)*
//! entry   := site '=' [count ':'] kind ['(' arg ')']
//! kind    := 'off' | 'error' | 'panic' | 'short' | 'delay'
//! ```
//!
//! e.g. `MMDB_FAILPOINTS="wal.sync=error;wal.append=3:short"` makes every
//! `wal.sync` fail and the third and later `wal.append`s tear.
//!
//! With the `failpoints` feature **off** (the default) there is no
//! registry at all: [`eval`] is an `#[inline(always)]` constant
//! `Decision::Proceed` and [`fail_point!`] expands to nothing, so
//! production builds pay nothing for the instrumentation.
//!
//! Hit counters are kept for every evaluated site (armed or not), so a
//! test harness can enumerate which sites a workload actually crossed
//! ([`seen_sites`]) and fail when a new `fail_point!` shows up without
//! torture coverage.

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Site disarmed; execution proceeds.
    Off,
    /// The call site returns an injected error.
    Error,
    /// Panic, simulating a process crash at the site.
    Panic,
    /// The call site performs a truncated (torn) write, then errors.
    Short,
    /// Sleep this many milliseconds, then proceed (delayed fsync).
    Delay(u64),
}

/// What an instrumented call site should do, as returned by [`eval`].
/// `Panic` and `Delay` never reach the caller — [`eval`] panics or sleeps
/// internally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Proceed normally.
    Proceed,
    /// Return an error carrying this message.
    Fail(String),
    /// Perform a truncated write (caller-defined), then error.
    Short,
}

/// One parsed `entry` of the spec grammar: fire `action` from the
/// `from_hit`-th evaluation (1-based) onwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSpec {
    /// What to do when the site fires.
    pub action: Action,
    /// First evaluation (1-based) at which the action applies.
    pub from_hit: u64,
}

impl std::str::FromStr for SiteSpec {
    type Err = String;

    /// Parse `[count ':'] kind ['(' arg ')']`.
    fn from_str(s: &str) -> Result<SiteSpec, String> {
        let s = s.trim();
        let (from_hit, rest) = match s.split_once(':') {
            Some((n, rest)) => {
                let n: u64 = n
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad hit count in action '{s}'"))?;
                (n.max(1), rest.trim())
            }
            None => (1, s),
        };
        let (kind, arg) = match rest.split_once('(') {
            Some((k, a)) => {
                let a = a
                    .strip_suffix(')')
                    .ok_or_else(|| format!("unclosed '(' in action '{s}'"))?;
                (k.trim(), Some(a.trim()))
            }
            None => (rest, None),
        };
        let action = match (kind, arg) {
            ("off", None) => Action::Off,
            ("error", None) => Action::Error,
            ("panic", None) => Action::Panic,
            ("short", None) => Action::Short,
            ("delay", Some(ms)) => Action::Delay(
                ms.parse().map_err(|_| format!("bad delay millis in action '{s}'"))?,
            ),
            _ => return Err(format!("unknown failpoint action '{s}'")),
        };
        Ok(SiteSpec { action, from_hit })
    }
}

/// Whether this build carries live failpoints (the `failpoints` feature).
pub const fn enabled() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::{Action, Decision, SiteSpec};
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    #[derive(Default)]
    struct Site {
        spec: Option<SiteSpec>,
        hits: u64,
    }

    static SITES: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();

    fn sites() -> MutexGuard<'static, HashMap<String, Site>> {
        let m = SITES.get_or_init(|| {
            let mut map = HashMap::new();
            if let Ok(spec) = std::env::var("MMDB_FAILPOINTS") {
                // A bad env spec is a harness bug; failing loudly beats
                // silently running the test without its faults.
                apply_spec(&mut map, &spec).expect("invalid MMDB_FAILPOINTS"); // lint: allow(panic, bad MMDB_FAILPOINTS spec is a harness bug; failing loudly is the contract)
            }
            Mutex::new(map)
        });
        // The registry must survive a caller panicking between lock and
        // unlock (that is the whole point of Action::Panic).
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn apply_spec(
        map: &mut HashMap<String, Site>,
        spec: &str,
    ) -> Result<(), String> {
        for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
            let (site, action) = entry
                .split_once('=')
                .ok_or_else(|| format!("failpoint entry '{entry}' needs site=action"))?;
            let parsed: SiteSpec = action.parse()?;
            map.entry(site.trim().to_string()).or_default().spec = Some(parsed);
        }
        Ok(())
    }

    pub fn configure(spec: &str) -> Result<(), String> {
        apply_spec(&mut sites(), spec)
    }

    pub fn set(site: &str, action: &str) -> Result<(), String> {
        let parsed: SiteSpec = action.parse()?;
        sites().entry(site.to_string()).or_default().spec = Some(parsed);
        Ok(())
    }

    pub fn clear(site: &str) {
        if let Some(s) = sites().get_mut(site) {
            s.spec = None;
        }
    }

    pub fn clear_all() {
        for s in sites().values_mut() {
            s.spec = None;
        }
    }

    pub fn reset() {
        sites().clear();
    }

    pub fn hits(site: &str) -> u64 {
        sites().get(site).map_or(0, |s| s.hits)
    }

    pub fn seen_sites() -> Vec<String> {
        let mut v: Vec<String> = sites()
            .iter()
            .filter(|(_, s)| s.hits > 0)
            .map(|(name, _)| name.clone())
            .collect();
        v.sort();
        v
    }

    pub fn eval(site: &str) -> Decision {
        let action = {
            let mut map = sites();
            let s = map.entry(site.to_string()).or_default();
            s.hits += 1;
            match s.spec {
                Some(spec) if s.hits >= spec.from_hit => spec.action,
                _ => Action::Off,
            }
        };
        // The registry lock is released before acting: Action::Panic must
        // not take the registry down with it.
        match action {
            Action::Off => Decision::Proceed,
            Action::Error => Decision::Fail(format!("injected failure at {site}")),
            Action::Short => Decision::Short,
            Action::Panic => panic!("failpoint {site}: injected panic"), // lint: allow(panic, Action..Panic IS the injected fault; panicking here is the feature)
            Action::Delay(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Decision::Proceed
            }
        }
    }
}

// ---- public API (live when the feature is on, no-op constants when off) ----

/// Evaluate a failpoint site. Counts a hit; panics or sleeps in place for
/// `panic` / `delay` actions; returns what the caller should do otherwise.
#[cfg(feature = "failpoints")]
pub fn eval(site: &str) -> Decision {
    registry::eval(site)
}

/// Evaluate a failpoint site (no-op build: always proceed).
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn eval(_site: &str) -> Decision {
    Decision::Proceed
}

/// [`eval`] for call sites that can return an error: `Some(message)` when
/// the site is armed with `error` (or `short`, which degrades to an error
/// where no torn write is possible), `None` to proceed.
#[inline]
pub fn eval_to_error(site: &str) -> Option<String> {
    match eval(site) {
        Decision::Proceed => None,
        Decision::Fail(msg) => Some(msg),
        Decision::Short => Some(format!("injected short write at {site}")),
    }
}

/// [`eval`] for call sites with nothing to return: only `panic` and
/// `delay` actions are meaningful; `error`/`short` act as `off`. Used at
/// crash-only sites such as `txn.commit.after_wal`, where the operation
/// is already durable and "fail" would be a lie.
#[inline]
pub fn eval_unit(site: &str) {
    let _ = eval(site);
}

/// Apply a whole spec string (`site=action;site=action…`), as from
/// `MMDB_FAILPOINTS`. Errors on grammar violations; no-op build errors
/// unconditionally so a misconfigured harness cannot pass vacuously.
#[cfg(feature = "failpoints")]
pub fn configure(spec: &str) -> Result<(), String> {
    registry::configure(spec)
}

/// Apply a whole spec string (no-op build: always an error).
#[cfg(not(feature = "failpoints"))]
pub fn configure(_spec: &str) -> Result<(), String> {
    Err("mmdb-fault built without the 'failpoints' feature".into())
}

/// Arm one site with an action spec (`"error"`, `"panic"`, `"2:short"`,
/// `"delay(40)"`, `"off"`).
#[cfg(feature = "failpoints")]
pub fn set(site: &str, action: &str) -> Result<(), String> {
    registry::set(site, action)
}

/// Arm one site (no-op build: always an error).
#[cfg(not(feature = "failpoints"))]
pub fn set(_site: &str, _action: &str) -> Result<(), String> {
    Err("mmdb-fault built without the 'failpoints' feature".into())
}

/// Disarm one site (hit counters are kept).
pub fn clear(site: &str) {
    #[cfg(feature = "failpoints")]
    registry::clear(site);
    #[cfg(not(feature = "failpoints"))]
    let _ = site;
}

/// Disarm every site (hit counters are kept).
pub fn clear_all() {
    #[cfg(feature = "failpoints")]
    registry::clear_all();
}

/// Forget everything: actions *and* hit counters.
pub fn reset() {
    #[cfg(feature = "failpoints")]
    registry::reset();
}

/// How many times a site has been evaluated (0 in no-op builds).
pub fn hits(site: &str) -> u64 {
    #[cfg(feature = "failpoints")]
    return registry::hits(site);
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        0
    }
}

/// Every site evaluated at least once so far, sorted (empty in no-op
/// builds). The torture harness compares this against the exported site
/// rosters to prove coverage.
pub fn seen_sites() -> Vec<String> {
    #[cfg(feature = "failpoints")]
    return registry::seen_sites();
    #[cfg(not(feature = "failpoints"))]
    Vec::new()
}

/// Declare a failpoint.
///
/// * `fail_point!("site")` — unit form: fires `panic`/`delay` actions.
/// * `fail_point!("site", |msg| err)` — early-returns `Err(err)` from the
///   enclosing function when armed with `error` (or `short`).
///
/// Expands to nothing when the `failpoints` feature is off.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        $crate::eval_unit($site)
    };
    ($site:expr, $map_err:expr) => {
        if let Some(msg) = $crate::eval_to_error($site) {
            return Err(($map_err)(msg));
        }
    };
}

/// Declare a failpoint (no-op build: expands to nothing).
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {};
    ($site:expr, $map_err:expr) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_parses() {
        assert_eq!("error".parse(), Ok(SiteSpec { action: Action::Error, from_hit: 1 }));
        assert_eq!("3:short".parse(), Ok(SiteSpec { action: Action::Short, from_hit: 3 }));
        assert_eq!(
            "delay(25)".parse(),
            Ok(SiteSpec { action: Action::Delay(25), from_hit: 1 })
        );
        assert_eq!("off".parse(), Ok(SiteSpec { action: Action::Off, from_hit: 1 }));
        assert!("explode".parse::<SiteSpec>().is_err());
        assert!("delay(soon)".parse::<SiteSpec>().is_err());
        assert!("delay(5".parse::<SiteSpec>().is_err());
        assert!("x:error".parse::<SiteSpec>().is_err());
    }

    #[cfg(not(feature = "failpoints"))]
    mod disabled {
        use super::super::*;

        #[test]
        fn everything_is_a_no_op() {
            assert!(!enabled());
            assert_eq!(eval("any.site"), Decision::Proceed);
            assert_eq!(eval_to_error("any.site"), None);
            assert!(configure("any.site=panic").is_err(), "cannot arm a no-op build");
            assert!(set("any.site", "error").is_err());
            assert_eq!(hits("any.site"), 0, "no registry, no counters");
            assert!(seen_sites().is_empty());
            // The macro expands to nothing; this function never errors.
            fn guarded() -> Result<(), String> {
                fail_point!("any.site", |m: String| m);
                fail_point!("any.site");
                Ok(())
            }
            guarded().unwrap();
        }
    }

    #[cfg(feature = "failpoints")]
    mod live {
        use super::super::*;
        use std::sync::{Mutex, MutexGuard, OnceLock};

        // The registry is process-global; tests in this module serialize.
        fn lock() -> MutexGuard<'static, ()> {
            static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
            let guard = LOCK
                .get_or_init(Mutex::default)
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            reset();
            guard
        }

        #[test]
        fn unarmed_sites_proceed_but_count() {
            let _g = lock();
            assert_eq!(eval("t.a"), Decision::Proceed);
            assert_eq!(eval("t.a"), Decision::Proceed);
            assert_eq!(hits("t.a"), 2);
            assert_eq!(seen_sites(), vec!["t.a".to_string()]);
        }

        #[test]
        fn error_and_short_decisions() {
            let _g = lock();
            set("t.err", "error").unwrap();
            assert!(matches!(eval("t.err"), Decision::Fail(_)));
            assert!(eval_to_error("t.err").is_some());
            set("t.short", "short").unwrap();
            assert_eq!(eval("t.short"), Decision::Short);
            // short degrades to an error through eval_to_error.
            assert!(eval_to_error("t.short").unwrap().contains("short"));
        }

        #[test]
        fn hit_count_gating() {
            let _g = lock();
            set("t.gate", "3:error").unwrap();
            assert_eq!(eval("t.gate"), Decision::Proceed);
            assert_eq!(eval("t.gate"), Decision::Proceed);
            assert!(matches!(eval("t.gate"), Decision::Fail(_)), "fires on the 3rd hit");
            assert!(matches!(eval("t.gate"), Decision::Fail(_)), "and stays armed");
        }

        #[test]
        fn panic_action_panics_and_registry_survives() {
            let _g = lock();
            set("t.boom", "panic").unwrap();
            let r = std::panic::catch_unwind(|| eval("t.boom"));
            assert!(r.is_err());
            assert_eq!(hits("t.boom"), 1);
            clear("t.boom");
            assert_eq!(eval("t.boom"), Decision::Proceed, "usable after the panic");
        }

        #[test]
        fn delay_action_sleeps() {
            let _g = lock();
            set("t.slow", "delay(30)").unwrap();
            let t0 = std::time::Instant::now();
            assert_eq!(eval("t.slow"), Decision::Proceed);
            assert!(t0.elapsed() >= std::time::Duration::from_millis(25));
        }

        #[test]
        fn configure_spec_strings() {
            let _g = lock();
            configure("t.x=error; t.y = 2:panic ;; t.z=off").unwrap();
            assert!(matches!(eval("t.x"), Decision::Fail(_)));
            assert_eq!(eval("t.y"), Decision::Proceed, "gated to 2nd hit");
            assert_eq!(eval("t.z"), Decision::Proceed);
            assert!(configure("no-equals-sign").is_err());
            assert!(configure("t.q=warp").is_err());
            clear_all();
            assert_eq!(eval("t.x"), Decision::Proceed, "clear_all disarms");
            assert!(hits("t.x") > 0, "…but keeps counters");
        }

        #[test]
        fn macro_forms() {
            let _g = lock();
            fn guarded() -> Result<(), String> {
                fail_point!("t.m", |m: String| format!("wrapped: {m}"));
                Ok(())
            }
            guarded().unwrap();
            set("t.m", "error").unwrap();
            let e = guarded().unwrap_err();
            assert!(e.starts_with("wrapped: "), "{e}");
            fail_point!("t.unit");
            assert_eq!(hits("t.unit"), 1);
        }
    }
}
