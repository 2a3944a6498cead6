//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of proptest's API that mmdb's property tests use: the
//! [`Strategy`] trait with `prop_map`/`prop_filter`/`prop_recursive`,
//! `any::<T>()`, range and regex-lite string strategies, tuple and
//! collection composition, `prop_oneof!`, and the `proptest!` /
//! `prop_assert!` / `prop_assert_eq!` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **One shrinker for every strategy.** Strategies only generate;
//!   every value is built from the draws of a [`test_runner::TestRng`],
//!   which records each draw with its bound. A failing case is minimized
//!   by replaying the test on an edited record: each draw in turn is set
//!   to 0, to half its value or to one less, or removed; a draw past the
//!   record's end, or whose bound differs from the one recorded at its
//!   position, reads 0. An edit that still fails becomes the new
//!   baseline, to a fixpoint under a fixed run cap, and a candidate that
//!   panics counts as passing. So maps, unions, strings, collections and
//!   recursion shrink alike, toward the values their strategies make
//!   from zero draws. The limit: a filter can stall it, since an edit its
//!   predicate rejects is redrawn from zeros. With the property
//!   `v < 100`, `(0..1000).prop_filter(even)` can stop at an even value
//!   whose half and predecessor are odd: the self-test stops at 150.
//! * **Deterministic seeds.** Cases derive from a hash of the test name
//!   and the case index, so runs are reproducible by construction; there
//!   is no `PROPTEST_CASES`/persistence machinery.
//! * Generated value distributions are similar in spirit (edge-case
//!   biased integers, structured recursion) but not identical.

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

pub mod test_runner {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Per-test configuration. Only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// One draw: its result and the bound it is below (0: any `u64`).
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Draw {
        value: u64,
        bound: u64,
    }

    /// The source of every generated value: a deterministic splitmix64
    /// generator that records each draw, or a replay of edited draws.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
        /// Draws to hand out instead of fresh ones.
        replay: Option<Vec<Draw>>,
        record: Vec<Draw>,
    }

    impl TestRng {
        /// Stable seed from the fully-qualified test name and case index.
        pub fn for_case(test_name: &str, case: u32) -> TestRng {
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            let state = h ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            TestRng { state, replay: None, record: Vec::new() }
        }

        fn replaying(draws: Vec<Draw>) -> TestRng {
            TestRng { state: 0, replay: Some(draws), record: Vec::new() }
        }

        /// A result below `bound` (0: any `u64`). A replay hands out the
        /// draw recorded at this position if its bound is the same, and 0
        /// otherwise.
        pub(crate) fn draw(&mut self, bound: u64) -> u64 {
            let value = match &self.replay {
                Some(draws) => match draws.get(self.record.len()) {
                    Some(d) if d.bound == bound => d.value,
                    _ => 0,
                },
                None => {
                    self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = self.state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    z.checked_rem(bound).unwrap_or(z)
                }
            };
            self.record.push(Draw { value, bound });
            value
        }

        pub fn next_u64(&mut self) -> u64 {
            self.draw(0)
        }

        /// Uniform usize in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: usize) -> usize {
            self.draw(bound as u64) as usize
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A property's first failing case, minimized.
    pub struct Failure {
        pub case: u32,
        pub message: String,
        /// Edits that were kept while shrinking.
        pub steps: u32,
        draws: Vec<Draw>,
    }

    impl Failure {
        /// A generator that replays the minimized case's draws.
        pub fn replay(&self) -> TestRng {
            TestRng::replaying(self.draws.clone())
        }
    }

    /// Test runs a shrink may spend.
    const SHRINK_RUNS: u32 = 4096;

    /// Run `test` on cases `0..cases` of `name`, stop at the first that
    /// fails and shrink it. A panic in a case propagates unshrunk.
    pub fn run<F>(name: &str, cases: u32, mut test: F) -> Option<Failure>
    where
        F: FnMut(&mut TestRng) -> Result<(), String>,
    {
        let mut best = (0..cases).find_map(|case| {
            let mut rng = TestRng::for_case(name, case);
            let message = test(&mut rng).err()?;
            Some(Failure { case, message, steps: 0, draws: rng.record })
        })?;
        let (mut runs, mut progress) = (0, true);
        while progress && runs < SHRINK_RUNS {
            progress = false;
            let mut i = 0;
            while i < best.draws.len() && runs < SHRINK_RUNS {
                // Set draw `i` to 0, half or one less (`Some`), or remove it.
                let v = best.draws[i].value;
                let mut edits: Vec<_> =
                    [0, v / 2, v.saturating_sub(1)].into_iter().filter(|e| *e < v).map(Some).collect();
                edits.dedup();
                edits.push(None);
                let kept = edits.into_iter().find_map(|edit| {
                    let mut draws = best.draws.clone();
                    match edit {
                        Some(e) => draws[i].value = e,
                        None => _ = draws.remove(i),
                    }
                    runs += 1;
                    let mut rng = TestRng::replaying(draws);
                    let Ok(Err(message)) = catch_unwind(AssertUnwindSafe(|| test(&mut rng))) else {
                        return None;
                    };
                    let (steps, draws) = (best.steps + 1, rng.record);
                    (draws != best.draws).then_some(Failure { case: best.case, message, steps, draws })
                });
                match kept {
                    Some(failure) => (best, progress) = (failure, true),
                    None => i += 1,
                }
            }
        }
        Some(best)
    }
}

use test_runner::TestRng;

// ---- the Strategy trait ----------------------------------------------------

pub mod strategy {
    use super::*;

    /// A recipe for generating values of one type from a [`TestRng`]'s
    /// draws. Strategies do not shrink: the runner shrinks the draws.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F>(self, reason: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, reason, f }
        }

        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> Recursive<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
        {
            let leaf = self.boxed();
            Recursive {
                leaf,
                recurse: Arc::new(move |inner| recurse(inner).boxed()),
                depth,
            }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
    #[derive(Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// `prop_filter` combinator: regenerate until the predicate accepts.
    #[derive(Clone)]
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) reason: &'static str,
        pub(crate) f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter '{}' rejected 1000 candidates in a row", self.reason)
        }
    }

    /// `prop_recursive` combinator: bounded structural recursion.
    pub struct Recursive<T> {
        pub(crate) leaf: BoxedStrategy<T>,
        pub(crate) recurse: Arc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
        pub(crate) depth: u32,
    }

    impl<T: 'static> Strategy for Recursive<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            // Choose a nesting level for this case, then stack the
            // recursion that many times over a leaf/shallower mix.
            let levels = rng.below(self.depth as usize + 1);
            let mut current = self.leaf.clone();
            for _ in 0..levels {
                let inner = Union::new(vec![self.leaf.clone(), current]).boxed();
                current = (self.recurse)(inner);
            }
            current.generate(rng)
        }
    }

    /// `prop_oneof!` support: uniform choice among same-typed strategies.
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len());
            self.options[i].generate(rng)
        }
    }

    // ---- numeric range strategies ------------------------------------------

    // One draw below the span: a span of 2^64 (a full-width inclusive
    // range) truncates to bound 0, a draw over all of `u64`.
    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end as i128 - self.start as i128;
                    (self.start as i128 + rng.draw(span as u64) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = end as i128 - start as i128 + 1;
                    (start as i128 + rng.draw(span as u64) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    // ---- string strategies (regex-lite) ------------------------------------

    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::generate_from_pattern(self, rng)
        }
    }

    // ---- tuple strategies ---------------------------------------------------

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub use strategy::{BoxedStrategy, Just, Strategy, Union};

// ---- any::<T>() -------------------------------------------------------------

pub mod arbitrary {
    use super::*;

    /// The strategy returned by [`any`]: a canonical "anything" strategy.
    pub struct Any<T>(PhantomData<T>);

    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy<Value = T>,
    {
        Any(PhantomData)
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    // Bias towards boundary values, as real proptest does.
                    if rng.below(8) == 0 {
                        const EDGES: [i128; 5] = [0, 1, -1, <$t>::MAX as i128, <$t>::MIN as i128];
                        EDGES[rng.below(EDGES.len())] as $t
                    } else {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            match rng.below(16) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                // Small-magnitude values with fractional parts.
                5..=9 => (rng.next_u64() as i64 % 2_000_000) as f64 / 128.0,
                // Full-range bit patterns, re-rolled onto a wide exponent.
                _ => {
                    let m = rng.unit_f64() * 2.0 - 1.0;
                    let e = (rng.below(601) as i32) - 300;
                    m * 10f64.powi(e)
                }
            }
        }
    }
}

pub use arbitrary::any;

// ---- collection / sample modules (under `prop::`) ---------------------------

/// Size bound for collection strategies.
#[derive(Clone, Debug)]
pub struct SizeRange {
    min: usize,
    max_exclusive: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange { min: r.start, max_exclusive: r.end }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        SizeRange { min: *r.start(), max_exclusive: *r.end() + 1 }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.min + rng.below(self.max_exclusive - self.min)
    }
}

pub mod collection {
    use super::*;

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet`: the keys of a [`btree_map`] to `()`.
    pub fn btree_set<S: Strategy>(
        element: S,
        size: impl Into<SizeRange>,
    ) -> impl Strategy<Value = BTreeSet<S::Value>>
    where
        S::Value: Ord,
    {
        btree_map(element, Just(()), size).prop_map(|m| m.into_keys().collect())
    }

    /// Strategy for `BTreeMap`. Maps deduplicate keys, so the requested
    /// minimum is best-effort: we draw extra entries before giving up.
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size: size.into() }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeMap::new();
            for _ in 0..target.saturating_mul(4).max(8) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.key.generate(rng), self.value.generate(rng));
            }
            out
        }
    }
}

pub mod sample {
    use super::*;

    /// Uniform choice from a fixed list.
    #[derive(Clone)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len())].clone()
        }
    }
}

/// Namespace mirror of proptest's `prop::` module tree.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

// ---- regex-lite string generation -------------------------------------------

pub mod string {
    use super::test_runner::TestRng;

    enum CharSet {
        /// Inclusive char ranges.
        Ranges(Vec<(char, char)>),
        /// `\PC`: any printable (non-control) character.
        Printable,
    }

    /// Generate a string matching one of three regex forms: `[class]{m,n}`,
    /// `[class]{n}` or `\PC{m,n}`, where a class lists chars, `a-z` ranges
    /// and `\`-escaped chars. This covers every pattern used in mmdb's
    /// property tests; anything else panics loudly.
    pub fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let (set, min, max) = parse(pattern)
            .unwrap_or_else(|| panic!("unsupported pattern {pattern:?}: expected [class]{{m,n}}, [class]{{n}} or \\PC{{m,n}}"));
        let n = min + rng.below(max - min + 1);
        (0..n).map(|_| pick(&set, rng)).collect()
    }

    fn pick(set: &CharSet, rng: &mut TestRng) -> char {
        match set {
            CharSet::Printable => {
                // Mostly ASCII printable, occasionally multibyte.
                const EXTRAS: [char; 6] = ['é', '世', '界', 'λ', '😀', 'ß'];
                if rng.below(8) == 0 {
                    EXTRAS[rng.below(EXTRAS.len())]
                } else {
                    char::from_u32(0x20 + rng.below(0x5F) as u32).unwrap()
                }
            }
            CharSet::Ranges(ranges) => {
                let total: u32 = ranges.iter().map(|(a, b)| *b as u32 - *a as u32 + 1).sum();
                let mut i = rng.below(total as usize) as u32;
                for (a, b) in ranges {
                    let span = *b as u32 - *a as u32 + 1;
                    if i < span {
                        return char::from_u32(*a as u32 + i).unwrap();
                    }
                    i -= span;
                }
                unreachable!("char class selection out of range")
            }
        }
    }

    /// The char set and the inclusive repeat bounds of `pattern`.
    fn parse(pattern: &str) -> Option<(CharSet, usize, usize)> {
        let (set, repeat) = match pattern.strip_prefix("\\PC") {
            Some(repeat) => (CharSet::Printable, repeat),
            None => {
                let (class, repeat) = pattern.strip_prefix('[')?.split_once(']')?;
                (CharSet::Ranges(parse_class(class)?), repeat)
            }
        };
        let spec = repeat.strip_prefix('{')?.strip_suffix('}')?;
        let (min, max) = spec.split_once(',').unwrap_or((spec, spec));
        let (min, max) = (min.trim().parse().ok()?, max.trim().parse().ok()?);
        (min <= max).then_some((set, min, max))
    }

    fn parse_class(class: &str) -> Option<Vec<(char, char)>> {
        let chars: Vec<char> = class.chars().collect();
        let mut ranges = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if chars[i] == '\\' {
                i += 1;
            }
            let lo = *chars.get(i)?;
            match chars.get(i + 1..i + 3) {
                Some(['-', hi]) if lo <= *hi => {
                    ranges.push((lo, *hi));
                    i += 3;
                }
                _ => {
                    ranges.push((lo, lo));
                    i += 1;
                }
            }
        }
        (!ranges.is_empty()).then_some(ranges)
    }
}

// ---- macros -----------------------------------------------------------------

/// Run each `#[test] fn name(arg in strategy, ...) { body }` once per case
/// with freshly generated inputs. `prop_assert*` failures report the case
/// number; re-running is deterministic (seeds derive from the test name).
///
/// On failure [`test_runner::run`] shrinks the case's recorded draws (see
/// the crate docs), and the panic reports the minimized inputs, which is
/// why argument types must be `Debug`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg).cases; $($rest)*);
    };
    (@impl $cases:expr; $(
        $(#[doc = $doc:expr])*
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[doc = $doc])*
            #[test]
            fn $name() {
                let full_name = concat!(module_path!(), "::", stringify!($name));
                let failure = $crate::test_runner::run(full_name, $cases, |proptest_rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), proptest_rng);)+
                    { $body }
                    ::std::result::Result::Ok(())
                });
                if let ::std::option::Option::Some(failure) = failure {
                    let proptest_rng = &mut failure.replay();
                    panic!(
                        "proptest {full_name} failed at case {} (shrunk {} steps): {}\n  \
                         minimized inputs: {:?}",
                        failure.case,
                        failure.steps,
                        failure.message,
                        ($($crate::strategy::Strategy::generate(&($strat), proptest_rng),)+)
                    );
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl $crate::test_runner::ProptestConfig::default().cases; $($rest)*);
    };
}

/// Uniform choice between strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Check a condition inside a proptest body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Check equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{:?}` != `{:?}`", left, right));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                left, right, format!($($fmt)+)));
        }
    }};
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::{run, TestRng};

    #[test]
    fn ranges_strings_and_collections_generate_in_bounds() {
        let mut rng = TestRng::for_case("shim::self_test", 0);
        for _ in 0..200 {
            let n = Strategy::generate(&(0i64..10), &mut rng);
            assert!((0..10).contains(&n));
            let s = Strategy::generate(&"[a-c]{1,4}", &mut rng);
            assert!((1..=4).contains(&s.len()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            let v = Strategy::generate(&prop::collection::vec(0u8..255, 2..5), &mut rng);
            assert!((2..5).contains(&v.len()));
            let pair = Strategy::generate(&(0usize..3, "[x-z]{1}"), &mut rng);
            assert!(pair.0 < 3);
        }
    }

    #[test]
    fn oneof_map_filter_and_recursive_compose() {
        let mut rng = TestRng::for_case("shim::compose", 3);
        let strat = prop_oneof![Just(1i64), (10i64..20).prop_map(|v| v * 2)]
            .prop_filter("nonzero", |v| *v != 0);
        for _ in 0..100 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!(v == 1 || (20..40).contains(&v));
        }
        let tree = Just(0i64).prop_map(Tree::Leaf).prop_recursive(3, 16, 4, |inner| {
            prop::collection::vec(inner, 0..4).prop_map(Tree::Node)
        });
        let mut saw_node = false;
        for case in 0..64 {
            let mut rng = TestRng::for_case("shim::tree", case);
            if matches!(Strategy::generate(&tree, &mut rng), Tree::Node(_)) {
                saw_node = true;
            }
        }
        assert!(saw_node, "recursion never recursed");
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Tree {
        Leaf(i64),
        Node(Vec<Tree>),
    }

    /// Every suite's cases rest on generation staying put: one composite
    /// draw at a fixed seed, pinned to its text.
    #[test]
    fn a_composite_draw_at_a_fixed_seed_is_pinned() {
        let strat = (
            (0u32..1000, "[a-z0-9_\\-]{1,6}", "\\PC{0,8}"),
            prop_oneof![Just(-1i64), 10i64..20, any::<i64>()],
            any::<i64>(),
            prop::collection::btree_map("[a-c]{1}", any::<bool>(), 0..4),
            (0i64..10).prop_map(Tree::Leaf).prop_recursive(3, 16, 4, |inner| {
                prop::collection::vec(inner, 1..3).prop_map(Tree::Node)
            }),
        );
        let mut rng = TestRng::for_case("shim::golden", 6);
        assert_eq!(
            format!("{:?}", Strategy::generate(&strat, &mut rng)),
            "((673, \"0jszc\", \"Vé*d\"), 2811075765912211769, 4530734331368307473, \
             {\"a\": false, \"b\": false, \"c\": true}, Node([Node([Leaf(0), Leaf(3)])]))"
        );
    }

    /// The value `strat` makes from the runner's minimized failure of
    /// the property "`fails` is false".
    fn minimal<S: Strategy>(strat: S, fails: impl Fn(&S::Value) -> bool) -> S::Value
    where
        S::Value: std::fmt::Debug,
    {
        let failure = run("shim::minimal", 256, |rng| {
            let v = strat.generate(rng);
            if fails(&v) {
                Err(format!("{v:?}"))
            } else {
                Ok(())
            }
        })
        .expect("some case fails");
        let v = strat.generate(&mut failure.replay());
        assert_eq!(format!("{v:?}"), failure.message, "the replay is the failure");
        v
    }

    #[test]
    fn maps_unions_and_strings_shrink_to_their_minima() {
        assert_eq!(minimal((0i64..1000).prop_map(|v| v * 3), |v| *v >= 30), 30);
        assert_eq!(minimal(prop_oneof![Just(-1i64), 0i64..1000], |v| *v >= 7), 7);
        assert_eq!(minimal("[a-c]{0,8}", |s| s.contains('c')), "c");
    }

    #[test]
    fn ints_and_vecs_shrink_to_their_minima() {
        assert_eq!(minimal(0i64..1000, |v| *v >= 10), 10);
        assert_eq!(minimal(prop::collection::vec(0u8..100, 1..20), |v| v.len() >= 3), [0, 0, 0]);
    }

    #[test]
    fn a_shrunk_filtered_value_still_satisfies_its_filter() {
        let even = (0i64..1000).prop_filter("even", |v| v % 2 == 0);
        let v = minimal(even, |v| *v >= 100);
        assert!(v % 2 == 0 && v >= 100, "{v}");
    }

    #[test]
    fn a_panicking_candidate_does_not_hide_the_failure() {
        // Once a case has failed, every value that would pass panics
        // instead: shrinking must step over those candidates rather than
        // take them for failures (which would shrink to 0).
        let failed = std::cell::Cell::new(false);
        let v = minimal(0i64..1000, |v| {
            assert!(*v >= 600 || !failed.get(), "a panicking candidate");
            failed.set(failed.get() || *v >= 600);
            *v >= 600
        });
        assert_eq!(v, 600);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: args bind, asserts work, doc comments parse.
        #[test]
        fn macro_smoke(a in 0i64..100, b in prop::sample::select(vec![1i64, 2, 3])) {
            prop_assert!(a >= 0, "a was {}", a);
            prop_assert_eq!(b, b);
        }

        /// Vec strategies keep working through the macro.
        #[test]
        fn macro_vec_args(v in prop::collection::vec(0u8..10, 0..6)) {
            prop_assert!(v.len() < 6);
        }
    }
}
