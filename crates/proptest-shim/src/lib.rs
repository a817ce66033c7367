//! Offline stand-in for the `proptest` crate.
//!
//! The workspace must build with `cargo build --locked --offline` on a
//! machine with no registry access, so the property tests cannot depend on
//! the real proptest. This crate implements the subset of proptest's API
//! that the workspace uses, backed by a deterministic SplitMix64 generator:
//! every test derives its stream from the test's module path and the case
//! index, so failures reproduce exactly across runs and machines.
//!
//! Differences from real proptest, by design:
//! - no integrated value-tree shrinking — a failing case reports its
//!   inputs (with the derived seed and case index) via the failure
//!   message instead of minimising them automatically. Suites whose
//!   cases are *op sequences* can minimise explicitly with the
//!   standalone [`shrink`] module (prefix truncation + op removal over a
//!   re-runnable case closure);
//! - no persisted regression files (`*.proptest-regressions` are ignored);
//! - string "regex" strategies support the subset actually used here:
//!   literals, `.`, `[a-z_]` classes, and `{m,n}` / `*` / `+` / `?`
//!   quantifiers.

pub mod test_runner {
    use std::fmt;

    /// Per-test configuration (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// Run each property against `cases` generated inputs.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// A failed property case (carried by `prop_assert!` and friends).
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Build a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic generator: SplitMix64 seeded from the test name and
    /// case index (FNV-1a over the name, golden-ratio mix over the index).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
        seed: u64,
    }

    impl TestRng {
        /// The stream for case `case` of the named test.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let seed = h ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = TestRng { state: seed, seed };
            // Discard a couple of outputs so nearby seeds decorrelate.
            rng.next_u64();
            rng.next_u64();
            rng
        }

        /// The derived seed this stream started from — printed by the
        /// `proptest!` runner when a case fails, so any case is
        /// reproducible from its failure report alone.
        pub fn seed(&self) -> u64 {
            self.seed
        }

        /// Next 64 uniformly distributed bits (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, n)` without modulo bias; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            if n.is_power_of_two() {
                return self.next_u64() & (n - 1);
            }
            let zone = u64::MAX - u64::MAX % n;
            loop {
                let v = self.next_u64();
                if v < zone {
                    return v % n;
                }
            }
        }

        /// Uniform in `[0, n)` for lengths and indices.
        pub fn below_usize(&mut self, n: usize) -> usize {
            self.below(n as u64) as usize
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A generator of values of type `Self::Value`.
    ///
    /// Unlike real proptest there is no value-tree/shrinking layer: a
    /// strategy is a pure function of the RNG stream.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Produce one value from the stream.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erase into a clonable, reference-counted strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                gen: Rc::new(move |rng: &mut TestRng| self.generate(rng)),
            }
        }

        /// Recursive strategies: `self` is the leaf; `recurse` builds one
        /// level of composite out of the strategy for the level below.
        /// `depth` bounds nesting; the size hints are accepted for API
        /// compatibility (sizes are bounded here by depth and the leaf
        /// weighting instead).
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let deeper = recurse(strat).boxed();
                strat = Union::weighted(vec![(3, leaf.clone()), (2, deeper)]).boxed();
            }
            strat
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A type-erased strategy; clones share the generator.
    pub struct BoxedStrategy<V> {
        pub(crate) gen: Rc<dyn Fn(&mut TestRng) -> V>,
    }

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                gen: Rc::clone(&self.gen),
            }
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.gen)(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Weighted choice between boxed strategies (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        /// Choose an arm with probability proportional to its weight.
        pub fn weighted(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            let total = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            Union { arms, total }
        }
    }

    impl<V> Clone for Union<V> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
                total: self.total,
            }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return s.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weights exhausted")
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    let off = rng.below(span);
                    (self.start as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
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

    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::generate_pattern(self, rng)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// One uniformly chosen value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    /// The whole-domain strategy for `T`. Floats draw raw bit patterns, so
    /// NaNs, infinities and subnormals all occur — codecs must round-trip
    /// them bit-exactly.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            f64::from_bits(rng.next_u64())
        }
    }
}

pub mod collection {
    use crate::strategy::{BoxedStrategy, Strategy};
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// `Vec` strategy with length drawn uniformly from `size`.
    pub fn vec<S>(element: S, size: Range<usize>) -> VecStrategy<S::Value>
    where
        S: Strategy + 'static,
    {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy {
            element: element.boxed(),
            min: size.start,
            max: size.end,
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<V> {
        element: BoxedStrategy<V>,
        min: usize,
        max: usize,
    }

    impl<V> Clone for VecStrategy<V> {
        fn clone(&self) -> Self {
            VecStrategy {
                element: self.element.clone(),
                min: self.min,
                max: self.max,
            }
        }
    }

    impl<V> Strategy for VecStrategy<V> {
        type Value = Vec<V>;
        fn generate(&self, rng: &mut TestRng) -> Vec<V> {
            let len = self.min + rng.below_usize(self.max - self.min);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use crate::strategy::{BoxedStrategy, Strategy};
    use crate::test_runner::TestRng;

    /// `Option` strategy: `None` one time in four, `Some(inner)` otherwise.
    pub fn of<S>(inner: S) -> OptionStrategy<S::Value>
    where
        S: Strategy + 'static,
    {
        OptionStrategy {
            inner: inner.boxed(),
        }
    }

    /// See [`of`].
    pub struct OptionStrategy<V> {
        inner: BoxedStrategy<V>,
    }

    impl<V> Clone for OptionStrategy<V> {
        fn clone(&self) -> Self {
            OptionStrategy {
                inner: self.inner.clone(),
            }
        }
    }

    impl<V> Strategy for OptionStrategy<V> {
        type Value = Option<V>;
        fn generate(&self, rng: &mut TestRng) -> Option<V> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod string {
    //! A tiny regex-subset generator for `&str` strategies.

    use crate::test_runner::TestRng;

    enum Atom {
        /// `.` — any printable char (plus a few multibyte ones so UTF-8
        /// handling in text codecs gets exercised).
        Any,
        /// `[a-z_]` — inclusive ranges and singletons.
        Class(Vec<(char, char)>),
        /// A literal character.
        Lit(char),
    }

    struct Piece {
        atom: Atom,
        min: usize,
        max: usize,
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let mut chars = pattern.chars().peekable();
        let mut pieces = Vec::new();
        while let Some(c) = chars.next() {
            let atom = match c {
                '.' => Atom::Any,
                '[' => {
                    let mut ranges = Vec::new();
                    loop {
                        let lo = chars.next().expect("unterminated char class");
                        if lo == ']' {
                            break;
                        }
                        if chars.peek() == Some(&'-') {
                            chars.next();
                            let hi = chars.next().expect("unterminated range");
                            ranges.push((lo, hi));
                        } else {
                            ranges.push((lo, lo));
                        }
                    }
                    Atom::Class(ranges)
                }
                '\\' => Atom::Lit(chars.next().expect("dangling escape")),
                c => Atom::Lit(c),
            };
            let (min, max) = match chars.peek() {
                Some('{') => {
                    chars.next();
                    let mut digits = String::new();
                    let mut min = 0usize;
                    let mut saw_comma = false;
                    let mut max = None;
                    for d in chars.by_ref() {
                        match d {
                            '}' => {
                                let n: usize = digits.parse().expect("bad quantifier");
                                if saw_comma {
                                    max = Some(n);
                                } else {
                                    min = n;
                                    max = Some(n);
                                }
                                break;
                            }
                            ',' => {
                                min = digits.parse().expect("bad quantifier");
                                digits.clear();
                                saw_comma = true;
                            }
                            d => digits.push(d),
                        }
                    }
                    (min, max.expect("unterminated quantifier"))
                }
                Some('*') => {
                    chars.next();
                    (0, 8)
                }
                Some('+') => {
                    chars.next();
                    (1, 8)
                }
                Some('?') => {
                    chars.next();
                    (0, 1)
                }
                _ => (1, 1),
            };
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    const EXOTIC: &[char] = &['é', 'Ω', '中', '√', '🚀'];

    fn any_char(rng: &mut TestRng) -> char {
        if rng.below(10) == 0 {
            EXOTIC[rng.below_usize(EXOTIC.len())]
        } else {
            // Printable ASCII, which includes the XML metacharacters the
            // SOAP codec must escape.
            char::from(0x20 + rng.below(0x7F - 0x20) as u8)
        }
    }

    fn class_char(ranges: &[(char, char)], rng: &mut TestRng) -> char {
        let total: u64 = ranges
            .iter()
            .map(|(lo, hi)| u64::from(*hi as u32 - *lo as u32 + 1))
            .sum();
        let mut pick = rng.below(total);
        for (lo, hi) in ranges {
            let span = u64::from(*hi as u32 - *lo as u32 + 1);
            if pick < span {
                return char::from_u32(*lo as u32 + pick as u32).expect("bad class range");
            }
            pick -= span;
        }
        unreachable!("class ranges exhausted")
    }

    /// Generate one string matching `pattern`.
    pub fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let n = piece.min + rng.below_usize(piece.max - piece.min + 1);
            for _ in 0..n {
                match &piece.atom {
                    Atom::Any => out.push(any_char(rng)),
                    Atom::Class(ranges) => out.push(class_char(ranges, rng)),
                    Atom::Lit(c) => out.push(*c),
                }
            }
        }
        out
    }
}

pub mod prelude {
    //! `use proptest::prelude::*;` — everything the tests name directly.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// The `prop::` namespace (`prop::collection::vec`, `prop::option::of`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Minimal failing-case reduction for op-sequence properties.
///
/// The generation layer here has no value trees, so shrinking works the
/// only way it can: re-run the case closure against candidate
/// subsequences of the failing op list and keep every reduction that
/// still fails. Two passes run to a fixpoint under a probe budget:
///
/// 1. **prefix truncation** — binary search for the shortest failing
///    prefix (a failure usually only needs its own causal history);
/// 2. **op removal** — delta-debugging style: try deleting chunks
///    (halving the chunk size down to single ops), keeping any deletion
///    that preserves the failure.
///
/// The result is locally minimal: removing any single remaining op makes
/// the case pass (budget permitting). Order is always preserved.
pub mod shrink {
    /// Outcome of [`minimise`]: the reduced sequence plus accounting.
    #[derive(Debug, Clone)]
    pub struct Minimised<T> {
        /// The minimal failing subsequence (original order preserved).
        pub ops: Vec<T>,
        /// Number of probe runs spent.
        pub runs: usize,
        /// Whether any op was removed from the input.
        pub improved: bool,
    }

    /// Reduce `ops` to a locally minimal subsequence for which `fails`
    /// still returns `true`, spending at most `budget` probe runs.
    ///
    /// `fails` must be deterministic for the reduction to mean anything
    /// (re-running the returned trace must reproduce the failure). If the
    /// full sequence does not fail, it is returned unchanged with
    /// `improved = false`.
    pub fn minimise<T: Clone>(
        ops: &[T],
        budget: usize,
        mut fails: impl FnMut(&[T]) -> bool,
    ) -> Minimised<T> {
        let mut runs = 0usize;
        let mut probe = |candidate: &[T], runs: &mut usize| -> bool {
            *runs += 1;
            fails(candidate)
        };
        if budget == 0 || !probe(ops, &mut runs) {
            return Minimised {
                ops: ops.to_vec(),
                runs,
                improved: false,
            };
        }

        // Pass 1: shortest failing prefix. `hi` always fails; `lo` is the
        // largest known-passing length. If even the empty prefix fails,
        // the failure does not depend on the ops at all and the minimal
        // trace is rightly empty.
        let mut cur: Vec<T> = ops.to_vec();
        let mut lo = 0usize;
        let mut hi = cur.len();
        if runs < budget {
            if probe(&cur[..0], &mut runs) {
                hi = 0;
            } else {
                while hi - lo > 1 && runs < budget {
                    let mid = lo + (hi - lo) / 2;
                    if probe(&cur[..mid], &mut runs) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
            }
        }
        cur.truncate(hi);

        // Pass 2: chunked op removal to a fixpoint. Invariant: `cur`
        // fails at every step.
        let mut chunk = (cur.len() / 2).max(1);
        while !cur.is_empty() && runs < budget {
            let mut removed_any = false;
            let mut i = 0;
            while i < cur.len() && runs < budget {
                let end = (i + chunk).min(cur.len());
                let mut candidate = Vec::with_capacity(cur.len() - (end - i));
                candidate.extend_from_slice(&cur[..i]);
                candidate.extend_from_slice(&cur[end..]);
                // The empty sequence is known to pass (pass 1 checked it),
                // so never probe it again.
                if !candidate.is_empty() && probe(&candidate, &mut runs) {
                    cur = candidate;
                    removed_any = true;
                    continue; // same i now addresses the next ops
                }
                i = end;
            }
            if chunk == 1 && !removed_any {
                break; // locally minimal
            }
            if !removed_any {
                chunk = (chunk / 2).max(1);
            }
        }

        Minimised {
            improved: cur.len() < ops.len(),
            ops: cur,
            runs,
        }
    }
}

/// Declare property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let __test = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(__test, __case);
                let __seed = __rng.seed();
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                // Run the body under `catch_unwind` so even a raw panic
                // (an `unwrap`, an `assert!` outside the prop_ macros) is
                // attributed to the generated case that died before the
                // panic propagates.
                let __result = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(
                        move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                            $body
                            ::std::result::Result::Ok(())
                        },
                    ),
                );
                match __result {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => {}
                    ::std::result::Result::Ok(::std::result::Result::Err(e)) => {
                        panic!(
                            "proptest {} failed at case {}/{} (seed {:#018x}): {}",
                            stringify!($name),
                            __case + 1,
                            __config.cases,
                            __seed,
                            e
                        );
                    }
                    ::std::result::Result::Err(payload) => {
                        eprintln!(
                            "proptest {} panicked at case {}/{} (seed {:#018x})",
                            __test,
                            __case + 1,
                            __config.cases,
                            __seed
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    )*};
}

/// Weighted (`w => strategy`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Like `assert!` but fails only the current case (with context).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Like `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?}` == `{:?}`", __l, __r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{:?}` == `{:?}`: {}",
                    __l,
                    __r,
                    format!($($fmt)+)
                ),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name_and_case() {
        let mut a = crate::test_runner::TestRng::for_case("x::y", 3);
        let mut b = crate::test_runner::TestRng::for_case("x::y", 3);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = crate::test_runner::TestRng::for_case("x::y", 4);
        assert_ne!(
            crate::test_runner::TestRng::for_case("x::y", 3).next_u64(),
            c.next_u64()
        );
    }

    #[test]
    fn below_is_unbiased_at_the_bound() {
        let mut rng = crate::test_runner::TestRng::for_case("below", 0);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case("ranges", 0);
        for _ in 0..500 {
            let v = (-10i8..10).generate(&mut rng);
            assert!((-10..10).contains(&v));
            let u = (0usize..24).generate(&mut rng);
            assert!(u < 24);
        }
    }

    #[test]
    fn pattern_strategies_match_shape() {
        let mut rng = crate::test_runner::TestRng::for_case("patterns", 0);
        for _ in 0..200 {
            let ident = "[A-Za-z_][A-Za-z0-9_]{0,10}".generate(&mut rng);
            assert!(!ident.is_empty() && ident.len() <= 11);
            let first = ident.chars().next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_');
            let s = ".{0,24}".generate(&mut rng);
            assert!(s.chars().count() <= 24);
        }
    }

    #[test]
    fn oneof_weights_skew_selection() {
        let strat = prop_oneof![9 => Just(1u32), 1 => Just(2u32)];
        let mut rng = crate::test_runner::TestRng::for_case("weights", 0);
        let ones = (0..1000).filter(|_| strat.generate(&mut rng) == 1).count();
        assert!(ones > 800, "{ones} of 1000");
    }

    #[test]
    fn vec_and_option_compose() {
        let strat = crate::collection::vec(crate::option::of(0i32..5), 0..9);
        let mut rng = crate::test_runner::TestRng::for_case("compose", 0);
        let mut saw_none = false;
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!(v.len() < 9);
            saw_none |= v.iter().any(Option::is_none);
        }
        assert!(saw_none);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn recursive_strategies_terminate(v in arb_tree()) {
            prop_assert!(depth_of(&v) <= 5);
        }

        #[test]
        fn macro_binds_multiple_args(a in 0u32..10, b in any::<bool>()) {
            prop_assert!(a < 10);
            prop_assert_eq!(b, b);
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Tree {
        Leaf(i32),
        Node(Vec<Tree>),
    }

    fn arb_tree() -> impl Strategy<Value = Tree> {
        let leaf = (0i32..100).prop_map(Tree::Leaf);
        leaf.prop_recursive(4, 16, 3, |inner| {
            crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
        })
    }

    fn depth_of(t: &Tree) -> usize {
        match t {
            Tree::Leaf(_) => 1,
            Tree::Node(children) => 1 + children.iter().map(depth_of).max().unwrap_or(0),
        }
    }

    #[test]
    fn rng_exposes_its_seed() {
        let rng = crate::test_runner::TestRng::for_case("x::y", 3);
        assert_eq!(
            rng.seed(),
            crate::test_runner::TestRng::for_case("x::y", 3).seed()
        );
        assert_ne!(
            rng.seed(),
            crate::test_runner::TestRng::for_case("x::y", 4).seed()
        );
    }

    #[test]
    #[should_panic(expected = "seed 0x")]
    fn failing_case_reports_its_seed_and_index() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            #[allow(dead_code)]
            fn always_fails(_x in 0u32..10) {
                prop_assert!(false, "doomed");
            }
        }
        always_fails();
    }

    #[test]
    #[should_panic(expected = "raw panic inside the body")]
    fn raw_panics_keep_their_payload() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            #[allow(dead_code)]
            fn panics(x in 0u32..10) {
                if x < 10 {
                    panic!("raw panic inside the body");
                }
            }
        }
        panics();
    }

    #[test]
    fn shrink_finds_the_minimal_pair() {
        // Failure needs a 7 somewhere before a 13.
        let ops: Vec<u32> = vec![4, 7, 2, 9, 13, 1, 7, 13, 5];
        let fails = |s: &[u32]| {
            let first7 = s.iter().position(|&x| x == 7);
            first7.is_some_and(|i| s[i..].contains(&13))
        };
        let m = crate::shrink::minimise(&ops, 500, fails);
        assert_eq!(m.ops, vec![7, 13], "order-preserving minimal trace");
        assert!(m.improved);
        assert!(m.runs <= 500);
    }

    #[test]
    fn shrink_of_a_passing_sequence_is_a_no_op() {
        let ops: Vec<u32> = vec![1, 2, 3];
        let m = crate::shrink::minimise(&ops, 100, |_| false);
        assert_eq!(m.ops, ops);
        assert!(!m.improved);
        assert_eq!(m.runs, 1, "one probe decides it");
    }

    #[test]
    fn shrink_respects_its_probe_budget() {
        let ops: Vec<u32> = (0..256).collect();
        let m = crate::shrink::minimise(&ops, 10, |s| s.contains(&255));
        assert!(m.runs <= 10, "{} probes", m.runs);
        assert!(m.ops.contains(&255), "the result still fails");
    }

    #[test]
    fn shrink_handles_failures_independent_of_the_ops() {
        let ops: Vec<u32> = vec![1, 2, 3];
        let m = crate::shrink::minimise(&ops, 100, |_| true);
        assert!(m.ops.is_empty(), "empty trace reproduces: {:?}", m.ops);
    }
}
