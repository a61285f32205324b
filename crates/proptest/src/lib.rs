//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build container has no access to a crates.io registry, so the real
//! `proptest` cannot be fetched; this crate implements exactly the subset
//! the workspace uses so the property tests still run offline:
//!
//! * integer / float range strategies (`0usize..4`, `0.0f64..=1.0`, …);
//! * tuple strategies up to arity 6 and [`strategy::Just`];
//! * [`collection::vec`] with a size range;
//! * the `prop_map` / `prop_flat_map` / `prop_filter` combinators;
//! * the [`proptest!`], [`prop_assert!`] and [`prop_assert_eq!`] macros and
//!   `ProptestConfig { cases, .. }`.
//!
//! Sampling is a deterministic splitmix64 stream seeded from the test name
//! and case index, so failures reproduce bit-for-bit across runs. There is
//! no shrinking: a failing case reports the generated input verbatim.

pub mod strategy {
    use std::fmt;
    use std::ops::{Range, RangeInclusive};

    /// Deterministic splitmix64 generator used for all sampling.
    pub struct Rng(u64);

    impl Rng {
        pub fn new(seed: u64) -> Self {
            Rng(seed)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`. Modulo bias is irrelevant for tests.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A source of random values plus the combinators the workspace uses.
    pub trait Strategy {
        type Value: fmt::Debug;

        fn sample(&self, rng: &mut Rng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            O: fmt::Debug,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }

        fn prop_filter<F>(self, whence: impl Into<String>, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence: whence.into(),
                f,
            }
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone + fmt::Debug>(pub T);

    impl<T: Clone + fmt::Debug> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut Rng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: fmt::Debug,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut Rng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn sample(&self, rng: &mut Rng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        whence: String,
        f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn sample(&self, rng: &mut Rng) -> S::Value {
            // Rejection sampling in place of proptest's reject bookkeeping.
            for _ in 0..10_000 {
                let v = self.inner.sample(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter({:?}) rejected 10000 samples", self.whence);
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (rng.unit_f64() as $t) * (self.end - self.start)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    lo + (rng.unit_f64() as $t) * (hi - lo)
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($($S:ident . $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn sample(&self, rng: &mut Rng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(S0.0);
    tuple_strategy!(S0.0, S1.1);
    tuple_strategy!(S0.0, S1.1, S2.2);
    tuple_strategy!(S0.0, S1.1, S2.2, S3.3);
    tuple_strategy!(S0.0, S1.1, S2.2, S3.3, S4.4);
    tuple_strategy!(S0.0, S1.1, S2.2, S3.3, S4.4, S5.5);
}

pub mod collection {
    use crate::strategy::{Rng, Strategy};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive-exclusive element-count range for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        pub lo: usize,
        pub hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vector of `element` samples with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Vec<S::Value> {
            assert!(self.size.lo < self.size.hi, "empty vec size range");
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    use crate::strategy::{Rng, Strategy};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// Runner configuration; only `cases` is honored. The other fields
    /// mirror the real crate's so `..Config::default()` updates stay
    /// meaningful at call sites.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases to execute per test.
        pub cases: u32,
        /// Accepted but ignored (no shrinking in this stand-in).
        pub max_shrink_iters: u32,
        /// Accepted but ignored (rejection cap lives in `prop_filter`).
        pub max_global_rejects: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config {
                cases,
                ..Config::default()
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_shrink_iters: 1024,
                max_global_rejects: 65_536,
            }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Drives one `proptest!` test: samples `config.cases` inputs and runs
    /// the body on each, reporting the input on failure.
    pub fn run_cases<S, F>(config: &Config, strategy: S, name: &str, test: F)
    where
        S: Strategy,
        F: Fn(S::Value) -> Result<(), String>,
    {
        let base = fnv1a(name.as_bytes());
        for case in 0..config.cases {
            let mut rng = Rng::new(base ^ (case as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            let value = strategy.sample(&mut rng);
            let rendered = format!("{value:?}");
            match catch_unwind(AssertUnwindSafe(|| test(value))) {
                Ok(Ok(())) => {}
                Ok(Err(msg)) => {
                    panic!("proptest {name} failed at case {case}: {msg}\n  input: {rendered}")
                }
                Err(payload) => {
                    eprintln!("proptest {name} panicked at case {case}\n  input: {rendered}");
                    resume_unwind(payload);
                }
            }
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Defines property tests: a `#![proptest_config(..)]` header followed by
/// `#[test] fn name(pat in strategy, ..) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { config = $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $cfg:expr;) => {};
    (config = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let strategy = ($($strat,)+);
            $crate::test_runner::run_cases(
                &config,
                strategy,
                stringify!($name),
                |($($pat,)+)| -> ::core::result::Result<(), ::std::string::String> {
                    $body
                    Ok(())
                },
            );
        }
        $crate::__proptest_items! { config = $cfg; $($rest)* }
    };
}

/// Fails the enclosing property-test case when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{}: {:?} != {:?}", ::std::format!($($fmt)+), l, r);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn sampling_is_deterministic() {
        use crate::strategy::{Rng, Strategy};
        let s = crate::collection::vec((0usize..10, 0.0f64..=1.0), 1..5);
        let a = s.sample(&mut Rng::new(42));
        let b = s.sample(&mut Rng::new(42));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn ranges_respect_bounds() {
        use crate::strategy::{Rng, Strategy};
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let v = (3i64..9).sample(&mut rng);
            assert!((3..9).contains(&v));
            let f = (0.25f64..=0.75).sample(&mut rng);
            assert!((0.25..=0.75).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_roundtrip(x in 1u64..100, ys in crate::collection::vec(0i64..5, 0..4)) {
            prop_assert!((1..100).contains(&x));
            prop_assert!(ys.len() < 4);
            prop_assert_eq!(x, x, "x must equal itself ({})", x);
        }
    }
}
