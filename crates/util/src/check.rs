//! A minimal property-testing harness, replacing `proptest`.
//!
//! The model is deliberately simple: a *generator* is any
//! `FnMut(&mut StdRng) -> T`, a *property* is any `FnMut(&T)` that panics
//! (via the ordinary `assert!` family) on violation. [`run`] executes N
//! cases, each from its own deterministically derived case seed, and on
//! failure reports the case seed and the `Debug` form of the failing input
//! so the case can be replayed exactly:
//!
//! ```text
//! MTC_CHECK_SEED=0x53a0...  cargo test -p mtc-sql failing_test_name
//! ```
//!
//! There is no shrinking — inputs here are small enough that the printed
//! value plus a replay seed has been sufficient in practice, and the
//! regressions we port forward are kept as explicit `#[test]` cases
//! instead of an opaque seed file.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{SeedableRng, SplitMix64, StdRng};

/// Configuration for one property run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases (`MTC_CHECK_CASES` overrides).
    pub cases: u32,
    /// Base seed; case i's generator is seeded with `mix(seed, i)`.
    pub seed: u64,
}

impl Config {
    pub fn cases(cases: u32) -> Config {
        Config {
            cases,
            seed: 0x4D54_4361_6368_6531, // "MTCache1"
        }
    }

    fn effective_cases(&self) -> u32 {
        match std::env::var("MTC_CHECK_CASES") {
            Ok(v) => v.parse().unwrap_or(self.cases),
            Err(_) => self.cases,
        }
    }
}

impl Default for Config {
    fn default() -> Config {
        Config::cases(64)
    }
}

/// Derives the per-case seed. SplitMix64 over (base, index) gives
/// well-spread, platform-stable case seeds.
fn case_seed(base: u64, index: u64) -> u64 {
    let mut sm = SplitMix64::new(base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next()
}

fn replay_seed() -> Option<u64> {
    let v = std::env::var("MTC_CHECK_SEED").ok()?;
    let v = v.trim();
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    Some(parsed.unwrap_or_else(|_| panic!("MTC_CHECK_SEED=`{v}` is not a u64")))
}

/// Runs `property` against `cases` inputs drawn from `generate`.
///
/// On a property panic the harness re-raises with the failing case's seed
/// and input attached. Setting `MTC_CHECK_SEED` replays exactly one case
/// with that seed (no catch, so backtraces point at the real assert).
pub fn run<T, G, P>(config: &Config, name: &str, mut generate: G, mut property: P)
where
    T: std::fmt::Debug,
    G: FnMut(&mut StdRng) -> T,
    P: FnMut(&T),
{
    if let Some(seed) = replay_seed() {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = generate(&mut rng);
        eprintln!("[mtc-check] {name}: replaying seed {seed:#x} with input {input:?}");
        property(&input);
        return;
    }
    for i in 0..config.effective_cases() {
        let seed = case_seed(config.seed, i as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = generate(&mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&input)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!(
                "[mtc-check] property `{name}` failed at case {i}/{total}\n\
                 \x20 input: {input:?}\n\
                 \x20 cause: {msg}\n\
                 \x20 replay: MTC_CHECK_SEED={seed:#x} cargo test {name}",
                total = config.effective_cases(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Small generator helpers shared by the ported property tests.
// ---------------------------------------------------------------------------

use crate::rng::Rng;

/// A `Vec<T>` whose length is drawn uniformly from `len` (inclusive lo,
/// exclusive hi — matching `proptest`'s `vec(elem, lo..hi)`).
pub fn vec_of<T>(
    rng: &mut StdRng,
    len: std::ops::Range<usize>,
    mut element: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| element(rng)).collect()
}

/// A random string of length drawn from `len`, characters drawn uniformly
/// from `alphabet`.
pub fn string_from(rng: &mut StdRng, alphabet: &[char], len: std::ops::Range<usize>) -> String {
    let n = rng.gen_range(len);
    (0..n)
        .map(|_| *rng.choose(alphabet).expect("non-empty alphabet"))
        .collect()
}

/// Arbitrary (mostly printable, occasionally exotic) string for
/// never-panics fuzzing, standing in for proptest's `\PC{0,n}`.
pub fn fuzz_string(rng: &mut StdRng, max_len: usize) -> String {
    let n = rng.gen_range(0..max_len + 1);
    (0..n)
        .map(|_| match rng.gen_range(0u32..10) {
            0..=5 => rng.gen_range(0x20u32..0x7F), // printable ASCII
            6 => rng.gen_range(0x00u32..0x20),     // control chars
            7 => rng.gen_range(0xA1u32..0x250),    // Latin supplements
            8 => rng.gen_range(0x391u32..0x3CA),   // Greek
            _ => rng.gen_range(0x4E00u32..0x4E80), // CJK
        })
        .map(|c| char::from_u32(c).unwrap_or('?'))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0;
        run(
            &Config::cases(32),
            "counting",
            |rng| rng.gen_range(0i64..100),
            |v| {
                count += 1;
                assert!((0..100).contains(v));
            },
        );
        assert_eq!(count, 32);
    }

    #[test]
    fn failing_property_reports_seed_and_input() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(
                &Config::cases(100),
                "always_fails",
                |rng| rng.gen_range(1000i64..2000),
                |v| assert!(*v < 1000, "v was {v}"),
            );
        }));
        let err = result.expect_err("property must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("MTC_CHECK_SEED=0x"), "{msg}");
        assert!(msg.contains("input:"), "{msg}");
        assert!(msg.contains("v was"), "{msg}");
    }

    #[test]
    fn cases_are_deterministic() {
        let collect = || {
            let mut v = Vec::new();
            run(
                &Config::cases(10),
                "collect",
                |rng| rng.gen_range(0u64..1_000_000),
                |x| v.push(*x),
            );
            v
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn vec_of_respects_length_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = vec_of(&mut rng, 1..5, |r| r.gen_range(0i64..10));
            assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn fuzz_string_is_valid_utf8_and_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let s = fuzz_string(&mut rng, 60);
            assert!(s.chars().count() <= 60);
        }
    }
}
