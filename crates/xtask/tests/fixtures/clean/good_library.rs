//! Fixture: clean library code the lint must pass untouched.
//! Never compiled — consumed as text by `lint_fixtures.rs`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Seeded entropy and ordered containers only.
pub fn sample(seed: u64, xs: &[u32]) -> BTreeMap<u32, u32> {
    let _rng = StdRng::seed_from_u64(seed);
    let mut m = BTreeMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}

/// Errors degrade through Result; prose like "never unwrap() here" and
/// r"panic! strings" must not trip the scanner.
pub fn parse_port(s: &str) -> Result<u16, String> {
    s.trim()
        .parse()
        .map_err(|e| format!("bad port (don't panic!): {e}"))
}

/// `unwrap_or`-family and `debug_assert!` are allowed.
pub fn clamp(x: Option<u32>) -> u32 {
    let v = x.unwrap_or_default().max(1).min(u32::MAX - 1);
    debug_assert!(v >= 1);
    v
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: u16 = "80".parse().unwrap();
        assert_eq!(v, 80);
    }
}
