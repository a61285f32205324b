//! Failure triage: collapse corpus failures into buckets.
//!
//! A thousand-module run of a single compiler bug should read as **one**
//! bucket with a thousand seeds, not a thousand lines of noise. Failures
//! bucket by *(oracle kind, normalized signature)*, where the signature is
//! the failure detail with digit runs collapsed — panic messages and
//! diverging values differ per seed in their numbers (`index 512 out of
//! bounds`, `index 63 out of bounds`) but share a shape.
//!
//! Buckets are also the reducer's preservation predicate: a candidate
//! program "still fails" exactly when it reproduces the original bucket,
//! which automatically rejects candidates that merely fail differently
//! (e.g. reduction-introduced parse errors).

use crate::oracle::Failure;
use crate::runner::SeedOutcome;
use std::collections::BTreeMap;

/// A failure equivalence class.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bucket {
    /// [`crate::oracle::OracleKind::label`] of the violated oracle.
    pub kind: &'static str,
    /// Normalized failure signature.
    pub signature: String,
}

impl std::fmt::Display for Bucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind, self.signature)
    }
}

/// Normalizes a failure detail into a bucket signature: digit runs become
/// `#`, whitespace runs collapse to one space, and the result is truncated
/// to 120 characters (panic messages can embed whole programs).
pub fn signature_of(detail: &str) -> String {
    let mut out = String::new();
    let mut last_digit = false;
    let mut last_space = false;
    for c in detail.chars() {
        if c.is_ascii_digit() {
            if !last_digit {
                out.push('#');
            }
            last_digit = true;
            last_space = false;
        } else if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
            last_digit = false;
        } else {
            out.push(c);
            last_digit = false;
            last_space = false;
        }
        if out.len() >= 120 {
            break;
        }
    }
    out.trim().to_string()
}

/// The bucket a failure belongs to.
pub fn bucket_of(f: &Failure) -> Bucket {
    Bucket {
        kind: f.kind.label(),
        signature: signature_of(&f.detail),
    }
}

/// Groups failing seeds by bucket (each seed counts once per bucket even
/// if several of its failures share one).
pub fn group(failing: &[SeedOutcome]) -> BTreeMap<Bucket, Vec<u64>> {
    let mut map: BTreeMap<Bucket, Vec<u64>> = BTreeMap::new();
    for s in failing {
        let mut seen = Vec::new();
        for f in &s.failures {
            let b = bucket_of(f);
            if !seen.contains(&b) {
                seen.push(b.clone());
                map.entry(b).or_default().push(s.seed);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleKind;

    #[test]
    fn digits_collapse() {
        assert_eq!(
            signature_of("index 512 out of   bounds at line 9"),
            "index # out of bounds at line #"
        );
        assert_eq!(
            signature_of("index 63 out of bounds at line 12"),
            signature_of("index 512 out of bounds at line 7"),
        );
    }

    #[test]
    fn buckets_split_by_kind() {
        let a = Failure {
            kind: OracleKind::Semantics,
            detail: "x".into(),
        };
        let b = Failure {
            kind: OracleKind::EngineDivergence,
            detail: "x".into(),
        };
        assert_ne!(bucket_of(&a), bucket_of(&b));
    }

    #[test]
    fn grouping_merges_seeds() {
        let mk = |seed| SeedOutcome {
            seed,
            failures: vec![Failure {
                kind: OracleKind::Semantics,
                detail: format!("return diverged at arg {seed}"),
            }],
        };
        let grouped = group(&[mk(3), mk(8)]);
        assert_eq!(grouped.len(), 1);
        assert_eq!(grouped.values().next().map(Vec::len), Some(2));
    }
}
