//! Cross-process determinism gate for the corpus generator and pipeline:
//! two *separate* invocations of the `corpus` binary must print
//! byte-identical digest lines for the same slice. This catches any
//! nondeterminism that in-process tests cannot (ASLR-dependent hashing,
//! environment leakage, pointer-keyed iteration orders).

use std::process::Command;

fn digest_run() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_corpus"))
        .args(["--seed", "5", "--count", "3", "--digest"])
        .env_remove("SPT_THREADS")
        .output()
        .expect("spawn corpus binary");
    assert!(
        out.status.success(),
        "corpus --digest exited with {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("digest output is UTF-8")
}

#[test]
fn corpus_digest_is_identical_across_processes() {
    let first = digest_run();
    let second = digest_run();
    assert!(
        first.contains("corpus digest seeds 5..8"),
        "unexpected digest output: {first:?}"
    );
    assert_eq!(
        first, second,
        "corpus digest diverged between two fresh processes"
    );
}
