//! Corpus integration tests: a green slice end-to-end, generator
//! determinism (satellite: same seed → byte-identical source and
//! byte-identical reports across worker counts), and frontend mutation
//! fuzzing (satellite: no panic on corrupted input).

use spt_corpus::{
    check_program, generate, mutate, run_corpus, CheckOptions, CorpusConfig, ProgramUnderTest,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A corpus slice with every oracle enabled must be green: the five
/// oracles hold on each module.
#[test]
fn corpus_slice_is_green() {
    let cfg = CorpusConfig {
        start_seed: 100,
        count: 12,
        ..CorpusConfig::default()
    };
    let outcome = run_corpus(&cfg);
    assert_eq!(outcome.checked, 12);
    assert!(
        outcome.is_green(),
        "corpus failures: {:#?}",
        outcome.failing
    );
}

/// Same seed → byte-identical source, across repeated calls and unrelated
/// generator invocations in between.
#[test]
fn generator_is_deterministic() {
    let first: Vec<String> = (0..20).map(|s| generate(s).source).collect();
    let _noise = generate(987_654_321);
    let second: Vec<String> = (0..20).map(|s| generate(s).source).collect();
    assert_eq!(first, second);
}

/// Same seed → byte-identical `CompilationReport` whether the pipeline
/// runs sequentially or sharded (the worker-count override is process
/// global; `check_program` serializes it internally and compares the
/// reports from 1 and 4 workers against the ambient compile).
#[test]
fn reports_are_thread_invariant() {
    for seed in [7u64, 8, 9] {
        let p = generate(seed);
        let opts = CheckOptions {
            check_engines: false,
            cache_root: None,
            ..CheckOptions::default()
        };
        let failures = check_program(&ProgramUnderTest::from(&p), &opts);
        assert!(failures.is_empty(), "seed {seed}: {failures:#?}");
    }
}

/// Transforming one program repeatedly in one process emits the same
/// module every time, down to its arena ids: the transformed module's
/// content hash keys its simulation memo, so it may not follow hash-set
/// iteration order (which differs between set instances).
#[test]
fn transformed_modules_hash_the_same_every_time() {
    let config = spt_core::CompilerConfig::best();
    for seed in 0..200 {
        let p = generate(seed);
        let baseline = spt_frontend::compile(&p.source).expect("generated program compiles");
        let input = spt_core::pipeline::ProfilingInput::new(p.entry, [p.train_arg]);
        let hashes: std::collections::BTreeSet<u64> = (0..8)
            .map(|_| {
                let mut module = baseline.clone();
                spt_core::pipeline::transform_module(&mut module, &input, &config)
                    .expect("generated program transforms");
                module.content_hash()
            })
            .collect();
        assert_eq!(hashes.len(), 1, "seed {seed}: {hashes:x?}");
    }
}

/// Token-corrupted programs must never panic the frontend: every mutant is
/// answered with `Ok` or a clean `CompileError`.
#[test]
fn mutation_fuzz_never_panics_the_frontend() {
    let mut panics = Vec::new();
    for seed in 0..40u64 {
        let valid = generate(seed);
        for round in 1..6usize {
            let mutant = mutate(&valid.source, seed * 31 + round as u64, round * 2);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ = spt_frontend::compile(&mutant);
            }));
            if outcome.is_err() {
                panics.push((seed, round, mutant));
            }
        }
    }
    assert!(
        panics.is_empty(),
        "frontend panicked on {} mutants; first: seed {} round {}:\n{}",
        panics.len(),
        panics[0].0,
        panics[0].1,
        panics[0].2
    );
}
