//! The frontend's output, pinned.
//!
//! One digest folds, in order, the [`spt_ir::Module::content_hash`] of
//! `spt_frontend::compile` for the ten suite programs, the incremental
//! workload's module, corpus seeds 0..200, and the outcome of the 200
//! token-corrupted mutants the corpus mutation fuzz draws (the module's
//! hash, or the error's `line:col:message`). The content hash covers the
//! whole instruction arena (dead instructions included), the blocks, every
//! name and `num_vars`, so any change to the lexer, parser, lowering,
//! `mem2reg`, the cleanup passes or the verifier's first error moves it.
//! Every content hash and every store key downstream starts here: a change
//! that moves this digest on purpose moves them all, and must say so.

use spt_ir::codec::{word_hash, word_hash_words};

/// The digest at which the frontend's output is pinned.
const FRONTEND_DIGEST: u64 = 0xa38a_00e1_6e20_ff55;

fn outcome(source: &str) -> u64 {
    match spt_frontend::compile(source) {
        Ok(module) => module.content_hash(),
        Err(e) => word_hash(format!("{}:{}:{}", e.line, e.col, e.message).as_bytes()),
    }
}

#[test]
fn frontend_output_is_pinned() {
    let mut words = Vec::new();
    for b in spt_bench_suite::suite() {
        let module = spt_frontend::compile(b.source).expect("suite program compiles");
        words.push(module.content_hash());
    }
    let module = spt_frontend::compile(&spt_bench::incremental_workload::source())
        .expect("the incremental workload compiles");
    words.push(module.content_hash());
    for seed in 0..200u64 {
        let module = spt_frontend::compile(&spt_corpus::generate(seed).source)
            .expect("corpus program compiles");
        words.push(module.content_hash());
    }
    // The mutants of `mutation_fuzz_never_panics_the_frontend`, in its order.
    for seed in 0..40u64 {
        let valid = spt_corpus::generate(seed);
        for round in 1..6usize {
            let mutant = spt_corpus::mutate(&valid.source, seed * 31 + round as u64, round * 2);
            words.push(outcome(&mutant));
        }
    }
    assert_eq!(words.len(), 10 + 1 + 200 + 200);
    let digest = word_hash_words(&words);
    assert_eq!(
        digest, FRONTEND_DIGEST,
        "frontend output moved: {digest:#018x} (suite, workload, 200 corpus seeds, 200 mutants)"
    );
}
