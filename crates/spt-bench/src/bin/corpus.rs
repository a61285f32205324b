//! **corpus**: the command-line face of `spt-corpus` — corpus-scale
//! differential fuzzing of the whole pipeline.
//!
//! Default mode pushes `--count` generated modules (seeds starting at
//! `--seed`) through the six-oracle battery, prints a bucketed triage
//! summary, and exits non-zero if anything failed. With `--reduce`, each
//! bucket's first failing module is delta-debugged to a minimal repro and
//! written under `--out` (default `tests/corpus-regressions/`).
//!
//! Other modes:
//!
//! * `--digest` — print a deterministic fingerprint of every module's
//!   source and report over the slice; two invocations must print the same
//!   line (the cross-process determinism gate).
//! * `--mutate <N>` — frontend hardening: N token-corrupted mutants per
//!   seed through the frontend, which must never panic.
//! * `--sweep-failpoints` — (feature `failpoints`) force every registered
//!   fault-injection site in turn over the slice and assert the
//!   degradation contract.
//! * `--inject <site>=<action>` — (feature `failpoints`) arm a failpoint
//!   for the whole run, e.g. `pipeline::verify=error(demo)`; combine with
//!   `--reduce` to watch a deliberate failure get minimized.
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p spt-bench --bin corpus -- --seed 1 --count 1000
//! cargo run --release -p spt-bench --features failpoints --bin corpus -- \
//!     --seed 1 --count 20 --sweep-failpoints
//! ```

use spt_corpus::{
    group, run_corpus, with_quiet_panic_hook, CheckOptions, CorpusConfig, ProgramUnderTest,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    seed: u64,
    count: usize,
    threads: Option<usize>,
    digest: bool,
    mutate: Option<usize>,
    sweep: bool,
    inject: Option<String>,
    reduce: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: corpus [--seed N] [--count N] [--threads N] [--digest] \
         [--mutate N] [--sweep-failpoints] [--inject SITE=ACTION] \
         [--reduce] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        count: 1000,
        threads: None,
        digest: false,
        mutate: None,
        sweep: false,
        inject: None,
        reduce: false,
        out: PathBuf::from("tests/corpus-regressions"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--count" => args.count = value("--count").parse().unwrap_or_else(|_| usage()),
            "--threads" => {
                args.threads = Some(value("--threads").parse().unwrap_or_else(|_| usage()))
            }
            "--digest" => args.digest = true,
            "--mutate" => args.mutate = Some(value("--mutate").parse().unwrap_or_else(|_| usage())),
            "--sweep-failpoints" => args.sweep = true,
            "--inject" => args.inject = Some(value("--inject")),
            "--reduce" => args.reduce = true,
            "--out" => args.out = PathBuf::from(value("--out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    args
}

/// Frontend mutation fuzzing: `rounds` mutants per seed, no panic allowed.
fn run_mutation_fuzz(args: &Args, rounds: usize) -> ExitCode {
    let mut checked = 0usize;
    let mut panics = 0usize;
    for i in 0..args.count as u64 {
        let valid = spt_corpus::generate(args.seed + i);
        for round in 1..=rounds {
            let mutant = spt_corpus::mutate(
                &valid.source,
                (args.seed + i) * 131 + round as u64,
                round * 2,
            );
            checked += 1;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = spt_frontend::compile(&mutant);
            }));
            if outcome.is_err() {
                panics += 1;
                println!(
                    "PANIC on mutant (seed {} round {round}):\n{mutant}",
                    args.seed + i
                );
            }
        }
    }
    println!("mutation fuzz: {checked} mutants, {panics} panics");
    if panics == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(feature = "failpoints")]
fn run_sweep(args: &Args, opts: &CheckOptions) -> ExitCode {
    let outcome = spt_corpus::sweep_failpoints(args.seed, args.count, opts);
    println!(
        "failpoint sweep: {} site×seed runs over {} sites, {} violations",
        outcome.runs,
        spt_core::failpoint::sites().len(),
        outcome.failures.len()
    );
    for f in &outcome.failures {
        println!(
            "  [{}] seed {}: {:?} {}",
            f.site, f.seed, f.failure.kind, f.failure.detail
        );
    }
    if outcome.is_green() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(not(feature = "failpoints"))]
fn run_sweep(_args: &Args, _opts: &CheckOptions) -> ExitCode {
    eprintln!("--sweep-failpoints requires building with --features failpoints");
    ExitCode::from(2)
}

#[cfg(feature = "failpoints")]
fn arm_injection(spec: &str) -> bool {
    let Some((site, action)) = spec.split_once('=') else {
        eprintln!("--inject expects SITE=ACTION, got {spec:?}");
        return false;
    };
    let Some(action) = spt_core::failpoint::Action::parse(action) else {
        eprintln!(
            "--inject: cannot parse action {action:?} (want panic(msg)/error(msg)/delay(ms))"
        );
        return false;
    };
    spt_core::failpoint::set(site, action);
    true
}

#[cfg(not(feature = "failpoints"))]
fn arm_injection(_spec: &str) -> bool {
    eprintln!("--inject requires building with --features failpoints");
    false
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(n) = args.threads {
        spt_core::parallel::set_thread_count_override(Some(n));
    }
    let opts = CheckOptions::default();

    if let Some(rounds) = args.mutate {
        return run_mutation_fuzz(&args, rounds);
    }
    if args.digest {
        let digest = spt_corpus::corpus_digest(args.seed, args.count, &opts);
        println!(
            "corpus digest seeds {}..{}: {digest:016x}",
            args.seed,
            args.seed + args.count as u64
        );
        return ExitCode::SUCCESS;
    }
    if args.sweep {
        return with_quiet_panic_hook(|| run_sweep(&args, &opts));
    }

    with_quiet_panic_hook(|| {
        if let Some(spec) = &args.inject {
            if !arm_injection(spec) {
                return ExitCode::from(2);
            }
        }
        let cfg = CorpusConfig {
            start_seed: args.seed,
            count: args.count,
            opts: opts.clone(),
            use_temp_cache: true,
        };
        let outcome = run_corpus(&cfg);
        let buckets = group(&outcome.failing);
        println!(
            "corpus: {} modules checked (seeds {}..{}), {} failing, {} bucket(s)",
            outcome.checked,
            args.seed,
            args.seed + args.count as u64,
            outcome.failing.len(),
            buckets.len()
        );
        for (bucket, seeds) in &buckets {
            println!("  {bucket} — {} seed(s), e.g. {}", seeds.len(), seeds[0]);
        }

        if args.reduce && !buckets.is_empty() {
            // Reduction probes only need the base compile + semantics; the
            // cross-compile oracles would triple every probe's cost.
            let lean = CheckOptions {
                check_threads: false,
                check_engines: false,
                cache_root: None,
                ..opts.clone()
            };
            for (bucket, seeds) in &buckets {
                let seed = seeds[0];
                let p = spt_corpus::generate(seed);
                let under = ProgramUnderTest::from(&p);
                let kind = spt_corpus::check_program(&under, &lean)
                    .iter()
                    .find(|f| spt_corpus::bucket_of(f) == *bucket)
                    .map(|f| f.kind);
                let Some(kind) = kind else {
                    println!(
                        "  {bucket}: not reproducible with lean oracles; keeping seed {seed} only"
                    );
                    continue;
                };
                match spt_corpus::reduce::reduce_and_persist(
                    seed, &under, kind, bucket, &lean, &args.out,
                ) {
                    Ok((path, repro)) => println!(
                        "  reduced {bucket} to {} line(s) -> {}",
                        repro.source.lines().count(),
                        path.display()
                    ),
                    Err(e) => println!("  failed to persist repro for {bucket}: {e}"),
                }
            }
        }

        if outcome.is_green() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    })
}
