//! `sptc` — the SPT compiler driver.
//!
//! ```text
//! sptc ir <file.mc>                          print the SSA IR
//! sptc analyze <file.mc> [options]           per-loop cost-model report
//! sptc compile <file.mc> [options]           run the pipeline, print SPT IR
//! sptc run <file.mc> --entry main --arg N    interpret (reference semantics)
//! sptc sim <file.mc> [options]               simulate baseline vs SPT
//!
//! options:
//!   --config basic|best|anticipated   compiler configuration (default best)
//!   --entry NAME                      entry function (default main)
//!   --arg N                           entry argument (default 100)
//!   --train N                         profiling argument (default --arg)
//!   --no-cache                        do not read or write the
//!                                     `.spt-cache/` artifact store
//!   --daemon SOCKET                   route analyze/compile/sim through a
//!                                     running sptd instance
//! ```
//!
//! By default the pipeline commands (`analyze`, `compile`, `sim`) use the
//! `.spt-cache/` artifact store in the working directory: each whole
//! compile (the SPT module and its report), the pass-1 analysis units and
//! (`sim`) the simulation results are stored there, so re-invoking `sptc`
//! on the same file and configuration decodes one stored compile instead
//! of running the pipeline, and simulates nothing; after an edit, only the
//! edited functions are analyzed again. Results are bit-identical either
//! way; `--no-cache` computes everything and writes nothing.
//!
//! With `--daemon SOCKET` the pipeline commands become thin clients of a
//! running `sptd`: the compile happens (at most once) in the daemon, and
//! repeated invocations are served from its in-memory cache. Output is
//! byte-identical to the local path — both render through the same library
//! code, and the daemon's cache tiers are exact
//! (`crates/spt-serve/tests/daemon_equivalence.rs` pins this).

use spt::pipeline::{compile_and_transform, CompilerConfig, ProfilingInput};
use spt::profile::{Interp, NoProfiler, Val};
use spt::serve::proto::{CompileReq, SimReq};
use spt::serve::{sim_with_cache, Client, SimTraceStats};
use spt::sim::{MachineConfig, SimResult};
use std::process::ExitCode;

struct Options {
    command: String,
    file: String,
    config: CompilerConfig,
    config_id: u8,
    entry: String,
    arg: i64,
    train: i64,
    daemon: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sptc <ir|analyze|compile|run|sim> <file.mc> \
         [--config basic|best|anticipated] [--entry NAME] [--arg N] [--train N] [--no-cache] \
         [--daemon SOCKET]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() < 2 {
        return Err(usage());
    }
    let command = argv[0].clone();
    let file = argv[1].clone();
    let mut config = CompilerConfig::best();
    let mut config_id = 1u8;
    let mut entry = "main".to_string();
    let mut arg = 100i64;
    let mut train: Option<i64> = None;
    let mut no_cache = false;
    let mut daemon = None;
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--config" => {
                i += 1;
                (config, config_id) = match argv.get(i).map(String::as_str) {
                    Some("basic") => (CompilerConfig::basic(), 0),
                    Some("best") => (CompilerConfig::best(), 1),
                    Some("anticipated") => (CompilerConfig::anticipated(), 2),
                    other => {
                        eprintln!("unknown config {other:?}");
                        return Err(usage());
                    }
                };
            }
            "--entry" => {
                i += 1;
                entry = argv.get(i).cloned().ok_or_else(usage)?;
            }
            "--arg" => {
                i += 1;
                arg = argv.get(i).and_then(|s| s.parse().ok()).ok_or_else(usage)?;
            }
            "--train" => {
                i += 1;
                train = Some(argv.get(i).and_then(|s| s.parse().ok()).ok_or_else(usage)?);
            }
            "--no-cache" => no_cache = true,
            "--daemon" => {
                i += 1;
                daemon = Some(argv.get(i).cloned().ok_or_else(usage)?);
            }
            other => {
                eprintln!("unknown option {other:?}");
                return Err(usage());
            }
        }
        i += 1;
    }
    if !no_cache {
        config.trace.enabled = true;
        config.trace.cache_dir = Some(".spt-cache".into());
    }
    Ok(Options {
        command,
        file,
        config,
        config_id,
        entry,
        arg,
        train: train.unwrap_or(arg),
        daemon,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sptc: cannot read {}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };

    if opts.daemon.is_some() {
        return match opts.command.as_str() {
            "analyze" | "compile" | "sim" => daemon_cmd(&source, &opts),
            "ir" | "run" => {
                eprintln!("sptc: --daemon applies to analyze/compile/sim only");
                ExitCode::FAILURE
            }
            _ => usage(),
        };
    }

    match opts.command.as_str() {
        "ir" => cmd_ir(&source),
        "analyze" => cmd_analyze(&source, &opts),
        "compile" => cmd_compile(&source, &opts),
        "run" => cmd_run(&source, &opts),
        "sim" => cmd_sim(&source, &opts),
        _ => usage(),
    }
}

fn cmd_ir(source: &str) -> ExitCode {
    match spt::frontend::compile(source) {
        Ok(module) => {
            print!("{}", spt::ir::printer::print_module(&module));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sptc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn pipeline(source: &str, opts: &Options) -> Result<spt::pipeline::SptCompilation, ExitCode> {
    let input = ProfilingInput::new(opts.entry.clone(), [opts.train]);
    compile_and_transform(source, &input, &opts.config).map_err(|e| {
        eprintln!("sptc: {e}");
        ExitCode::FAILURE
    })
}

fn cmd_analyze(source: &str, opts: &Options) -> ExitCode {
    match pipeline(source, opts) {
        Ok(compiled) => {
            print!("{}", compiled.report.analyze_text());
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn cmd_compile(source: &str, opts: &Options) -> ExitCode {
    match pipeline(source, opts) {
        Ok(compiled) => {
            print!("{}", spt::ir::printer::print_module(&compiled.module));
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn cmd_run(source: &str, opts: &Options) -> ExitCode {
    let module = match spt::frontend::compile(source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("sptc: {e}");
            return ExitCode::FAILURE;
        }
    };
    match Interp::new(&module).run(&opts.entry, &[Val::from_i64(opts.arg)], &mut NoProfiler) {
        Ok(r) => {
            match r.ret {
                Some(v) => println!("{}", v.as_i64()),
                None => println!("(void)"),
            }
            eprintln!(
                "[{} instructions, {} weighted cycles]",
                r.insts_retired, r.weighted_cycles
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sptc: runtime error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_sim(source: &str, opts: &Options) -> ExitCode {
    let compiled = match pipeline(source, opts) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let machine = MachineConfig::default();
    let sim = |module| {
        let mut stats = SimTraceStats::default();
        sim_with_cache(
            module,
            &opts.entry,
            opts.arg,
            &machine,
            &opts.config.trace,
            &mut stats,
        )
    };
    let base = match sim(&compiled.baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sptc: baseline simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spt = match sim(&compiled.module) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sptc: SPT simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if base.ret != spt.ret {
        eprintln!("sptc: INTERNAL ERROR: SPT result diverged from baseline");
        return ExitCode::FAILURE;
    }
    print_sim(&base, &spt);
    ExitCode::SUCCESS
}

/// The shared `sim` rendering: the local and daemon paths both feed their
/// `SimResult` pair through here, so their stdout is byte-identical
/// (`tests/cli.rs` pins it).
fn print_sim(base: &SimResult, spt: &SimResult) {
    println!(
        "result: {}",
        base.ret.map(|v| (v as i64).to_string()).unwrap_or_default()
    );
    println!(
        "baseline: {:>12} cycles (IPC {:.2}, cache hit {:.1}%)",
        base.cycles,
        base.ipc(),
        base.cache_hit_rate * 100.0
    );
    println!(
        "SPT:      {:>12} cycles (IPC {:.2})   speedup {:.3}x",
        spt.cycles,
        spt.ipc(),
        base.cycles as f64 / spt.cycles as f64
    );
    let mut tags: Vec<_> = spt.loops.iter().collect();
    tags.sort_by_key(|(t, _)| **t);
    for (tag, s) in tags {
        println!(
            "  loop #{tag}: forks={} commits={} kills={} misspec={:.1}% loop-speedup={:.2}x",
            s.forks,
            s.commits,
            s.kills,
            s.misspec_ratio() * 100.0,
            s.speedup()
        );
    }
}

/// The daemon-backed variants of analyze/compile/sim. Compilation happens
/// in the `sptd` at `--daemon SOCKET`; this process only renders.
fn daemon_cmd(source: &str, opts: &Options) -> ExitCode {
    let socket = opts.daemon.as_deref().unwrap_or_default();
    let mut client = match Client::connect(socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sptc: cannot connect to daemon at {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compile_req = CompileReq {
        source: source.to_string(),
        entry: opts.entry.clone(),
        train: opts.train,
        config_id: opts.config_id,
        want_module_text: opts.command == "compile",
    };
    match opts.command.as_str() {
        "analyze" => match client.compile(compile_req) {
            Ok(resp) => {
                print!("{}", resp.analyze_text);
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "compile" => match client.compile(compile_req) {
            Ok(resp) => {
                print!("{}", resp.module_text);
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "sim" => {
            let req = SimReq {
                source: source.to_string(),
                entry: opts.entry.clone(),
                train: opts.train,
                arg: opts.arg,
                config_id: opts.config_id,
                machine: MachineConfig::default(),
            };
            let resp = match client.sim(req) {
                Ok(r) => r,
                Err(e) => return fail(e),
            };
            let (base, spt) = match (
                spt::trace::sim_from_bytes(&resp.baseline),
                spt::trace::sim_from_bytes(&resp.spt),
            ) {
                (Ok(b), Ok(s)) => (b, s),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("sptc: daemon sent an undecodable simulation result: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print_sim(&base, &spt);
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn fail(e: spt::serve::ClientError) -> ExitCode {
    eprintln!("sptc: {e}");
    ExitCode::FAILURE
}
