//! `sptd` — the persistent SPT compile daemon.
//!
//! ```text
//! sptd --socket PATH [options]
//!
//! options:
//!   --socket PATH        Unix socket to listen on (required)
//!   --workers N          worker threads (default: SPT_THREADS or cores)
//!   --cache-dir DIR      artifact store's disk tier (default .spt-cache;
//!                        "none" disables it)
//!   --mem-budget BYTES   memory-tier bound, all kinds together
//!                        (default 134217728)
//!   --disk-budget BYTES  bound on the store's own files in the cache
//!                        directory; least recently used go first, other
//!                        files are never deleted (default unbounded)
//!   --shards N           memory-tier shards (default 8)
//! ```
//!
//! The daemon serves until a client sends a `Shutdown` request (e.g.
//! `loadgen --socket PATH --shutdown`), then drains, removes its socket
//! file, and exits 0.

use std::process::ExitCode;
use std::sync::Arc;

use spt_serve::{serve, CompileService, ServiceConfig};

struct Options {
    socket: String,
    workers: usize,
    service: ServiceConfig,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sptd --socket PATH [--workers N] [--cache-dir DIR|none] \
         [--mem-budget BYTES] [--disk-budget BYTES] [--shards N]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut socket = None;
    let mut workers = 0usize;
    let mut service = ServiceConfig::default();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<String, ExitCode> {
            *i += 1;
            argv.get(*i).cloned().ok_or_else(usage)
        };
        match argv[i].as_str() {
            "--socket" => socket = Some(take(&mut i)?),
            "--workers" => workers = parse_num(&take(&mut i)?)? as usize,
            "--cache-dir" => {
                let dir = take(&mut i)?;
                service.cache_dir = if dir == "none" {
                    None
                } else {
                    Some(dir.into())
                };
            }
            "--mem-budget" => service.mem_budget_bytes = parse_num(&take(&mut i)?)?,
            "--disk-budget" => service.disk_budget_bytes = Some(parse_num(&take(&mut i)?)?),
            "--shards" => service.shards = parse_num(&take(&mut i)?)? as usize,
            other => {
                eprintln!("sptd: unknown option {other:?}");
                return Err(usage());
            }
        }
        i += 1;
    }
    let Some(socket) = socket else {
        return Err(usage());
    };
    Ok(Options {
        socket,
        workers,
        service,
    })
}

fn parse_num(s: &str) -> Result<u64, ExitCode> {
    s.parse().map_err(|_| {
        eprintln!("sptd: {s:?} is not a number");
        usage()
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let service = Arc::new(CompileService::new(opts.service));
    let handle = match serve(service, &opts.socket, opts.workers) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("sptd: cannot listen on {}: {e}", opts.socket);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("sptd: serving on {}", opts.socket);
    handle.join();
    eprintln!("sptd: shut down cleanly");
    ExitCode::SUCCESS
}
