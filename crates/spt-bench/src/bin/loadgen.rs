//! **loadgen**: concurrent load generator for the `sptd` compile daemon.
//!
//! Drives a daemon — an external one via `--socket`, or an in-process
//! server it spins up on a temporary socket — with a mixed batch of
//! compile and sim requests over the whole bench suite from several client
//! connections at once. The mix deliberately repeats a small set of unique
//! requests, so the first occurrence of each is a cold compile and the rest
//! are warm cache hits: the measured distribution covers both tiers.
//!
//! What it reports:
//!
//! - **throughput and latency**: wall time, requests/s, client-side
//!   p50/p99/p999 round-trip latency (overall and broken down per request
//!   kind: compile / sim / stats) and server-side p50/p99;
//! - **incremental batch**: K cold compile variants differing in one
//!   function, submitted as one `CompileBatch` versus K isolated compiles —
//!   the function-granular cache dedups the shared functions;
//! - **cache behaviour**: the store's memory hit/miss/eviction counters
//!   summed over kinds, and the disk tier's memo hits and budget
//!   evictions, straight from the daemon's `stats` request;
//! - **tier comparison**: median warm-hit service time from the in-memory
//!   tier versus the on-disk tier (same requests, memory deliberately
//!   cold), measured in-process so socket overhead cancels out;
//! - **equivalence** (`--digest`): the same order-stable result digest
//!   `perfbench` prints, built from daemon-served reports and simulations —
//!   equal digests mean the daemon computed bit-identical results.
//!
//! Unless `--no-append` is given, a `"kind": "daemon"` entry with all of
//! the above is appended to `BENCH_pipeline.json` alongside `perfbench`'s
//! pipeline entries.
//!
//! Run: `cargo run --release -p spt-bench --bin loadgen`
//! Against a daemon: `... --bin loadgen -- --socket /tmp/sptd.sock`
//! Options: `--requests N` (default 1200), `--clients N` (default 8),
//! `--digest`, `--no-append`, `--shutdown`

use spt_bench::history::{
    git_revision, load_history, next_entry_index, peak_rss_kb, write_history, ENGINE,
};
use spt_serve::{
    serve, Client, CompileReq, CompileService, ReqBody, RespBody, ServiceConfig, SimReq,
};
use spt_sim::MachineConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Options {
    socket: Option<String>,
    requests: usize,
    clients: usize,
    digest: bool,
    append: bool,
    shutdown: bool,
}

fn parse_args() -> Options {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        socket: None,
        requests: 1200,
        clients: 8,
        digest: false,
        append: true,
        shutdown: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--socket" => {
                i += 1;
                opts.socket = Some(argv.get(i).cloned().unwrap_or_else(|| {
                    spt_bench::die("--socket needs a path");
                }));
            }
            "--requests" => {
                i += 1;
                opts.requests = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| spt_bench::die("--requests needs a count"));
            }
            "--clients" => {
                i += 1;
                opts.clients = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| spt_bench::die("--clients needs a positive count"));
            }
            "--digest" => opts.digest = true,
            "--no-append" => opts.append = false,
            "--shutdown" => opts.shutdown = true,
            other => spt_bench::die(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    opts
}

/// One request of the mixed batch: the suite benchmark it targets plus what
/// to ask the daemon.
enum Work {
    Compile { bench: usize, config_id: u8 },
    Sim { bench: usize, arg: i64 },
    Stats,
}

/// Request-kind index into the per-kind latency breakdown.
const KIND_COMPILE: usize = 0;
const KIND_SIM: usize = 1;
const KIND_STATS: usize = 2;
const KIND_NAMES: [&str; 3] = ["compile", "sim", "stats"];

/// The unique-request mix the batch cycles through: per suite benchmark,
/// two compile configurations, three sim arguments, and one stats probe —
/// 50 distinct cache keys over the 10-program suite (stats is uncached),
/// so a 1200-request batch revisits each key ~20 times (1 cold
/// computation, the rest warm hits).
fn build_mix(suite: &[spt_bench_suite::Benchmark]) -> Vec<Work> {
    let mut mix = Vec::new();
    for (i, b) in suite.iter().enumerate() {
        mix.push(Work::Compile {
            bench: i,
            config_id: 1,
        });
        mix.push(Work::Compile {
            bench: i,
            config_id: 0,
        });
        for div in [1, 2, 4] {
            mix.push(Work::Sim {
                bench: i,
                arg: (b.train_arg / div).max(1),
            });
        }
        mix.push(Work::Stats);
    }
    mix
}

fn compile_req(b: &spt_bench_suite::Benchmark, config_id: u8) -> CompileReq {
    CompileReq {
        source: b.source.to_string(),
        entry: b.entry.to_string(),
        train: b.train_arg,
        config_id,
        want_module_text: false,
    }
}

fn sim_req(b: &spt_bench_suite::Benchmark, arg: i64) -> SimReq {
    SimReq {
        source: b.source.to_string(),
        entry: b.entry.to_string(),
        train: b.train_arg,
        arg,
        config_id: 1,
        machine: MachineConfig::default(),
    }
}

/// Computes the suite result digest through the daemon: one compile and one
/// ref-input sim per benchmark, in suite order, folded exactly the way
/// `perfbench` folds its locally computed runs. Equal digests ⇔ the daemon
/// served bit-identical results.
fn daemon_digest(client: &mut Client, suite: &[spt_bench_suite::Benchmark]) -> u64 {
    let mut h = spt_trace::codec::Fnv::new();
    for b in suite {
        let compiled = client
            .compile(compile_req(b, 1))
            .unwrap_or_else(|e| spt_bench::die(format!("{}: daemon compile failed: {e}", b.name)));
        let sim = client
            .sim(sim_req(b, b.ref_arg))
            .unwrap_or_else(|e| spt_bench::die(format!("{}: daemon sim failed: {e}", b.name)));
        let (base, spt) = match (
            spt_trace::sim_from_bytes(&sim.baseline),
            spt_trace::sim_from_bytes(&sim.spt),
        ) {
            (Ok(base), Ok(spt)) => (base, spt),
            (Err(e), _) | (_, Err(e)) => {
                spt_bench::die(format!("{}: undecodable daemon sim result: {e}", b.name))
            }
        };
        spt_bench::fold_report_digest(&mut h, &compiled.report_debug, &base, &spt);
    }
    h.finish()
}

fn median_us(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Median warm service time of the in-memory tier versus the disk tier for
/// the same sim requests, measured against [`CompileService`] directly (no
/// socket, so transport overhead cancels). Disk-warm means: artifacts
/// memoized in `.spt-cache/`-style storage by a previous service instance,
/// this instance's memory still cold — the state a daemon restart leaves
/// behind.
fn tier_comparison(suite: &[spt_bench_suite::Benchmark]) -> (u64, u64) {
    let bench = &suite[2]; // the smallest train input in the suite
    let cache_dir = std::env::temp_dir().join(format!("spt-loadgen-tier-{}", std::process::id()));
    let cfg = || ServiceConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServiceConfig::default()
    };
    let args: Vec<i64> = (0..7).map(|i| bench.train_arg + i).collect();
    let requests: Vec<ReqBody> = args
        .iter()
        .map(|&a| ReqBody::Sim(sim_req(bench, a)))
        .collect();
    let ok = |resp: RespBody| match resp {
        RespBody::Ok(_) => {}
        RespBody::Err(e) => spt_bench::die(format!("tier-comparison sim failed: {e}")),
    };

    // Prime the disk tier with a throwaway service instance.
    let primer = CompileService::new(cfg());
    for req in &requests {
        ok(primer.execute(req));
    }
    drop(primer);

    // Fresh service, same disk: first pass is all disk-warm memo hits,
    // second pass is all memory-warm hits.
    let service = CompileService::new(cfg());
    let mut disk_samples = Vec::new();
    for req in &requests {
        let t = Instant::now();
        ok(service.execute(req));
        disk_samples.push(t.elapsed().as_micros() as u64);
    }
    let mut mem_samples = Vec::new();
    for req in &requests {
        let t = Instant::now();
        ok(service.execute(req));
        mem_samples.push(t.elapsed().as_micros() as u64);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    (median_us(&mut mem_samples), median_us(&mut disk_samples))
}

fn stat(stats: &HashMap<String, u64>, key: &str) -> u64 {
    stats.get(key).copied().unwrap_or(0)
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Ident-boundary rename of `from` across `source` — builds a compile
/// variant that differs from the base in exactly one function's IR.
fn rename_ident(source: &str, from: &str, to: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while let Some(pos) = source[i..].find(from) {
        let abs = i + pos;
        let end = abs + from.len();
        let left_ok = abs == 0 || !is_ident_char(bytes[abs - 1] as char);
        let right_ok = end == bytes.len() || !is_ident_char(bytes[end] as char);
        out.push_str(&source[i..abs]);
        out.push_str(if left_ok && right_ok { to } else { from });
        i = end;
    }
    out.push_str(&source[i..]);
    out
}

/// First defined function whose name is not `entry`.
fn first_helper_name(source: &str, entry: &str) -> String {
    let mut off = 0;
    while let Some(pos) = source[off..].find("fn ") {
        let abs = off + pos;
        let name: String = source[abs + 3..]
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        if !name.is_empty() && name != entry {
            return name;
        }
        off = abs + 3;
    }
    spt_bench::die("no helper function in source")
}

/// The incremental scenario: K compile variants that share every function
/// except one renamed helper, submitted cold as one `CompileBatch` versus
/// cold as K individual compiles (each against a fresh service, no socket).
/// The batch dedups the shared functions through the function-granular
/// cache, so it should cost roughly one module compile plus K splices.
fn incremental_batch_comparison(suite: &[spt_bench_suite::Benchmark]) -> (u64, u64, usize) {
    const VARIANTS: usize = 6;
    let bench = &suite[2]; // the smallest train input in the suite
    let helper = first_helper_name(bench.source, bench.entry);
    let reqs: Vec<CompileReq> = (0..VARIANTS)
        .map(|i| {
            let source = if i == 0 {
                bench.source.to_string()
            } else {
                rename_ident(bench.source, &helper, &format!("{helper}_v{i}"))
            };
            CompileReq {
                source,
                entry: bench.entry.to_string(),
                train: bench.train_arg,
                config_id: 1,
                want_module_text: false,
            }
        })
        .collect();
    let ok = |resp: RespBody| match resp {
        RespBody::Ok(_) => {}
        RespBody::Err(e) => spt_bench::die(format!("incremental-scenario compile failed: {e}")),
    };

    // Cold individual compiles: a fresh service per variant, so nothing is
    // shared between them (the no-daemon, one-CLI-invocation-each world).
    let t = Instant::now();
    for req in &reqs {
        let service = CompileService::new(ServiceConfig::default());
        ok(service.execute(&ReqBody::Compile(req.clone())));
    }
    let individual_us = t.elapsed().as_micros() as u64;

    // The same variants as one cold batch.
    let service = CompileService::new(ServiceConfig::default());
    let t = Instant::now();
    ok(service.execute(&ReqBody::CompileBatch(reqs)));
    let batch_us = t.elapsed().as_micros() as u64;
    (batch_us, individual_us, VARIANTS)
}

fn main() {
    let opts = parse_args();
    let suite = spt_bench_suite::suite();
    spt_bench::header("loadgen", "concurrent mixed cold/warm load against sptd");

    // Either an external daemon, or an in-process one on a temp socket with
    // a private cache directory (results are identical either way — the
    // cache tiers are exact).
    let mut in_process = None;
    let mut temp_cache = None;
    let socket: String = match &opts.socket {
        Some(path) => path.clone(),
        None => {
            let pid = std::process::id();
            let sock = std::env::temp_dir().join(format!("spt-loadgen-{pid}.sock"));
            let cache = std::env::temp_dir().join(format!("spt-loadgen-cache-{pid}"));
            let service = Arc::new(CompileService::new(ServiceConfig {
                cache_dir: Some(cache.clone()),
                ..ServiceConfig::default()
            }));
            let handle = serve(service, &sock, 0)
                .unwrap_or_else(|e| spt_bench::die(format!("cannot start in-process sptd: {e}")));
            println!("in-process sptd on {}", sock.display());
            in_process = Some(handle);
            temp_cache = Some(cache);
            sock.to_string_lossy().into_owned()
        }
    };

    let mut control = Client::connect(&socket)
        .unwrap_or_else(|e| spt_bench::die(format!("cannot connect to {socket}: {e}")));
    control
        .ping()
        .unwrap_or_else(|e| spt_bench::die(format!("daemon did not answer ping: {e}")));

    if opts.digest {
        println!(
            "report digest: {:016x}",
            daemon_digest(&mut control, &suite)
        );
    }

    // The concurrent batch: `clients` connections race through `requests`
    // work items handed out by a shared counter.
    let mix = Arc::new(build_mix(&suite));
    let suite = Arc::new(suite);
    let next = Arc::new(AtomicUsize::new(0));
    let client_errors = Arc::new(AtomicU64::new(0));
    let total = opts.requests;
    let t0 = Instant::now();
    let workers: Vec<_> = (0..opts.clients)
        .map(|_| {
            let socket = socket.clone();
            let mix = Arc::clone(&mix);
            let suite = Arc::clone(&suite);
            let next = Arc::clone(&next);
            let client_errors = Arc::clone(&client_errors);
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket)
                    .unwrap_or_else(|e| spt_bench::die(format!("client connect failed: {e}")));
                let mut latencies_us: Vec<(usize, u64)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        return latencies_us;
                    }
                    let t = Instant::now();
                    let (kind, result) = match &mix[i % mix.len()] {
                        Work::Compile { bench, config_id } => (
                            KIND_COMPILE,
                            client
                                .compile(compile_req(&suite[*bench], *config_id))
                                .map(drop),
                        ),
                        Work::Sim { bench, arg } => (
                            KIND_SIM,
                            client.sim(sim_req(&suite[*bench], *arg)).map(drop),
                        ),
                        Work::Stats => (KIND_STATS, client.stats().map(drop)),
                    };
                    latencies_us.push((kind, t.elapsed().as_micros() as u64));
                    if let Err(e) = result {
                        client_errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!("request {i} failed: {e}");
                    }
                }
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut by_kind: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for w in workers {
        match w.join() {
            Ok(ls) => {
                for (kind, us) in ls {
                    latencies.push(us);
                    by_kind[kind].push(us);
                }
            }
            Err(_) => spt_bench::die("a client thread panicked"),
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    latencies.sort_unstable();
    for ls in &mut by_kind {
        ls.sort_unstable();
    }
    let qps = if wall_s > 0.0 {
        total as f64 / wall_s
    } else {
        0.0
    };
    let (client_p50, client_p99, client_p999) = (
        quantile_us(&latencies, 0.50),
        quantile_us(&latencies, 0.99),
        quantile_us(&latencies, 0.999),
    );
    let errors = client_errors.load(Ordering::Relaxed);

    let stats: HashMap<String, u64> = control
        .stats()
        .unwrap_or_else(|e| spt_bench::die(format!("stats request failed: {e}")))
        .into_iter()
        .collect();
    let tiers = ["mem_unit", "mem_sim", "mem_func_analysis", "mem_func_emit"];
    let sum = |suffix: &str| -> u64 {
        tiers
            .iter()
            .map(|t| stat(&stats, &format!("{t}_{suffix}")))
            .sum()
    };
    let (mem_hits, mem_misses) = (sum("hits"), sum("misses"));
    let mem_hit_rate = if mem_hits + mem_misses > 0 {
        mem_hits as f64 / (mem_hits + mem_misses) as f64
    } else {
        0.0
    };
    let mem_evictions = sum("evictions");
    let (server_p50, server_p99) = (
        stat(&stats, "latency_p50_us"),
        stat(&stats, "latency_p99_us"),
    );

    println!(
        "batch: {total} requests, {} clients, {wall_s:.3}s wall = {qps:.0} req/s ({errors} errors)",
        opts.clients
    );
    println!("latency: client p50={client_p50}us p99={client_p99}us p999={client_p999}us  server p50={server_p50}us p99={server_p99}us");
    for (name, ls) in KIND_NAMES.iter().zip(&by_kind) {
        println!(
            "  {name}: {} requests, p50={}us p99={}us",
            ls.len(),
            quantile_us(ls, 0.50),
            quantile_us(ls, 0.99)
        );
    }
    println!(
        "memory tiers: {mem_hits} hits / {mem_misses} misses ({:.1}% hit), {mem_evictions} evictions",
        mem_hit_rate * 100.0
    );
    println!(
        "compile dedup: {} led / {} joined; disk memo hits: {}, disk budget evictions: {}",
        stat(&stats, "flights_led"),
        stat(&stats, "flights_joined"),
        stat(&stats, "disk_memo_hits"),
        stat(&stats, "disk_budget_evictions")
    );

    let (mem_warm_us, disk_warm_us) = tier_comparison(&suite);
    println!("warm hit (median service time): memory {mem_warm_us}us vs disk {disk_warm_us}us");

    let (batch_us, individual_us, batch_variants) = incremental_batch_comparison(&suite);
    let batch_speedup = if batch_us > 0 {
        individual_us as f64 / batch_us as f64
    } else {
        0.0
    };
    println!(
        "incremental batch: {batch_variants} cold variants as one CompileBatch {batch_us}us \
         vs {individual_us}us individually ({batch_speedup:.2}x)"
    );

    if opts.shutdown || in_process.is_some() {
        control
            .shutdown()
            .unwrap_or_else(|e| spt_bench::die(format!("daemon shutdown failed: {e}")));
    }
    if let Some(handle) = in_process {
        handle.join();
    }
    if let Some(cache) = temp_cache {
        let _ = std::fs::remove_dir_all(cache);
    }

    if !opts.append {
        println!("\nbatch OK (no BENCH_pipeline.json update)");
        return;
    }
    let mut history = load_history("BENCH_pipeline.json");
    let entry = format!(
        "{{\"entry\": {}, \"rev\": \"{}\", \"kind\": \"daemon\", \"config\": \"best\", \
         \"exec_tier\": \"{}\", \"cache_mode\": \"mixed\", \
         \"requests\": {total}, \"clients\": {}, \"wall_s\": {wall_s:.6}, \"qps\": {qps:.1}, \
         \"client_p50_us\": {client_p50}, \"client_p99_us\": {client_p99}, \
         \"client_p999_us\": {client_p999}, \
         \"compile_p50_us\": {}, \"compile_p99_us\": {}, \
         \"sim_p50_us\": {}, \"sim_p99_us\": {}, \
         \"stats_p50_us\": {}, \"stats_p99_us\": {}, \
         \"server_p50_us\": {server_p50}, \"server_p99_us\": {server_p99}, \
         \"mem_hits\": {mem_hits}, \"mem_misses\": {mem_misses}, \
         \"mem_hit_rate\": {mem_hit_rate:.4}, \"mem_evictions\": {mem_evictions}, \
         \"flights_led\": {}, \"flights_joined\": {}, \"disk_memo_hits\": {}, \
         \"errors\": {errors}, \"mem_warm_us\": {mem_warm_us}, \"disk_warm_us\": {disk_warm_us}, \
         \"batch_variants\": {batch_variants}, \"batch_cold_us\": {batch_us}, \
         \"batch_individual_us\": {individual_us}, \"batch_speedup\": {batch_speedup:.2}, \
         \"peak_rss_kb\": {}}}",
        next_entry_index(&history),
        git_revision(),
        ENGINE,
        opts.clients,
        quantile_us(&by_kind[KIND_COMPILE], 0.50),
        quantile_us(&by_kind[KIND_COMPILE], 0.99),
        quantile_us(&by_kind[KIND_SIM], 0.50),
        quantile_us(&by_kind[KIND_SIM], 0.99),
        quantile_us(&by_kind[KIND_STATS], 0.50),
        quantile_us(&by_kind[KIND_STATS], 0.99),
        stat(&stats, "flights_led"),
        stat(&stats, "flights_joined"),
        stat(&stats, "disk_memo_hits"),
        peak_rss_kb()
    );
    history.push(entry);
    write_history("BENCH_pipeline.json", &history)
        .unwrap_or_else(|e| spt_bench::die(format!("cannot write BENCH_pipeline.json: {e}")));
    println!(
        "\nwrote BENCH_pipeline.json ({} history entr{})",
        history.len(),
        if history.len() == 1 { "y" } else { "ies" }
    );
}
