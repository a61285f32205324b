//! The daemon's correctness bar: responses served through `sptd` — cold,
//! warm-from-memory, or warm-from-disk — are **byte-identical** to what a
//! single-process CLI compile produces, and N concurrent clients asking for
//! the same unit cost exactly one pipeline run.

use spt_core::pipeline::{compile_and_transform, transform_module_timed_with};
use spt_core::{CompilerConfig, ProfilingInput, StageTimings, Store, TraceSettings};
use spt_serve::{
    serve, sim_with_cache, Client, CompileReq, CompileService, OkBody, ReqBody, RespBody,
    ServiceConfig, SimReq, SimTraceStats,
};
use spt_sim::{MachineConfig, SptSimulator};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

/// A small cross-section of the suite — kept to three programs so the
/// debug-mode test stays quick; the full suite goes through the same code
/// path in `loadgen --digest` under CI.
const PROGRAMS: [&str; 3] = ["gap_s", "mcf_s", "twolf_s"];
const SIM_ARG: i64 = 60;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spt-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn compile_req(b: &spt_bench_suite::Benchmark) -> CompileReq {
    CompileReq {
        source: b.source.to_string(),
        entry: b.entry.to_string(),
        train: b.train_arg,
        config_id: 1,
        want_module_text: true,
    }
}

fn sim_req(b: &spt_bench_suite::Benchmark) -> SimReq {
    SimReq {
        source: b.source.to_string(),
        entry: b.entry.to_string(),
        train: b.train_arg,
        arg: SIM_ARG,
        config_id: 1,
        machine: MachineConfig::default(),
    }
}

/// Daemon-served analyze/compile/sim payloads equal the local single-process
/// pipeline's, byte for byte — cold and warm.
#[test]
fn daemon_responses_are_byte_identical_to_local_compiles() {
    let dir = temp_dir("equiv");
    let service = Arc::new(CompileService::new(ServiceConfig {
        cache_dir: Some(dir.join("cache")),
        ..ServiceConfig::default()
    }));
    let handle = serve(service, dir.join("sptd.sock"), 2).expect("daemon starts");
    let mut client = Client::connect(handle.socket_path()).expect("connects");

    for name in PROGRAMS {
        let bench = spt_bench_suite::benchmark(name).expect("exists");
        // The local reference: plain in-process compile, artifact store off —
        // the daemon's cached tiers must be indistinguishable from it.
        let input = ProfilingInput::new(bench.entry, [bench.train_arg]);
        let local = compile_and_transform(bench.source, &input, &CompilerConfig::best())
            .unwrap_or_else(|e| panic!("{name}: local compile failed: {e}"));
        let sim = SptSimulator::new();
        let local_base = sim
            .run(&local.baseline, bench.entry, &[SIM_ARG])
            .expect("baseline sim");
        let local_spt = sim
            .run(&local.module, bench.entry, &[SIM_ARG])
            .expect("spt sim");

        let cold = client.compile(compile_req(&bench)).expect("daemon compile");
        assert!(
            !cold.served_from_memory,
            "{name}: first request cannot be warm"
        );
        assert_eq!(
            cold.report_debug,
            format!("{:?}", local.report),
            "{name}: report"
        );
        assert_eq!(
            cold.analyze_text,
            local.report.analyze_text(),
            "{name}: analyze"
        );
        assert_eq!(
            cold.module_text,
            spt_ir::printer::print_module(&local.module),
            "{name}: module text"
        );

        let warm = client.compile(compile_req(&bench)).expect("warm compile");
        assert!(
            warm.served_from_memory,
            "{name}: second request must be warm"
        );
        assert_eq!(warm.report_debug, cold.report_debug, "{name}: warm report");
        assert_eq!(warm.analyze_text, cold.analyze_text, "{name}: warm analyze");
        assert_eq!(
            warm.module_text, cold.module_text,
            "{name}: warm module text"
        );

        let sim_cold = client.sim(sim_req(&bench)).expect("daemon sim");
        assert_eq!(
            sim_cold.baseline,
            spt_trace::sim_to_bytes(&local_base),
            "{name}: baseline sim bytes"
        );
        assert_eq!(
            sim_cold.spt,
            spt_trace::sim_to_bytes(&local_spt),
            "{name}: spt sim bytes"
        );
        let sim_warm = client.sim(sim_req(&bench)).expect("warm sim");
        assert!(
            sim_warm.served_from_memory,
            "{name}: repeated sim must be warm"
        );
        assert_eq!(
            sim_warm.baseline, sim_cold.baseline,
            "{name}: warm baseline bytes"
        );
        assert_eq!(sim_warm.spt, sim_cold.spt, "{name}: warm spt bytes");
    }

    client.shutdown().expect("shutdown ack");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon restarted on the first one's `cache_dir` serves warm from disk:
/// byte-identical answers, every compile decoded whole from its stored
/// memo and every simulation a disk memo hit (no pipeline stage, no
/// simulator run). Restarted again without the compile memos, it serves
/// every function analysis from disk. `stats` accounts for every file the
/// store writes and every disk hit of each kind.
#[test]
fn a_restarted_daemon_serves_warm_from_disk() {
    let dir = temp_dir("restart");
    let cache = dir.join("cache");
    let service = || {
        CompileService::new(ServiceConfig {
            cache_dir: Some(cache.clone()),
            ..ServiceConfig::default()
        })
    };
    let ok = |resp: RespBody| match resp {
        RespBody::Ok(body) => body,
        RespBody::Err(e) => panic!("request failed: {e}"),
    };
    // Every payload byte of a compile and a sim of each program, plus the
    // compile's stage timings and store counters.
    let answers = |service: &CompileService| -> Vec<(Vec<String>, Vec<Vec<u8>>, StageTimings)> {
        PROGRAMS
            .iter()
            .map(|name| {
                let bench = spt_bench_suite::benchmark(name).expect("exists");
                let OkBody::Compile(c) =
                    ok(service.execute(&ReqBody::Compile(compile_req(&bench))))
                else {
                    panic!("{name}: not a compile response");
                };
                let OkBody::Sim(s) = ok(service.execute(&ReqBody::Sim(sim_req(&bench)))) else {
                    panic!("{name}: not a sim response");
                };
                let texts = vec![
                    c.report_debug,
                    c.analyze_text,
                    c.module_text,
                    s.report_debug,
                ];
                (texts, vec![s.baseline, s.spt], c.timings)
            })
            .collect()
    };
    let stats = |service: &CompileService| -> HashMap<String, u64> {
        service.stats().into_iter().collect()
    };

    let first = service();
    let cold = answers(&first);
    let before = stats(&first);
    let files = std::fs::read_dir(&cache).expect("cache dir").count() as u64;
    assert!(files > 0, "the first daemon stored nothing");
    assert_eq!(
        before["disk_stores"], files,
        "every file written must be counted: {before:?}"
    );
    drop(first);

    let second = service();
    let warm = answers(&second);
    let after = stats(&second);
    for (name, (c, w)) in PROGRAMS.iter().zip(cold.iter().zip(&warm)) {
        assert_eq!(
            (&w.0, &w.1),
            (&c.0, &c.1),
            "{name}: restarted answer differs"
        );
        assert_eq!(
            (c.2.compile_hits, c.2.compile_misses),
            (0, 1),
            "{name}: the first daemon's compile"
        );
        assert_eq!(
            (w.2.compile_hits, w.2.compile_misses, w.2.func_units_total),
            (1, 0, 0),
            "{name}: the restarted daemon ran the pipeline"
        );
    }
    assert_eq!(after["disk_direct_runs"], 0, "a simulation ran: {after:?}");
    assert_eq!(after["disk_memo_hits"], 2 * PROGRAMS.len() as u64);
    assert_eq!(
        after["disk_compile_hits"],
        PROGRAMS.len() as u64,
        "compile disk hits must reach stats: {after:?}"
    );
    assert_eq!(after["disk_stores"], 0, "nothing new to store: {after:?}");
    drop(second);

    // Without the compile memos, every compile runs again from the stored
    // function analyses and stores its memo anew.
    for entry in std::fs::read_dir(&cache).expect("cache dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        if name.starts_with("compile-") {
            std::fs::remove_file(&path).expect("removable");
        }
    }
    let third = service();
    let units = answers(&third);
    let after = stats(&third);
    for (name, (c, u)) in PROGRAMS.iter().zip(cold.iter().zip(&units)) {
        assert_eq!(
            (&u.0, &u.1),
            (&c.0, &c.1),
            "{name}: answer from stored units differs"
        );
        assert_eq!(
            (u.2.compile_misses, u.2.func_analysis_misses),
            (1, 0),
            "{name}: the recompile re-analyzed a function"
        );
        assert!(u.2.func_analysis_hits > 0, "{name}: no unit was stored");
    }
    assert!(
        after["disk_func_analysis_hits"] > 0,
        "function-unit disk hits must reach stats: {after:?}"
    );
    assert_eq!(
        after["disk_stores"],
        PROGRAMS.len() as u64,
        "only the compile memos are stored again: {after:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon warm-up also warms `sptc`: after the daemon served a `Sim`
/// request for every suite program, each program compiled and simulated
/// the way `sptc sim` does over the same directory decodes its stored
/// compile, hits both simulation memos, and returns exactly the daemon's
/// report and simulation bytes.
#[test]
fn a_daemon_warm_up_warms_sptc() {
    let dir = temp_dir("warms-sptc");
    let cache = dir.join("cache");
    let service = CompileService::new(ServiceConfig {
        cache_dir: Some(cache.clone()),
        ..ServiceConfig::default()
    });
    let suite = spt_bench_suite::suite();
    let served: Vec<_> = suite
        .iter()
        .map(|b| match service.execute(&ReqBody::Sim(sim_req(b))) {
            RespBody::Ok(OkBody::Sim(s)) => s,
            other => panic!("{}: not a sim response: {other:?}", b.name),
        })
        .collect();
    drop(service);

    // `sptc sim`'s configuration: `best` over the store in `cache`.
    let mut config = CompilerConfig::best();
    config.trace = TraceSettings {
        enabled: true,
        cache_dir: Some(cache),
    };
    let machine = MachineConfig::default();
    for (b, daemon) in suite.iter().zip(&served) {
        let input = ProfilingInput::new(b.entry, [b.train_arg]);
        let baseline = spt_frontend::compile(b.source).expect("compiles");
        let mut module = baseline.clone();
        let store = Store::from_config(&config);
        let (report, timings) =
            transform_module_timed_with(&mut module, &input, &config, store.as_ref())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(
            (timings.compile_hits, timings.compile_misses),
            (1, 0),
            "{}: the compile was not served from the daemon's store",
            b.name
        );
        assert_eq!(
            format!("{report:?}"),
            daemon.report_debug,
            "{}: report",
            b.name
        );
        let mut stats = SimTraceStats::default();
        let mut sim = |m| {
            sim_with_cache(m, b.entry, SIM_ARG, &machine, &config.trace, &mut stats)
                .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", b.name))
        };
        let (base, spt) = (sim(&baseline), sim(&module));
        assert_eq!(
            (stats.memo_hits, stats.direct_runs),
            (2, 0),
            "{}: a simulation was not served from the daemon's store",
            b.name
        );
        assert_eq!(
            spt_trace::sim_to_bytes(&base),
            daemon.baseline,
            "{}: baseline",
            b.name
        );
        assert_eq!(spt_trace::sim_to_bytes(&spt), daemon.spt, "{}: SPT", b.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Ident-boundary rename of `from` across the whole source (definition and
/// call sites), so a variant differs from the base in exactly one function.
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
    panic!("no helper function in source");
}

/// Near-identical variants sent as ordinary `Compile` requests to one
/// cold daemon return exactly the bytes of a cold local compile each, share
/// their common functions through the daemon's analysis units, and a bad
/// source fails with the frontend's message.
#[test]
fn variant_compiles_share_analysis_units_and_equal_local_compiles() {
    let bench = spt_bench_suite::benchmark("gzip_s").expect("exists");
    let helper = first_helper_name(bench.source, bench.entry);
    // Variants share every function except one renamed helper. Renaming
    // changes only that function's IR (calls lower to FuncIds), so every
    // variant after the first finds the other functions' analyses stored.
    let sources = [
        bench.source.to_string(),
        rename_ident(bench.source, &helper, &format!("{helper}_va")),
        rename_ident(bench.source, &helper, &format!("{helper}_vb")),
    ];
    let bad_source = "fn main(n: int) -> int { return oops; }";
    let req_for = |source: &str| CompileReq {
        source: source.to_string(),
        entry: bench.entry.to_string(),
        train: bench.train_arg,
        config_id: 1,
        want_module_text: true,
    };
    let input = ProfilingInput::new(bench.entry, [bench.train_arg]);

    let dir = temp_dir("variants");
    let service = Arc::new(CompileService::new(ServiceConfig {
        cache_dir: None,
        ..ServiceConfig::default()
    }));
    let handle = serve(service, dir.join("sptd.sock"), 2).expect("daemon starts");
    let mut client = Client::connect(handle.socket_path()).expect("connects");
    for (i, source) in sources.iter().enumerate() {
        let local = compile_and_transform(source, &input, &CompilerConfig::best())
            .unwrap_or_else(|e| panic!("variant {i}: local compile failed: {e}"));
        let resp = client.compile(req_for(source)).expect("daemon compile");
        assert_eq!(
            resp.report_debug,
            format!("{:?}", local.report),
            "variant {i}: report"
        );
        assert_eq!(
            resp.analyze_text,
            local.report.analyze_text(),
            "variant {i}: analyze"
        );
        assert_eq!(
            resp.module_text,
            spt_ir::printer::print_module(&local.module),
            "variant {i}: module text"
        );
    }
    let local_err = compile_and_transform(bad_source, &input, &CompilerConfig::best())
        .expect_err("bad source fails locally")
        .to_string();
    match client.compile(req_for(bad_source)) {
        Err(spt_serve::ClientError::Server(msg)) => assert_eq!(msg, local_err),
        other => panic!("bad source should fail server-side, got {other:?}"),
    }

    let stats: HashMap<String, u64> = client.stats().expect("stats").into_iter().collect();
    assert!(
        stats.get("mem_func_analysis_hits").copied().unwrap_or(0) > 0,
        "variants must share functions through analysis units: {stats:?}"
    );
    client.shutdown().expect("shutdown ack");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// N clients racing for the same cold unit: every response bit-identical,
/// and the daemon ran the pipeline exactly once (single-flight).
#[test]
fn concurrent_clients_get_identical_responses_from_one_compile() {
    const CLIENTS: usize = 6;
    let dir = temp_dir("flight");
    let service = Arc::new(CompileService::new(ServiceConfig {
        cache_dir: Some(dir.join("cache")),
        ..ServiceConfig::default()
    }));
    let handle = serve(service, dir.join("sptd.sock"), 4).expect("daemon starts");
    let socket = handle.socket_path().to_path_buf();
    let bench = spt_bench_suite::benchmark("gap_s").expect("exists");

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let socket = socket.clone();
            let barrier = Arc::clone(&barrier);
            let req = compile_req(&bench);
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connects");
                barrier.wait();
                client.compile(req).expect("compile succeeds")
            })
        })
        .collect();
    let responses: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    let first = &responses[0];
    for resp in &responses[1..] {
        assert_eq!(resp.report_debug, first.report_debug, "reports diverged");
        assert_eq!(resp.analyze_text, first.analyze_text, "analyze diverged");
        assert_eq!(resp.module_text, first.module_text, "module text diverged");
    }

    let mut control = Client::connect(&socket).expect("connects");
    let stats: HashMap<String, u64> = control.stats().expect("stats").into_iter().collect();
    assert_eq!(
        stats.get("pipeline_runs"),
        Some(&1),
        "{CLIENTS} concurrent requests must cost exactly one pipeline run: {stats:?}"
    );
    assert_eq!(stats.get("flights_led"), Some(&1), "one leader: {stats:?}");
    control.shutdown().expect("shutdown ack");
    handle.join();
    assert!(
        !socket.exists(),
        "socket file must be removed on clean shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
