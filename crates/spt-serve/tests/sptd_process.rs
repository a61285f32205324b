//! The `sptd` binary as a process, with both store tiers evicting.
//!
//! The test starts the real daemon on a private socket and cache directory
//! with budgets below the batch's working set. In memory, a compiled unit
//! is 10-15 KB against a 256 KiB budget; on disk, the batch stores well
//! over the 32 KiB budget in compile memos alone. Four clients then race
//! through compile and sim requests for every suite program under all
//! three configurations, each request twice. Every response must equal the
//! in-process answer byte for byte, whichever tier served it. `stats` must
//! count evictions in both tiers. A `Shutdown` request must end the
//! process with status 0 and remove its socket file.

use spt_core::pipeline::compile_and_transform;
use spt_core::{CompilerConfig, ProfilingInput};
use spt_serve::{Client, CompileReq, SimReq};
use spt_sim::{MachineConfig, SptSimulator};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;

/// `(config_id, configuration)` for every id the protocol accepts.
fn configs() -> [(u8, CompilerConfig); 3] {
    [
        (0, CompilerConfig::basic()),
        (1, CompilerConfig::best()),
        (2, CompilerConfig::anticipated()),
    ]
}

/// A running `sptd` child and its private directory. Dropping it kills the
/// child if it still runs, reaps it and removes the directory, so no
/// process outlives the test on any failure path.
struct Daemon {
    child: Child,
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `sptd` and waits until it accepts connections.
    fn start(extra_args: &[&str]) -> Daemon {
        let dir = std::env::temp_dir().join(format!("spt-sptd-process-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let socket = dir.join("sptd.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_sptd"))
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .args(extra_args)
            .stderr(Stdio::null())
            .spawn()
            .expect("sptd starts");
        let mut daemon = Daemon { child, dir, socket };
        let deadline = Instant::now() + Duration::from_secs(60);
        while Client::connect(&daemon.socket).is_err() {
            if let Some(status) = daemon.child.try_wait().expect("sptd status") {
                panic!("sptd exited before it served: {status}");
            }
            assert!(
                Instant::now() < deadline,
                "sptd never accepted a connection"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    fn client(&self) -> Client {
        Client::connect(&self.socket).expect("connects to sptd")
    }

    /// The child's exit status, waiting at most `limit` for it.
    fn wait_exit(&mut self, limit: Duration) -> ExitStatus {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(status) = self.child.try_wait().expect("sptd status") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "sptd did not exit after Shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything a compile and a sim response carry, computed in process
/// with the store off.
struct Local {
    report_debug: String,
    analyze_text: String,
    module_text: String,
    baseline: Vec<u8>,
    spt: Vec<u8>,
}

fn local(bench: &spt_bench_suite::Benchmark, config: &CompilerConfig) -> Local {
    let input = ProfilingInput::new(bench.entry, [bench.train_arg]);
    let compiled = compile_and_transform(bench.source, &input, config)
        .unwrap_or_else(|e| panic!("{}: local compile failed: {e}", bench.name));
    let sim = SptSimulator::new();
    let run = |module| {
        let result = sim
            .run(module, bench.entry, &[bench.ref_arg])
            .unwrap_or_else(|e| panic!("{}: local sim failed: {e}", bench.name));
        spt_trace::sim_to_bytes(&result)
    };
    Local {
        report_debug: format!("{:?}", compiled.report),
        analyze_text: compiled.report.analyze_text(),
        module_text: spt_ir::printer::print_module(&compiled.module),
        baseline: run(&compiled.baseline),
        spt: run(&compiled.module),
    }
}

#[test]
fn sptd_serves_local_answers_while_both_tiers_evict_and_shuts_down_cleanly() {
    let suite = spt_bench_suite::suite();
    let pairs: Vec<(usize, u8, CompilerConfig)> = (0..suite.len())
        .flat_map(|b| configs().map(|(id, config)| (b, id, config)))
        .collect();
    let expected: Vec<Local> =
        spt_core::parallel::parallel_map(&pairs, |(b, _, config)| local(&suite[*b], config));

    let mut daemon = Daemon::start(&[
        "--mem-budget",
        "262144",
        "--disk-budget",
        "32768",
        "--shards",
        "2",
    ]);
    // Each (pair, kind) twice: a first request computes or joins a flight,
    // a repeat is served from memory, from disk, or computed again after an
    // eviction.
    let work: Vec<(usize, bool)> = (0..2)
        .flat_map(|_| (0..pairs.len()).flat_map(|p| [(p, false), (p, true)]))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = daemon.client();
                while let Some(&(p, is_sim)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let (b, config_id, _) = &pairs[p];
                    let bench = &suite[*b];
                    let want = &expected[p];
                    let what = format!("{} under config {config_id}", bench.name);
                    if is_sim {
                        let resp = client
                            .sim(SimReq {
                                source: bench.source.to_string(),
                                entry: bench.entry.to_string(),
                                train: bench.train_arg,
                                arg: bench.ref_arg,
                                config_id: *config_id,
                                machine: MachineConfig::default(),
                            })
                            .unwrap_or_else(|e| panic!("{what}: sim failed: {e}"));
                        assert_eq!(resp.report_debug, want.report_debug, "{what}: sim report");
                        assert_eq!(resp.baseline, want.baseline, "{what}: baseline sim");
                        assert_eq!(resp.spt, want.spt, "{what}: SPT sim");
                    } else {
                        let resp = client
                            .compile(CompileReq {
                                source: bench.source.to_string(),
                                entry: bench.entry.to_string(),
                                train: bench.train_arg,
                                config_id: *config_id,
                                want_module_text: true,
                            })
                            .unwrap_or_else(|e| panic!("{what}: compile failed: {e}"));
                        assert_eq!(resp.report_debug, want.report_debug, "{what}: report");
                        assert_eq!(resp.analyze_text, want.analyze_text, "{what}: analyze");
                        assert_eq!(resp.module_text, want.module_text, "{what}: module");
                    }
                }
            });
        }
    });

    let mut control = daemon.client();
    let stats: HashMap<String, u64> = control.stats().expect("stats").into_iter().collect();
    assert_eq!(
        stats["requests_total"],
        work.len() as u64,
        "every request counted: {stats:?}"
    );
    assert_eq!(stats["errors_total"], 0, "{stats:?}");
    let mem_evictions: u64 = stats
        .iter()
        .filter(|(k, _)| k.starts_with("mem_") && k.ends_with("_evictions"))
        .map(|(_, n)| n)
        .sum();
    assert!(
        mem_evictions > 0,
        "the memory tier evicted nothing: {stats:?}"
    );
    assert!(
        stats["disk_budget_evictions"] > 0,
        "the disk tier evicted nothing: {stats:?}"
    );

    control.shutdown().expect("shutdown acknowledged");
    let status = daemon.wait_exit(Duration::from_secs(60));
    assert!(status.success(), "sptd exited with {status}");
    assert!(!daemon.socket.exists(), "sptd left its socket file behind");
}
