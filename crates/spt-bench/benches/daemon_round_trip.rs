//! Warm-hit round-trip latency through the `sptd` daemon — framing, socket,
//! worker queue, and in-memory cache probe — against the same simulation
//! served in-process by `sim_with_cache` from a warm disk cache. The delta
//! is the daemon's overhead budget: a warm memory hit over the socket
//! should beat re-serving from disk, or the memory tier isn't paying rent.

use criterion::{criterion_group, criterion_main, Criterion};
use spt_core::TraceSettings;
use spt_serve::{
    serve, sim_with_cache, Client, CompileService, ServiceConfig, SimReq, SimTraceStats,
};
use spt_sim::MachineConfig;
use std::hint::black_box;
use std::sync::Arc;

const PROGRAM: &str = "mcf_s";
const N: i64 = 200;

fn bench_daemon_round_trip(c: &mut Criterion) {
    let bench = spt_bench_suite::benchmark(PROGRAM).expect("exists");
    let tmp = std::env::temp_dir().join(format!("spt-bench-daemon-rt-{}", std::process::id()));
    let cache_dir = tmp.join("cache");
    let socket = tmp.join("sptd.sock");
    std::fs::create_dir_all(&tmp).expect("temp dir");

    let service = Arc::new(CompileService::new(ServiceConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServiceConfig::default()
    }));
    let handle = serve(service, &socket, 2).expect("daemon starts");
    let mut client = Client::connect(&socket).expect("connects");
    let req = || SimReq {
        source: bench.source.to_string(),
        entry: bench.entry.to_string(),
        train: bench.train_arg,
        arg: N,
        config_id: 1,
        machine: MachineConfig::default(),
    };
    // Prime both tiers: the first request compiles and simulates, filling
    // the daemon's memory tier and the shared disk cache.
    let first = client.sim(req()).expect("primes");
    assert!(!first.served_from_memory);
    assert!(client.sim(req()).expect("warm").served_from_memory);

    let mut g = c.benchmark_group("daemon_round_trip");
    g.bench_function(format!("daemon_warm_hit/{PROGRAM}"), |b| {
        b.iter(|| {
            let resp = client.sim(req()).expect("warm hit");
            assert!(resp.served_from_memory);
            black_box(resp)
        })
    });

    // The in-process comparison: same module, same sim, served from the
    // warm disk cache (memoized result) with no daemon in the path.
    let module = spt_frontend::compile(bench.source).expect("compiles");
    let settings = TraceSettings {
        enabled: true,
        cache_dir: Some(cache_dir.clone()),
    };
    let machine = MachineConfig::default();
    g.bench_function(format!("in_process_disk_warm/{PROGRAM}"), |b| {
        b.iter(|| {
            let mut stats = SimTraceStats::default();
            black_box(
                sim_with_cache(&module, bench.entry, N, &machine, &settings, &mut stats)
                    .expect("simulates"),
            )
        })
    });
    g.finish();

    client.shutdown().expect("shuts down");
    handle.join();
    let _ = std::fs::remove_dir_all(&tmp);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(4));
    targets = bench_daemon_round_trip
}
criterion_main!(benches);
