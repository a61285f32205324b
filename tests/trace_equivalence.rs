//! Differential oracle for the artifact store (`.spt-cache/`).
//!
//! The store keeps function-granular pass-1 analysis units, whole compiles
//! and whole `SimResult` memos. It may only ever change speed: over every
//! `spt-bench-suite` program, compiles and simulations with the store off,
//! cold, warm, or damaged must produce byte-identical reports, modules and
//! `SimResult`s, and a damaged store must come out of the next run
//! repaired. The file keeps its historical name; it once pinned trace
//! replay against direct execution.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use spt::bench_suite::Benchmark;
use spt::ir::Module;
use spt::pipeline::store::{sim_key, Kind, Tier};
use spt::pipeline::{
    compile_and_transform, transform_module_timed, CompilerConfig, ProfilingInput, StageTimings,
    Store, TraceSettings,
};
use spt::serve::{sim_with_cache, SimTraceStats};
use spt::sim::{MachineConfig, SimResult, SptSimulator};

fn assert_sim_eq(name: &str, got: &SimResult, want: &SimResult) {
    assert_eq!(got.ret, want.ret, "{name}: return bits");
    assert_eq!(got.cycles, want.cycles, "{name}: cycles");
    assert_eq!(got.insts, want.insts, "{name}: insts");
    assert_eq!(got.memory, want.memory, "{name}: memory image");
    assert_eq!(got.loops, want.loops, "{name}: per-loop sim stats");
    assert_eq!(
        got.cache_hit_rate.to_bits(),
        want.cache_hit_rate.to_bits(),
        "{name}: cache hit rate"
    );
    assert_eq!(
        got.branch_miss_rate.to_bits(),
        want.branch_miss_rate.to_bits(),
        "{name}: branch miss rate"
    );
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spt-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &Path) -> CompilerConfig {
    let mut config = CompilerConfig::best();
    config.trace = TraceSettings {
        enabled: true,
        cache_dir: Some(dir.to_path_buf()),
    };
    config
}

/// What one `sptc sim`-style run of a benchmark produces. Simulations use
/// the training input to keep the test quick.
struct Run {
    report: String,
    module: String,
    timings: StageTimings,
    base: SimResult,
    spt: SimResult,
    sims: SimTraceStats,
}

fn run(b: &Benchmark, config: &CompilerConfig) -> Run {
    let input = ProfilingInput::new(b.entry, [b.train_arg]);
    let baseline = spt::frontend::compile(b.source).expect("compiles");
    let mut module = baseline.clone();
    let (report, timings) = transform_module_timed(&mut module, &input, config)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let machine = MachineConfig::default();
    let mut sims = SimTraceStats::default();
    let mut sim = |m: &Module| {
        sim_with_cache(m, b.entry, b.train_arg, &machine, &config.trace, &mut sims)
            .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", b.name))
    };
    let base = sim(&baseline);
    let spt = sim(&module);
    Run {
        report: format!("{report:?}"),
        module: format!("{module:?}"),
        timings,
        base,
        spt,
        sims,
    }
}

fn assert_same_results(name: &str, got: &Run, want: &Run) {
    assert_eq!(got.report, want.report, "{name}: report");
    assert_eq!(got.module, want.module, "{name}: module");
    assert_sim_eq(&format!("{name} baseline"), &got.base, &want.base);
    assert_sim_eq(&format!("{name} SPT"), &got.spt, &want.spt);
}

/// Deletes the store's files whose names start with `prefix`.
fn remove_files(dir: &Path, prefix: &str) {
    for name in snapshot(dir).into_keys().filter(|n| n.starts_with(prefix)) {
        std::fs::remove_file(dir.join(name)).expect("removable");
    }
}

/// Every artifact file in the store, by name.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("store exists")
        .map(|e| e.expect("dir entry").path())
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&p).expect("readable"))
        })
        .collect()
}

#[test]
fn artifact_cache_round_trips_and_rejects_damage() {
    let dir = temp_store("round-trip");
    // Memory budget 0: every probe below goes to the disk tier.
    let store = || Store::new(0, 1, Some(dir.clone()), None);

    // A genuinely speculative run, so the memo carries per-loop stats.
    let b = spt::bench_suite::benchmark("twolf_s").expect("exists");
    let input = ProfilingInput::new(b.entry, [b.train_arg]);
    let compiled = compile_and_transform(b.source, &input, &CompilerConfig::best())
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let machine = MachineConfig::default();
    let sim = SptSimulator::with_config(machine.clone())
        .run(&compiled.module, b.entry, &[b.train_arg])
        .expect("sim runs");
    assert!(!sim.loops.is_empty(), "twolf_s selected no loop");
    let key = sim_key(
        compiled.module.content_hash(),
        b.entry,
        &[b.train_arg],
        &machine,
    );
    assert!(store().get::<SimResult>(key).is_none());
    store().put(key, Arc::new(sim.clone()));
    match store().get::<SimResult>(key) {
        Some((loaded, Tier::Disk)) => assert_sim_eq("memo round trip", &loaded, &sim),
        other => panic!("expected a disk hit, got {other:?}"),
    }

    // Corruption, truncation and a bare magic must all read as a miss
    // (never a panic) and evict the file, so the next probe is a clean miss.
    let path = dir.join(format!("sim-{key:016x}.bin"));
    let good = std::fs::read(&path).expect("memo file exists");
    let mut corrupt = good.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    for damaged in [
        corrupt,
        good[..good.len() / 4].to_vec(),
        b"SPTSIMRS".to_vec(),
    ] {
        std::fs::write(&path, &damaged).expect("write");
        let probe = store();
        assert!(probe.get::<SimResult>(key).is_none());
        assert!(!path.exists(), "damaged memo was not evicted");
        assert!(probe.get::<SimResult>(key).is_none());
        assert_eq!(probe.stats(Kind::Sim).disk_corrupt_evictions, 1);
    }

    // A rewritten store repairs the slot.
    store().put(key, Arc::new(sim));
    assert!(store().get::<SimResult>(key).is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_reports_are_unchanged_by_tracing_cold_or_warm() {
    let dir = temp_store("cold-warm");
    let stored = store_config(&dir);

    for b in spt::bench_suite::suite() {
        let plain = run(&b, &CompilerConfig::best());

        // Cold: empty store — the compile, every analysis unit and both
        // simulations computed.
        let cold = run(&b, &stored);
        assert!(
            cold.timings.func_analysis_misses > 0,
            "{}: cold run analyzed nothing",
            b.name
        );
        assert_eq!(
            (cold.timings.compile_hits, cold.timings.compile_misses),
            (0, 1),
            "{}: cold compile memo",
            b.name
        );
        assert_eq!(cold.sims.memo_hits, 0, "{}: cold sim hit the store", b.name);
        assert_eq!(cold.sims.direct_runs, 2, "{}: cold sim runs", b.name);

        // Warm: the compile and both simulations come from the store whole:
        // no stage runs, no interpreter starts and no unit is probed.
        let warm = run(&b, &stored);
        assert_eq!(
            (warm.timings.compile_hits, warm.timings.compile_misses),
            (1, 0),
            "{}: warm compile memo",
            b.name
        );
        assert_eq!(
            (warm.timings.func_units_total, warm.timings.profile_s),
            (0, 0.0),
            "{}: the warm run probed a unit or profiled",
            b.name
        );
        assert_eq!(
            warm.timings.search_visited, cold.timings.search_visited,
            "{}: search nodes of the stored report",
            b.name
        );
        assert_eq!(warm.sims.memo_hits, 2, "{}: warm sim memo hits", b.name);
        assert_eq!(
            warm.sims.direct_runs, 0,
            "{}: warm run re-simulated",
            b.name
        );

        // Without its compile memo, the compile runs again and every
        // function's analysis comes from the store's disk tier.
        remove_files(&dir, "compile-");
        let units = run(&b, &stored);
        assert_eq!(
            (units.timings.compile_hits, units.timings.compile_misses),
            (0, 1),
            "{}: compile memo after its removal",
            b.name
        );
        assert!(
            units.timings.func_analysis_hits > 0,
            "{}: the recompile missed every analysis unit",
            b.name
        );
        assert_eq!(
            units.timings.func_analysis_misses, 0,
            "{}: the recompile re-analyzed a function",
            b.name
        );

        // The store is a pure speed change.
        assert_same_results(&format!("{} cold", b.name), &cold, &plain);
        assert_same_results(&format!("{} warm", b.name), &warm, &plain);
        assert_same_results(&format!("{} from units", b.name), &units, &plain);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_store_is_repaired_without_changing_any_result() {
    let dir = temp_store("damaged");
    let stored = store_config(&dir);
    let suite = spt::bench_suite::suite();

    let cold: Vec<Run> = suite.iter().map(|b| run(b, &stored)).collect();
    let warm_store = snapshot(&dir);
    assert!(
        ["compile-", "func-", "sim-"]
            .iter()
            .all(|kind| warm_store.keys().any(|n| n.starts_with(kind))),
        "store lacks compiles, analysis units or sim memos: {:?}",
        warm_store.keys().collect::<Vec<_>>()
    );

    // Flip one byte in every file of the warm store.
    for (name, bytes) in &warm_store {
        let mut damaged = bytes.clone();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x20;
        std::fs::write(dir.join(name), damaged).expect("write");
    }

    for (b, want) in suite.iter().zip(&cold) {
        let got = run(b, &stored);
        assert_same_results(&format!("{} damaged", b.name), &got, want);
        assert_eq!(
            got.sims.memo_hits, 0,
            "{}: a damaged memo was served",
            b.name
        );
        assert_eq!(
            got.timings.compile_hits, 0,
            "{}: a damaged compile was served",
            b.name
        );
    }

    // Every damaged entry was evicted and stored again: the store holds
    // exactly the files, byte for byte, it held before the damage.
    assert_eq!(snapshot(&dir), warm_store, "store not repaired");

    let _ = std::fs::remove_dir_all(&dir);
}
