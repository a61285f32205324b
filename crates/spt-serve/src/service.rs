//! The compile service: request execution against the artifact store.
//!
//! One [`CompileService`] owns everything a daemon worker needs to answer a
//! request, independent of any socket:
//!
//! * one artifact [`Store`] under one memory budget: whole **compiled
//!   units** (transformed module, baseline, report renderings, stage
//!   timings) keyed by the compile request itself, **`SimResult`s** keyed
//!   by module hash + entry + args + machine, and the pipeline's
//!   function-granular analysis units, which every `Compile` request shares:
//!   variants of one module analyze their common functions once. Its
//!   optional disk tier (`.spt-cache/`, byte-budgeted) persists simulation
//!   memos, analysis units and the pipeline's whole-compile memos (those on
//!   disk only), shared with the one-shot CLI, so a daemon warm-up also
//!   warms `sptc` and a restarted daemon serves a repeated request from
//!   disk by decoding one stored compile, running no pipeline stage;
//! * a **single-flight** table: concurrent requests for the same unit key
//!   elect one leader to run the frontend and the pipeline while the rest
//!   block on its result, so N identical cold requests cost exactly one
//!   compile;
//! * global counters (per-kind request totals, the store's per-kind
//!   hit/miss/eviction rows, single-flight dedups, a log₂ latency
//!   histogram for p50/p99) snapshotted by the `Stats` request.
//!
//! Everything is keyed by content, so the service never invalidates: a new
//! source, configuration, or machine model is a new key. Determinism: the
//! pipeline's reports are byte-identical across thread counts and store
//! settings (pinned by `tests/trace_equivalence.rs` and the report contract
//! in `spt-core`), so a response assembled from any mix of tiers is
//! byte-identical to a cold single-process compile — `sptd` can never serve
//! a "close enough" answer.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use spt_core::diag::panic_message;
use spt_core::pipeline::transform_module_timed_with;
use spt_core::store::{unit_key, Artifact, Kind, KindStats, Store, Tier};
use spt_core::{CompilerConfig, ProfilingInput, StageTimings};
use spt_ir::Module;
use spt_trace::sim_to_bytes;

use crate::proto::{CompileReq, CompileResp, OkBody, ReqBody, RespBody, SimReq, SimResp};
use crate::sim::memo_sim;

/// Construction parameters of a [`CompileService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Directory of the store's disk tier; `None` disables it entirely.
    pub cache_dir: Option<PathBuf>,
    /// Byte bound on the store's files in `cache_dir`; enforced after every
    /// store by deleting the least recently used store files first (other
    /// files in the directory are never touched). `None` = unbounded (the
    /// one-shot CLI behavior).
    pub disk_budget_bytes: Option<u64>,
    /// Byte bound on the store's memory tier, shared by every kind —
    /// compiled units, simulation results, and the pipeline's analysis
    /// units — with least-recently-used eviction across kinds.
    pub mem_budget_bytes: u64,
    /// Shard count of the memory tier.
    pub shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_dir: Some(".spt-cache".into()),
            disk_budget_bytes: None,
            mem_budget_bytes: 128 << 20,
            shards: 8,
        }
    }
}

/// One fully compiled program under one configuration: everything any
/// `Compile` or `Sim` response needs, immutable behind an `Arc`.
pub struct CompiledUnit {
    /// `format!("{:?}")` of the report — the byte-exact digest form.
    pub report_debug: String,
    /// `CompilationReport::analyze_text()` rendering.
    pub analyze_text: String,
    /// Printed IR of the transformed module.
    pub module_text: String,
    /// The SPT-transformed module.
    pub module: Module,
    /// [`Module::content_hash`] of `module`, taken at compile time so sim
    /// requests key their memos without re-hashing IR.
    pub module_hash: u64,
    /// The untransformed baseline.
    pub baseline: Module,
    /// [`Module::content_hash`] of `baseline`.
    pub baseline_hash: u64,
    /// Timings of the pipeline run that built this unit.
    pub timings: StageTimings,
}

impl Artifact for CompiledUnit {
    const KIND: Kind = Kind::Unit;

    /// The owned strings exactly, plus the two modules estimated by their
    /// printed size (the in-memory form tracks it within a small factor,
    /// and the estimate only has to make the budget meaningful, not account
    /// to the byte).
    fn billed_bytes(&self) -> u64 {
        (self.report_debug.len() + self.analyze_text.len() + 3 * self.module_text.len()) as u64
    }
}

/// A single-flight slot: the leader publishes into `result` and wakes the
/// joiners; a leader that panicked publishes the panic as an `Err`, so
/// joiners can never deadlock on a dead flight.
#[derive(Default)]
struct Flight {
    result: Mutex<Option<Result<Arc<CompiledUnit>, String>>>,
    done: Condvar,
}

/// Log₂-bucketed latency histogram (microseconds). Bucket `i` counts
/// requests with `latency_us < 2^i`; quantiles report the bucket's upper
/// bound, so p50/p99 are order-of-magnitude figures, cheap and lock-free.
const LATENCY_BUCKETS: usize = 40;

struct Counters {
    requests_total: AtomicU64,
    requests_ping: AtomicU64,
    requests_compile: AtomicU64,
    requests_sim: AtomicU64,
    requests_stats: AtomicU64,
    requests_shutdown: AtomicU64,
    errors_total: AtomicU64,
    frontend_runs: AtomicU64,
    pipeline_runs: AtomicU64,
    flights_led: AtomicU64,
    flights_joined: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            requests_total: AtomicU64::new(0),
            requests_ping: AtomicU64::new(0),
            requests_compile: AtomicU64::new(0),
            requests_sim: AtomicU64::new(0),
            requests_stats: AtomicU64::new(0),
            requests_shutdown: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            frontend_runs: AtomicU64::new(0),
            pipeline_runs: AtomicU64::new(0),
            flights_led: AtomicU64::new(0),
            flights_joined: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The daemon's request executor. Thread-safe: workers share one instance
/// behind an `Arc` and call [`CompileService::execute`] concurrently.
pub struct CompileService {
    cfg: ServiceConfig,
    store: Store,
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
    counters: Counters,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Flight and flight-table state is published atomically (a whole Option
    // / a whole map entry), so a poisoned lock left by a panicking holder is
    // still consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the whole free pages of every allocator arena to the OS; called
/// after a request that ran the pipeline or the simulator.
///
/// Profiling a large program grows multi-megabyte tables in the worker
/// thread's glibc arena, above the allocator's adaptive mmap threshold.
/// glibc gives that memory back when it is freed only if it merges into
/// the arena's top chunk, so a few live bytes that happened to land above
/// it kept about 12 MiB resident in some runs of the same requests and not
/// in others. The trim releases every free chunk, wherever it lies (only a
/// thread arena's top chunk stays); a memory hit never trims.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers; it only releases pages that
    // hold no live allocation, under the allocator's own locks.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators keep their own policies; nothing to do.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

impl CompileService {
    /// Builds a service over `cfg` with an empty memory tier (and, with a
    /// `cache_dir`, whatever the disk tier already holds).
    pub fn new(cfg: ServiceConfig) -> Self {
        CompileService {
            store: Store::new(
                cfg.mem_budget_bytes,
                cfg.shards,
                cfg.cache_dir.clone(),
                cfg.disk_budget_bytes,
            ),
            flights: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            cfg,
        }
    }

    /// Executes one request body, recording counters and latency. Never
    /// panics out: pipeline panics are contained by the single-flight
    /// leader's `catch_unwind` and surface as [`RespBody::Err`]. (The server
    /// adds one more containment layer around the *whole* call, so even a
    /// bug in this bookkeeping degrades only the one request.)
    pub fn execute(&self, body: &ReqBody) -> RespBody {
        let t0 = Instant::now();
        let resp = match body {
            ReqBody::Ping => RespBody::Ok(OkBody::Pong),
            ReqBody::Compile(c) => self.compile_resp(c),
            ReqBody::Sim(s) => self.sim_resp(s),
            ReqBody::Stats => RespBody::Ok(OkBody::Stats(self.stats())),
            ReqBody::Shutdown => RespBody::Ok(OkBody::ShuttingDown),
        };
        self.record(body, &resp, t0.elapsed());
        resp
    }

    fn record(&self, body: &ReqBody, resp: &RespBody, elapsed: Duration) {
        let c = &self.counters;
        c.requests_total.fetch_add(1, Ordering::Relaxed);
        match body {
            ReqBody::Ping => &c.requests_ping,
            ReqBody::Compile(_) => &c.requests_compile,
            ReqBody::Sim(_) => &c.requests_sim,
            ReqBody::Stats => &c.requests_stats,
            ReqBody::Shutdown => &c.requests_shutdown,
        }
        .fetch_add(1, Ordering::Relaxed);
        if matches!(resp, RespBody::Err(_)) {
            c.errors_total.fetch_add(1, Ordering::Relaxed);
        }
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        c.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn config_for(id: u8) -> Result<CompilerConfig, String> {
        match id {
            0 => Ok(CompilerConfig::basic()),
            1 => Ok(CompilerConfig::best()),
            2 => Ok(CompilerConfig::anticipated()),
            other => Err(format!(
                "unknown config id {other} (0=basic 1=best 2=anticipated)"
            )),
        }
    }

    /// Compiled units with single-flight: returns the unit for
    /// `(source, entry, train, config)`, compiling at most once no matter
    /// how many threads ask concurrently. The bool is true when the unit
    /// came straight from the memory tier.
    fn unit_for(&self, req: &CompileReq) -> Result<(Arc<CompiledUnit>, bool), String> {
        let key = unit_key(&req.source, req.config_id, &req.entry, req.train);
        if let Some((unit, _)) = self.store.get::<CompiledUnit>(key) {
            return Ok((unit, true));
        }
        enum Role {
            Leader(Arc<Flight>),
            Joiner(Arc<Flight>),
        }
        let role = {
            let mut flights = lock(&self.flights);
            match flights.get(&key) {
                Some(f) => Role::Joiner(f.clone()),
                None => {
                    let f = Arc::new(Flight::default());
                    flights.insert(key, f.clone());
                    Role::Leader(f)
                }
            }
        };
        match role {
            Role::Leader(flight) => {
                self.counters.flights_led.fetch_add(1, Ordering::Relaxed);
                let result = catch_unwind(AssertUnwindSafe(|| self.compute_unit(req)))
                    .unwrap_or_else(|payload| {
                        Err(format!("compile panicked: {}", panic_message(&*payload)))
                    });
                if let Ok(unit) = &result {
                    self.store.put(key, unit.clone());
                }
                *lock(&flight.result) = Some(result.clone());
                flight.done.notify_all();
                lock(&self.flights).remove(&key);
                release_free_memory();
                result.map(|u| (u, false))
            }
            Role::Joiner(flight) => {
                self.counters.flights_joined.fetch_add(1, Ordering::Relaxed);
                let mut slot = lock(&flight.result);
                while slot.is_none() {
                    slot = flight
                        .done
                        .wait(slot)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                match &*slot {
                    Some(r) => r.clone().map(|u| (u, false)),
                    // Unreachable: the loop above only exits on Some.
                    None => Err("single-flight slot empty after wakeup".to_string()),
                }
            }
        }
    }

    /// The frontend and pipeline run of a single-flight leader.
    fn compute_unit(&self, req: &CompileReq) -> Result<Arc<CompiledUnit>, String> {
        let baseline =
            spt_frontend::compile(&req.source).map_err(|e| format!("compile error: {e}"))?;
        self.counters.frontend_runs.fetch_add(1, Ordering::Relaxed);
        spt_core::fail_point!("serve::compile", &req.entry);
        let config = Self::config_for(req.config_id)?;
        let input = ProfilingInput::new(req.entry.clone(), [req.train]);
        let mut module = baseline.clone();
        let (report, timings) =
            transform_module_timed_with(&mut module, &input, &config, Some(&self.store))
                .map_err(|e| e.to_string())?;
        self.counters.pipeline_runs.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(CompiledUnit {
            report_debug: format!("{report:?}"),
            analyze_text: report.analyze_text(),
            module_text: spt_ir::printer::print_module(&module),
            module_hash: module.content_hash(),
            module,
            baseline_hash: baseline.content_hash(),
            baseline,
            timings,
        }))
    }

    fn compile_resp(&self, req: &CompileReq) -> RespBody {
        let (unit, from_mem) = match self.unit_for(req) {
            Ok(found) => found,
            Err(e) => return RespBody::Err(e),
        };
        RespBody::Ok(OkBody::Compile(CompileResp {
            report_debug: unit.report_debug.clone(),
            analyze_text: unit.analyze_text.clone(),
            module_text: if req.want_module_text {
                unit.module_text.clone()
            } else {
                String::new()
            },
            timings: unit.timings,
            served_from_memory: from_mem,
        }))
    }

    fn sim_resp(&self, req: &SimReq) -> RespBody {
        let compile = CompileReq {
            source: req.source.clone(),
            entry: req.entry.clone(),
            train: req.train,
            config_id: req.config_id,
            want_module_text: false,
        };
        let unit = match self.unit_for(&compile) {
            Ok((unit, _)) => unit,
            Err(e) => return RespBody::Err(e),
        };
        // The same memo path as `sptc`, keyed by the hashes taken at compile
        // time.
        let sim = |module: &Module, hash: u64| {
            memo_sim(&self.store, module, hash, &req.entry, req.arg, &req.machine)
                .map_err(|e| format!("simulation failed: {e}"))
        };
        let baseline = match sim(&unit.baseline, unit.baseline_hash) {
            Ok(r) => r,
            Err(e) => return RespBody::Err(e),
        };
        let spt = match sim(&unit.module, unit.module_hash) {
            Ok(r) => r,
            Err(e) => return RespBody::Err(e),
        };
        if baseline.1.is_none() || spt.1.is_none() {
            release_free_memory();
        }
        if baseline.0.ret != spt.0.ret {
            return RespBody::Err("SPT execution diverged from baseline".to_string());
        }
        RespBody::Ok(OkBody::Sim(SimResp {
            report_debug: unit.report_debug.clone(),
            timings: unit.timings,
            baseline: sim_to_bytes(&baseline.0),
            spt: sim_to_bytes(&spt.0),
            served_from_memory: baseline.1 == Some(Tier::Memory) && spt.1 == Some(Tier::Memory),
        }))
    }

    /// Latency quantile from the histogram: the upper bound (`2^bucket` µs)
    /// of the bucket where the cumulative count crosses `q`.
    fn latency_quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .counters
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= target {
                return 1u64 << i;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }

    /// Snapshot of every global counter, sorted by name (so `Stats`
    /// responses are deterministic given the same history).
    pub fn stats(&self) -> Vec<(String, u64)> {
        let c = &self.counters;
        let sims = self.store.stats(Kind::Sim);
        let mut out: Vec<(String, u64)> = vec![
            ("requests_total", c.requests_total.load(Ordering::Relaxed)),
            ("requests_ping", c.requests_ping.load(Ordering::Relaxed)),
            (
                "requests_compile",
                c.requests_compile.load(Ordering::Relaxed),
            ),
            ("requests_sim", c.requests_sim.load(Ordering::Relaxed)),
            ("requests_stats", c.requests_stats.load(Ordering::Relaxed)),
            (
                "requests_shutdown",
                c.requests_shutdown.load(Ordering::Relaxed),
            ),
            ("errors_total", c.errors_total.load(Ordering::Relaxed)),
            ("frontend_runs", c.frontend_runs.load(Ordering::Relaxed)),
            ("pipeline_runs", c.pipeline_runs.load(Ordering::Relaxed)),
            ("flights_led", c.flights_led.load(Ordering::Relaxed)),
            ("flights_joined", c.flights_joined.load(Ordering::Relaxed)),
            ("disk_memo_hits", sims.disk_hits),
            // Every memory miss of a sim is served from disk or simulated.
            (
                "disk_direct_runs",
                sims.misses.saturating_sub(sims.disk_hits),
            ),
            ("latency_p50_us", self.latency_quantile(0.50)),
            ("latency_p99_us", self.latency_quantile(0.99)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let rows = Kind::ALL.map(|kind| (kind, self.store.stats(kind)));
        for (kind, k) in rows.iter().filter(|(kind, _)| !kind.disk_only()) {
            for (field, n) in [
                ("hits", k.hits),
                ("misses", k.misses),
                ("insertions", k.insertions),
                ("evictions", k.evictions),
                ("oversize", k.oversize_rejections),
                ("bytes", k.bytes),
                ("entries", k.entries),
            ] {
                out.push((format!("mem_{}_{field}", kind.name()), n));
            }
        }
        if let Some(bytes) = self.store.disk_bytes() {
            let sum = |field: fn(&KindStats) -> u64| rows.iter().map(|(_, k)| field(k)).sum();
            for (kind, k) in &rows {
                out.push((format!("disk_{}_hits", kind.name()), k.disk_hits));
            }
            for (key, n) in [
                ("disk_budget_evictions", sum(|k| k.disk_budget_evictions)),
                ("disk_corrupt_evictions", sum(|k| k.disk_corrupt_evictions)),
                ("disk_stores", sum(|k| k.disk_stores)),
                ("disk_bytes", bytes),
            ] {
                out.push((key.to_string(), n));
            }
        }
        out.push(("mem_budget_bytes".to_string(), self.cfg.mem_budget_bytes));
        out.sort();
        out
    }
}
