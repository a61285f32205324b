//! The compile service: request execution against the two-tier cache.
//!
//! One [`CompileService`] owns everything a daemon worker needs to answer a
//! request, independent of any socket:
//!
//! * three in-memory [`ShardedLru`] tiers — decoded frontend **modules**
//!   keyed by source hash, whole **compiled units** (transformed module,
//!   baseline, report renderings, stage timings) keyed by baseline IR hash +
//!   configuration + profiling input, and **`SimResult`s** keyed by the
//!   artifact cache's own sim key (module hash + entry + args + machine);
//! * the byte-budgeted on-disk [`ArtifactCache`] (`.spt-cache/` tier) that
//!   simulation memos and function analysis units persist through, shared
//!   with the one-shot CLI so a daemon warm-up also warms `sptc`;
//! * a **single-flight** table: concurrent requests for the same unit key
//!   elect one leader to run the pipeline while the rest block on its
//!   result, so N identical cold requests cost exactly one compile;
//! * global counters (per-kind request totals, cache hits/misses/evictions
//!   per tier, single-flight dedups, a log₂ latency histogram for p50/p99)
//!   snapshotted by the `Stats` request.
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

use spt_core::pipeline::transform_module_timed_with;
use spt_core::{CompilerConfig, IncrementalCache, ProfilingInput, StageTimings};
use spt_ir::Module;
use spt_sim::{MachineConfig, SimResult};
use spt_trace::codec::Fnv;
use spt_trace::{sim_to_bytes, ArtifactCache};

use crate::mem_cache::ShardedLru;
use crate::proto::{CompileReq, CompileResp, OkBody, ReqBody, RespBody, SimReq, SimResp};
use crate::sim::{sim_with_cache_in, SimTraceStats};

/// Construction parameters of a [`CompileService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Directory of the on-disk artifact tier; `None` disables disk caching
    /// entirely.
    pub cache_dir: Option<PathBuf>,
    /// Byte bound on the disk tier; enforced after every store by evicting
    /// oldest artifacts first. `None` = unbounded (the one-shot CLI
    /// behavior).
    pub disk_budget_bytes: Option<u64>,
    /// Total byte bound across the in-memory tiers: three-eighths to
    /// compiled units, a quarter each to frontend modules and simulation
    /// results, and an eighth to the function-granular incremental cache
    /// (split evenly between analysis and emission units).
    pub mem_budget_bytes: u64,
    /// Shard count of each in-memory tier.
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
    pub module: Arc<Module>,
    /// The untransformed baseline.
    pub baseline: Arc<Module>,
    /// Timings of the pipeline run that built this unit.
    pub timings: StageTimings,
}

impl CompiledUnit {
    /// Bytes billed against the unit tier: the owned strings exactly, plus
    /// the two modules estimated by their printed size (the in-memory form
    /// tracks it within a small factor, and the estimate only has to make
    /// the budget meaningful, not account to the byte).
    fn approx_bytes(&self) -> u64 {
        (self.report_debug.len()
            + self.analyze_text.len()
            + self.module_text.len()
            + 2 * self.module_text.len()) as u64
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
    requests_compile_batch: AtomicU64,
    requests_sim: AtomicU64,
    requests_stats: AtomicU64,
    requests_shutdown: AtomicU64,
    errors_total: AtomicU64,
    frontend_runs: AtomicU64,
    pipeline_runs: AtomicU64,
    flights_led: AtomicU64,
    flights_joined: AtomicU64,
    disk_memo_hits: AtomicU64,
    disk_direct_runs: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            requests_total: AtomicU64::new(0),
            requests_ping: AtomicU64::new(0),
            requests_compile: AtomicU64::new(0),
            requests_compile_batch: AtomicU64::new(0),
            requests_sim: AtomicU64::new(0),
            requests_stats: AtomicU64::new(0),
            requests_shutdown: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            frontend_runs: AtomicU64::new(0),
            pipeline_runs: AtomicU64::new(0),
            flights_led: AtomicU64::new(0),
            flights_joined: AtomicU64::new(0),
            disk_memo_hits: AtomicU64::new(0),
            disk_direct_runs: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The daemon's request executor. Thread-safe: workers share one instance
/// behind an `Arc` and call [`CompileService::execute`] concurrently.
pub struct CompileService {
    cfg: ServiceConfig,
    disk: Option<ArtifactCache>,
    modules: ShardedLru<Arc<Module>>,
    units: ShardedLru<Arc<CompiledUnit>>,
    sims: ShardedLru<Arc<SimResult>>,
    func_cache: Arc<IncrementalCache>,
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
    counters: Counters,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Flight and flight-table state is published atomically (a whole Option
    // / a whole map entry), so a poisoned lock left by a panicking holder is
    // still consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CompileService {
    /// Builds a service over `cfg`, creating the disk tier handle (budgeted
    /// if asked) and empty in-memory tiers.
    pub fn new(cfg: ServiceConfig) -> Self {
        let disk = cfg
            .cache_dir
            .as_ref()
            .map(|dir| match cfg.disk_budget_bytes {
                Some(b) => ArtifactCache::with_byte_budget(dir, b),
                None => ArtifactCache::new(dir),
            });
        // The function-granular cache persists its analysis units through
        // its own handle on the same disk directory (same byte budget), so
        // edit-recompile cycles survive daemon restarts too.
        let func_mem = cfg.mem_budget_bytes / 8;
        let func_cache = Arc::new(match (&cfg.cache_dir, cfg.disk_budget_bytes) {
            (Some(dir), Some(b)) => IncrementalCache::with_disk(
                func_mem,
                cfg.shards,
                ArtifactCache::with_byte_budget(dir, b),
            ),
            (Some(dir), None) => {
                IncrementalCache::with_disk(func_mem, cfg.shards, ArtifactCache::new(dir))
            }
            (None, _) => IncrementalCache::in_memory(func_mem, cfg.shards),
        });
        CompileService {
            modules: ShardedLru::new(cfg.shards, cfg.mem_budget_bytes / 4),
            units: ShardedLru::new(cfg.shards, 3 * cfg.mem_budget_bytes / 8),
            sims: ShardedLru::new(cfg.shards, cfg.mem_budget_bytes / 4),
            func_cache,
            flights: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            disk,
            cfg,
        }
    }

    /// The shared function-granular incremental cache every pipeline run
    /// compiles through (tests pin its hit/miss counters).
    pub fn incremental_cache(&self) -> &IncrementalCache {
        &self.func_cache
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
            ReqBody::CompileBatch(items) => self.compile_batch_resp(items),
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
            ReqBody::CompileBatch(_) => &c.requests_compile_batch,
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

    /// Frontend tier: source text → decoded module, memoized by source hash.
    fn frontend(&self, source: &str) -> Result<Arc<Module>, String> {
        let mut key = Fnv::new();
        key.update(b"module\0");
        key.update(source.as_bytes());
        let key = key.finish();
        if let Some(m) = self.modules.get(key) {
            return Ok(m);
        }
        let module = spt_frontend::compile(source).map_err(|e| format!("compile error: {e}"))?;
        self.counters.frontend_runs.fetch_add(1, Ordering::Relaxed);
        let module = Arc::new(module);
        // Billed at source size: the decoded structure scales with it and
        // the budget only needs the right order of magnitude.
        self.modules
            .insert(key, module.clone(), source.len().max(64) as u64);
        Ok(module)
    }

    fn unit_key(baseline: &Module, req: &CompileReq) -> u64 {
        let mut key = Fnv::new();
        key.update(b"unit\0");
        key.update_u64(baseline.content_hash());
        key.update(&[req.config_id]);
        key.update(req.entry.as_bytes());
        key.update_u64(req.train as u64);
        key.finish()
    }

    /// Unit tier with single-flight: returns the compiled unit for
    /// `(source, entry, train, config)`, compiling at most once no matter
    /// how many threads ask concurrently. The bool is true when the unit
    /// came straight from the in-memory tier.
    fn unit_for(&self, req: &CompileReq) -> Result<(Arc<CompiledUnit>, bool), String> {
        let baseline = self.frontend(&req.source)?;
        let key = Self::unit_key(&baseline, req);
        if let Some(unit) = self.units.get(key) {
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
                let result = catch_unwind(AssertUnwindSafe(|| self.compute_unit(&baseline, req)))
                    .unwrap_or_else(|payload| {
                        Err(format!("compile panicked: {}", panic_message(&payload)))
                    });
                if let Ok(unit) = &result {
                    self.units.insert(key, unit.clone(), unit.approx_bytes());
                }
                *lock(&flight.result) = Some(result.clone());
                flight.done.notify_all();
                lock(&self.flights).remove(&key);
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

    /// The actual pipeline run of a single-flight leader.
    fn compute_unit(
        &self,
        baseline: &Arc<Module>,
        req: &CompileReq,
    ) -> Result<Arc<CompiledUnit>, String> {
        spt_core::fail_point!("serve::compile", &req.entry);
        let config = Self::config_for(req.config_id)?;
        let input = ProfilingInput::new(req.entry.clone(), [req.train]);
        let mut module = (**baseline).clone();
        let (report, timings) =
            transform_module_timed_with(&mut module, &input, &config, Some(&self.func_cache))
                .map_err(|e| e.to_string())?;
        self.counters.pipeline_runs.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(CompiledUnit {
            report_debug: format!("{report:?}"),
            analyze_text: report.analyze_text(),
            module_text: spt_ir::printer::print_module(&module),
            module: Arc::new(module),
            baseline: baseline.clone(),
            timings,
        }))
    }

    fn compile_one(&self, req: &CompileReq) -> Result<CompileResp, String> {
        let (unit, from_mem) = self.unit_for(req)?;
        Ok(CompileResp {
            report_debug: unit.report_debug.clone(),
            analyze_text: unit.analyze_text.clone(),
            module_text: if req.want_module_text {
                unit.module_text.clone()
            } else {
                String::new()
            },
            timings: unit.timings,
            served_from_memory: from_mem,
        })
    }

    fn compile_resp(&self, req: &CompileReq) -> RespBody {
        match self.compile_one(req) {
            Ok(resp) => RespBody::Ok(OkBody::Compile(resp)),
            Err(e) => RespBody::Err(e),
        }
    }

    /// Batch compile: the items run sequentially in this worker, each
    /// through the ordinary unit path. Deduplication happens at two levels
    /// — identical *modules* collapse through the unit tier and the
    /// single-flight table (also against concurrent non-batch requests),
    /// and *functions shared across distinct variants* collapse through the
    /// function-granular cache, so a batch of K variants of one module
    /// costs roughly one full compile plus K splices. Per-item failures
    /// come back as `Err` entries; the batch itself always succeeds.
    fn compile_batch_resp(&self, items: &[CompileReq]) -> RespBody {
        RespBody::Ok(OkBody::CompileBatch(
            items.iter().map(|req| self.compile_one(req)).collect(),
        ))
    }

    /// `SimResult` tier: in-memory probe keyed exactly like the disk memo,
    /// then [`sim_with_cache_in`] over the service's budgeted disk handle.
    /// The bool is true on an in-memory hit.
    fn sim_one(
        &self,
        module: &Module,
        entry: &str,
        arg: i64,
        machine: &MachineConfig,
    ) -> Result<(Arc<SimResult>, bool), String> {
        let key = ArtifactCache::sim_key(module.content_hash(), entry, &[arg], machine);
        if let Some(hit) = self.sims.get(key) {
            return Ok((hit, true));
        }
        let mut stats = SimTraceStats::default();
        let result = sim_with_cache_in(module, entry, arg, machine, self.disk.as_ref(), &mut stats)
            .map_err(|e| format!("simulation failed: {e}"))?;
        let c = &self.counters;
        c.disk_memo_hits
            .fetch_add(stats.memo_hits, Ordering::Relaxed);
        c.disk_direct_runs
            .fetch_add(stats.direct_runs, Ordering::Relaxed);
        let bytes = sim_to_bytes(&result).len() as u64;
        let result = Arc::new(result);
        self.sims.insert(key, result.clone(), bytes);
        Ok((result, false))
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
        let baseline = match self.sim_one(&unit.baseline, &req.entry, req.arg, &req.machine) {
            Ok(r) => r,
            Err(e) => return RespBody::Err(e),
        };
        let spt = match self.sim_one(&unit.module, &req.entry, req.arg, &req.machine) {
            Ok(r) => r,
            Err(e) => return RespBody::Err(e),
        };
        if baseline.0.ret != spt.0.ret {
            return RespBody::Err("SPT execution diverged from baseline".to_string());
        }
        RespBody::Ok(OkBody::Sim(SimResp {
            report_debug: unit.report_debug.clone(),
            timings: unit.timings,
            baseline: sim_to_bytes(&baseline.0),
            spt: sim_to_bytes(&spt.0),
            served_from_memory: baseline.1 && spt.1,
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
        let mut out: Vec<(String, u64)> = vec![
            ("requests_total", c.requests_total.load(Ordering::Relaxed)),
            ("requests_ping", c.requests_ping.load(Ordering::Relaxed)),
            (
                "requests_compile",
                c.requests_compile.load(Ordering::Relaxed),
            ),
            (
                "requests_compile_batch",
                c.requests_compile_batch.load(Ordering::Relaxed),
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
            ("disk_memo_hits", c.disk_memo_hits.load(Ordering::Relaxed)),
            (
                "disk_direct_runs",
                c.disk_direct_runs.load(Ordering::Relaxed),
            ),
            ("latency_p50_us", self.latency_quantile(0.50)),
            ("latency_p99_us", self.latency_quantile(0.99)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for (tier, cache_stats) in [
            ("mem_module", self.modules.stats()),
            ("mem_unit", self.units.stats()),
            ("mem_sim", self.sims.stats()),
            ("mem_func_analysis", self.func_cache.analysis_stats()),
            ("mem_func_emit", self.func_cache.emit_stats()),
        ] {
            out.push((format!("{tier}_hits"), cache_stats.hits));
            out.push((format!("{tier}_misses"), cache_stats.misses));
            out.push((format!("{tier}_insertions"), cache_stats.insertions));
            out.push((format!("{tier}_evictions"), cache_stats.evictions));
            out.push((format!("{tier}_oversize"), cache_stats.oversize_rejections));
            out.push((format!("{tier}_bytes"), cache_stats.bytes));
            out.push((format!("{tier}_entries"), cache_stats.entries));
        }
        if let Some(disk) = &self.disk {
            let counters = disk.counters();
            out.push((
                "disk_budget_evictions".to_string(),
                counters.budget_evictions.load(Ordering::Relaxed),
            ));
            out.push((
                "disk_corrupt_evictions".to_string(),
                counters.corrupt_evictions.load(Ordering::Relaxed),
            ));
            out.push((
                "disk_stores".to_string(),
                counters.stores.load(Ordering::Relaxed),
            ));
            out.push(("disk_bytes".to_string(), disk.disk_bytes()));
        }
        out.push(("mem_budget_bytes".to_string(), self.cfg.mem_budget_bytes));
        out.sort();
        out
    }
}

/// Best-effort panic payload rendering (`&str` and `String` payloads; the
/// pipeline only ever panics with those).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
