//! The `daemon-warm` workload: `sptc --daemon` users against an in-process
//! `sptd` with two workers. Two clients run a closed loop, each waiting for
//! its reply before sending the next request, over a primed working set
//! that fits the memory budget, so the timed phase is all memory-tier hits.

use std::sync::Arc;
use std::time::Instant;

use spt_serve::proto::{encode_response, Response};
use spt_serve::{
    serve, Client, CompileReq, CompileService, OkBody, ReqBody, RespBody, ServerHandle,
    ServiceConfig, SimReq,
};
use spt_sim::{MachineConfig, SimResult};
use spt_trace::sim_from_bytes;

use crate::inputs::Rng;
use crate::oracle;
use crate::outcome::{Facts, Outcome};
use crate::run::Params;
use crate::stats::{geomean, ClassSamples};

/// Client connections, and so requests in flight: one per request kind.
const CLIENTS: usize = KINDS.len();
/// Daemon worker threads.
const WORKERS: usize = 2;

/// Request kinds; a latency class is one program × one kind.
const KINDS: [&str; 2] = ["compile", "sim"];

/// What a primed request must keep returning, byte for byte.
struct Reference {
    report: String,
    analyze: String,
    base: Vec<u8>,
    spt: Vec<u8>,
}

struct Daemon {
    handle: ServerHandle,
    service: Arc<CompileService>,
    clients: Vec<Client>,
    refs: Vec<Reference>,
    facts: Vec<Facts>,
}

impl Daemon {
    fn stop(self) {
        drop(self.clients);
        self.handle.shutdown_and_join();
    }
}

fn compile_req(b: &spt_bench_suite::Benchmark) -> CompileReq {
    CompileReq {
        source: b.source.to_string(),
        entry: b.entry.to_string(),
        train: b.train_arg,
        config_id: 1,
        want_module_text: false,
    }
}

fn sim_req(b: &spt_bench_suite::Benchmark) -> SimReq {
    SimReq {
        source: b.source.to_string(),
        entry: b.entry.to_string(),
        train: b.train_arg,
        arg: b.ref_arg,
        config_id: 1,
        machine: MachineConfig::default(),
    }
}

/// Decodes both results of a sim response and checks them against the
/// reference result.
fn decoded(base: &[u8], spt: &[u8], expected: i64) -> Result<(SimResult, SimResult), String> {
    let base = sim_from_bytes(base).map_err(|e| format!("undecodable baseline result: {e}"))?;
    let spt = sim_from_bytes(spt).map_err(|e| format!("undecodable SPT result: {e}"))?;
    let want = Some(expected as u64);
    if base.ret != want || spt.ret != want {
        return Err(format!(
            "baseline returned {:?}, SPT {:?}, reference {expected}",
            base.ret.map(|v| v as i64),
            spt.ret.map(|v| v as i64)
        ));
    }
    Ok((base, spt))
}

/// Sum of the integers after every `key` in a `Debug` rendering.
fn debug_sum(text: &str, key: &str) -> u64 {
    text.match_indices(key)
        .filter_map(|(at, _)| {
            let rest = &text[at + key.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<u64>().ok()
        })
        .sum()
}

/// Starts the daemon on a fresh socket, connects the clients and primes
/// every key from client 0.
fn setup(p: &Params, expected: &[i64]) -> Result<Daemon, String> {
    let suite = spt_bench_suite::suite();
    let service = Arc::new(CompileService::new(ServiceConfig {
        cache_dir: None,
        disk_budget_bytes: None,
        mem_budget_bytes: 512 << 20,
        shards: 8,
    }));
    let socket = p.work.join("sptd.sock");
    let handle =
        serve(service.clone(), &socket, WORKERS).map_err(|e| format!("daemon bind: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(Client::connect(&socket).map_err(|e| format!("connect: {e}"))?);
    }
    let mut refs = Vec::new();
    let mut facts = Vec::new();
    for (b, &want) in suite.iter().zip(expected) {
        let err = |e: String| format!("set-up prime, {}: {e}", b.name);
        let c = clients[0]
            .compile(compile_req(b))
            .map_err(|e| err(e.to_string()))?;
        let s = clients[0].sim(sim_req(b)).map_err(|e| err(e.to_string()))?;
        let (base, spt) = decoded(&s.baseline, &s.spt, want).map_err(err)?;
        if s.report_debug != c.report_debug {
            return Err(err("sim and compile reports differ".to_string()));
        }
        let mut f = Facts {
            speedup: base.cycles as f64 / spt.cycles.max(1) as f64,
            loops_selected: c.report_debug.matches("outcome: Selected").count() as u64,
            svp_applied: c.report_debug.matches("svp_applied: true").count() as u64,
            profile_cycles: debug_sum(&c.report_debug, "profile_total_cycles: "),
            visited: c.timings.search_visited,
            cold_analysis_s: c.timings.analysis_s,
            spt_cycles: spt.cycles,
            spt_insts: spt.insts,
            ..Facts::default()
        };
        for l in spt.loops.values() {
            f.commits += l.commits;
            f.forks += l.forks;
            f.reexec_insts += l.reexec_insts;
        }
        facts.push(f);
        refs.push(Reference {
            report: c.report_debug,
            analyze: c.analyze_text,
            base: s.baseline,
            spt: s.spt,
        });
    }
    Ok(Daemon {
        handle,
        service,
        clients,
        refs,
        facts,
    })
}

/// One request of the mix: program index and kind index.
type Req = (usize, usize);

/// One client's closed loop over `mix`.
fn client_loop(
    p: &Params,
    client: &mut Client,
    id: u64,
    mix: &[Req],
    refs: &[Reference],
    classes: &[String],
) -> Outcome {
    let suite = spt_bench_suite::suite();
    let compiles: Vec<CompileReq> = suite.iter().map(compile_req).collect();
    let sims: Vec<SimReq> = suite.iter().map(sim_req).collect();
    let mut out = Outcome::new(classes.to_vec(), 0, p.epoch);
    let n = mix.len() as u64;
    let start = Instant::now();
    let mut i = 0u64;
    while p.keep_going(start, i) {
        let (prog, kind) = mix[i as usize % mix.len()];
        let on = p.traced && (i / n) % 2 == 1;
        out.tracer.set_on(on);
        out.tracer.set_op(id << 48 | i);
        let root = out.tracer.enter("bench.op");
        let rtt = out.tracer.enter("serve.rtt");
        let t = Instant::now();
        let reply = if kind == 0 {
            client.compile(compiles[prog].clone()).map(OkBody::Compile)
        } else {
            client.sim(sims[prog].clone()).map(OkBody::Sim)
        };
        let latency = t.elapsed().as_secs_f64();
        out.tracer.exit(rtt);
        let check = out.tracer.enter("bench.check");
        let r = &refs[prog];
        let verdict = match reply {
            Err(e) => Err(e.to_string()),
            Ok(OkBody::Compile(c)) if c.report_debug != r.report || c.analyze_text != r.analyze => {
                Err("compile reply differs from the primed one".to_string())
            }
            // The primed reply was decoded and checked against the
            // reference result in set-up, so byte identity with it is the
            // decoded check, at a fraction of the client's CPU time.
            Ok(OkBody::Sim(s))
                if s.report_debug != r.report || s.baseline != r.base || s.spt != r.spt =>
            {
                Err("sim reply differs from the primed one".to_string())
            }
            Ok(_) => Ok(()),
        };
        out.tracer.exit(check);
        out.tracer.exit(root);
        out.attempted += 1;
        match verdict {
            Ok(()) if on => out.traced.push(2 * prog + kind, latency),
            Ok(()) => out.plain.push(2 * prog + kind, latency),
            Err(e) => out.fail(format!("{} {}: {e}", suite[prog].name, KINDS[kind])),
        }
        i += 1;
    }
    out
}

/// Daemon counters that moved between two `stats` snapshots.
fn stat_delta(before: &[(String, u64)], after: &[(String, u64)], key: &str) -> u64 {
    let get = |s: &[(String, u64)]| s.iter().find(|(k, _)| k == key).map_or(0, |e| e.1);
    get(after).saturating_sub(get(before))
}

/// Runs `daemon-warm`.
pub fn run_daemon(p: &Params) -> Result<Outcome, String> {
    let suite = spt_bench_suite::suite();
    let expected = oracle::suite_expected()?;
    let classes: Vec<String> = suite
        .iter()
        .flat_map(|b| KINDS.iter().map(move |k| format!("{}/{k}", b.name)))
        .collect();
    let mut out = Outcome::new(classes.clone(), suite.len(), p.epoch);
    let t = Instant::now();
    let mut d = setup(p, &expected)?;
    out.setup_s.push(t.elapsed().as_secs_f64());
    out.facts = d.facts.iter().cloned().map(Some).collect();

    // The seed orders the programs; client 0 sends the compile requests and
    // client 1 the sim requests, each in that order. Split by kind, at most
    // one large sim reply is in flight, so the peak RSS does not depend on
    // whether the two clients happen to ask for the largest reply at once.
    let order = Rng::new(p.seed, 4).permutation(suite.len());
    let per_client: Vec<Vec<Req>> = (0..CLIENTS)
        .map(|kind| order.iter().map(|&prog| (prog, kind)).collect())
        .collect();
    let before = d.clients[0].stats().map_err(|e| format!("stats: {e}"))?;
    let start = Instant::now();
    let parts: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = d
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (mix, refs, classes) = (&per_client[c], &d.refs, &classes);
                s.spawn(move || client_loop(p, client, c as u64, mix, refs, classes))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.timed_s = start.elapsed().as_secs_f64();
    for part in parts {
        out.absorb(part);
    }
    let after = d.clients[0].stats().map_err(|e| format!("stats: {e}"))?;

    let delta = |k: &str| stat_delta(&before, &after, k) as f64;
    let (mut hits, mut probes, mut evictions) = (0.0, 0.0, 0.0);
    for tier in ["mem_module", "mem_unit", "mem_sim"] {
        hits += delta(&format!("{tier}_hits"));
        probes += delta(&format!("{tier}_hits")) + delta(&format!("{tier}_misses"));
    }
    for tier in [
        "mem_module",
        "mem_unit",
        "mem_sim",
        "mem_func_analysis",
        "mem_func_emit",
    ] {
        evictions += delta(&format!("{tier}_evictions"));
    }
    let kind_p90 = |kind: usize| {
        let per = out.plain.per_class(0.9);
        geomean(
            per.iter()
                .filter(|c| c.name.ends_with(KINDS[kind]))
                .map(|c| c.value),
        )
        .unwrap_or(0.0)
            * 1e3
    };
    out.extra = vec![
        ("serve.compile_rtt_ms_p90", kind_p90(0), "ms"),
        ("serve.sim_rtt_ms_p90", kind_p90(1), "ms"),
        (
            "serve.mem_hit_ratio",
            if probes > 0.0 { hits / probes } else { 0.0 },
            "ratio",
        ),
        ("serve.evictions", evictions, "count"),
        ("serve.flights_joined", delta("flights_joined"), "count"),
    ];
    if p.traced {
        let (execute_p90, response_kb) =
            execute_direct(p, &d.service, &per_client.concat(), &classes);
        out.extra.push(("serve.execute_ms_p90", execute_p90, "ms"));
        out.extra.push(("serve.response_kb", response_kb, "KiB"));
    }
    d.stop();
    Ok(out)
}

/// The same request mix through `CompileService::execute`, with no socket:
/// the p90 execute time (geometric mean over classes, ms) and the mean
/// encoded response frame (KiB).
fn execute_direct(
    p: &Params,
    service: &CompileService,
    mix: &[Req],
    classes: &[String],
) -> (f64, f64) {
    let suite = spt_bench_suite::suite();
    let bodies: Vec<ReqBody> = mix
        .iter()
        .map(|&(prog, kind)| match kind {
            0 => ReqBody::Compile(compile_req(&suite[prog])),
            _ => ReqBody::Sim(sim_req(&suite[prog])),
        })
        .collect();
    let mut samples = ClassSamples::new(classes.to_vec());
    let (mut bytes, mut frames) = (0usize, 0usize);
    let rounds = p.max_ops.map_or(100, |m| m.min(100));
    for _ in 0..rounds {
        for (&(prog, kind), body) in mix.iter().zip(&bodies) {
            let t = Instant::now();
            let resp: RespBody = service.execute(body);
            samples.push(2 * prog + kind, t.elapsed().as_secs_f64());
            bytes += encode_response(&Response { id: 0, body: resp }).len();
            frames += 1;
        }
    }
    (
        samples.geomean_quantile(0.9).unwrap_or(0.0) * 1e3,
        bytes as f64 / frames.max(1) as f64 / 1024.0,
    )
}
