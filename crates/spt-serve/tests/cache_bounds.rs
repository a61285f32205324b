//! Byte bounds on BOTH cache layers: driving many distinct programs through
//! a service with tiny budgets must evict — observably, via the counters —
//! at the in-memory tier and the disk tier, while each tier's accounted
//! bytes stay within its bound and the hottest entries stay served.

use spt_serve::{CompileReq, CompileService, OkBody, ReqBody, RespBody, ServiceConfig, SimReq};
use spt_sim::MachineConfig;
use std::collections::HashMap;

const PROGRAMS: usize = 20;
const MEM_BUDGET: u64 = 48 << 10;
const DISK_BUDGET: u64 = 12 << 10;

/// Distinct program per index: the seed constant changes the source hash
/// (and every key derived from it) while keeping shape and cost identical.
fn source(i: usize) -> String {
    format!(
        "global data[256]: int;
         fn main(n: int) -> int {{
             let s = {i};
             for (let j = 0; j < n; j = j + 1) {{
                 data[j % 256] = j * {i} + 3;
                 s = s + data[(j * 7) % 256] % 13;
             }}
             return s;
         }}"
    )
}

fn compile_req(i: usize) -> ReqBody {
    ReqBody::Compile(CompileReq {
        source: source(i),
        entry: "main".to_string(),
        train: 40,
        config_id: 1,
        want_module_text: false,
    })
}

fn sim_req(i: usize) -> ReqBody {
    ReqBody::Sim(SimReq {
        source: source(i),
        entry: "main".to_string(),
        train: 40,
        arg: 40,
        config_id: 1,
        machine: MachineConfig::default(),
    })
}

fn ok(resp: RespBody) -> OkBody {
    match resp {
        RespBody::Ok(body) => body,
        RespBody::Err(e) => panic!("request failed: {e}"),
    }
}

#[test]
fn both_cache_layers_enforce_their_byte_budgets() {
    let dir = std::env::temp_dir().join(format!("spt-serve-bounds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = CompileService::new(ServiceConfig {
        cache_dir: Some(dir.clone()),
        disk_budget_bytes: Some(DISK_BUDGET),
        mem_budget_bytes: MEM_BUDGET,
        shards: 1, // one shard per tier, so the budget split is exact
    });
    for i in 0..PROGRAMS {
        ok(service.execute(&compile_req(i)));
        ok(service.execute(&sim_req(i)));
    }
    let stats: HashMap<String, u64> = service.stats().into_iter().collect();
    let get = |key: &str| stats.get(key).copied().unwrap_or(0);

    // Memory tier: the compiled units alone dwarf their half-budget share,
    // so evictions must have fired, and every tier's accounted bytes must
    // still be inside its share.
    let mem_evictions =
        get("mem_module_evictions") + get("mem_unit_evictions") + get("mem_sim_evictions");
    assert!(
        mem_evictions > 0,
        "{PROGRAMS} programs against a {MEM_BUDGET}-byte memory budget must evict: {stats:?}"
    );
    assert!(
        get("mem_unit_bytes") <= MEM_BUDGET / 2,
        "unit tier over budget: {stats:?}"
    );
    assert!(
        get("mem_module_bytes") <= MEM_BUDGET / 4,
        "module tier over budget: {stats:?}"
    );
    assert!(
        get("mem_sim_bytes") <= MEM_BUDGET / 4,
        "sim tier over budget: {stats:?}"
    );

    // Disk tier: sim memos and function units for 20 programs overflow the
    // budget many times over; eviction must be counted and the directory must fit.
    assert!(
        get("disk_budget_evictions") > 0,
        "disk budget evictions must be observable: {stats:?}"
    );
    assert!(
        get("disk_bytes") <= DISK_BUDGET,
        "disk tier over budget ({} > {DISK_BUDGET}): {stats:?}",
        get("disk_bytes")
    );

    // LRU, not random: the most recently inserted unit is still resident.
    match ok(service.execute(&compile_req(PROGRAMS - 1))) {
        OkBody::Compile(resp) => assert!(
            resp.served_from_memory,
            "the most recent unit must survive eviction"
        ),
        other => panic!("expected a compile response, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
