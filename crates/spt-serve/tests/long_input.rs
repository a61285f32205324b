//! A request whose source is one long operator chain gets an answer, on a
//! thread with a daemon worker's 2 MiB stack.

use spt_serve::proto::{CompileReq, OkBody, ReqBody, RespBody};
use spt_serve::service::{CompileService, ServiceConfig};

#[test]
fn a_compile_request_for_a_long_operator_chain_gets_a_reply() {
    let mut source = String::from("fn main(n: int) -> int { return n");
    for _ in 0..20_000 {
        source.push_str(" + 1");
    }
    source.push_str("; }\n");
    let req = ReqBody::Compile(CompileReq {
        source,
        entry: "main".into(),
        train: 3,
        config_id: 1,
        want_module_text: false,
    });
    let reply = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let service = CompileService::new(ServiceConfig {
                cache_dir: None,
                ..ServiceConfig::default()
            });
            service.execute(&req)
        })
        .expect("spawns")
        .join()
        .expect("no stack overflow");
    assert!(
        matches!(reply, RespBody::Ok(OkBody::Compile(_))),
        "not a compile reply: {reply:?}"
    );
}
