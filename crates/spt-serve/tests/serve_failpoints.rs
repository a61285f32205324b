//! Fault isolation of the daemon's request path, driven by the
//! `serve::request` and `serve::compile` fail points (armed only under the
//! `failpoints` feature).
//!
//! The contract: a panic inside ONE request — whether in the service logic
//! or the pipeline underneath — degrades exactly that request to an error
//! response. The worker survives, the connection survives, concurrent and
//! subsequent requests are untouched.

#![cfg(feature = "failpoints")]

use spt_core::failpoint::{self, Action};
use spt_serve::{serve, Client, ClientError, CompileReq, CompileService, ServiceConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};

/// The fail-point registry is process-global; these tests serialize on this
/// so one test's `scoped()` clear cannot disarm another's rules mid-flight.
static SERIAL: Mutex<()> = Mutex::new(());

/// A test's private directory holding its daemon socket. Dropping it
/// removes the directory, so no test leaves it behind, pass or fail.
struct SocketDir {
    dir: PathBuf,
    socket: PathBuf,
}

impl SocketDir {
    fn new(tag: &str) -> SocketDir {
        let dir = std::env::temp_dir().join(format!("spt-serve-fp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let socket = dir.join("sptd.sock");
        SocketDir { dir, socket }
    }
}

impl Drop for SocketDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn gap_compile() -> CompileReq {
    let bench = spt_bench_suite::benchmark("gap_s").expect("exists");
    CompileReq {
        source: bench.source.to_string(),
        entry: bench.entry.to_string(),
        train: bench.train_arg,
        config_id: 1,
        want_module_text: false,
    }
}

/// Arm `serve::request` to panic for `ping` only: the ping comes back as an
/// error response, while the same connection, other request kinds, and
/// other clients keep working — and disarming restores ping. A panic inside
/// a compile comes back as an error that carries the panic's message.
#[test]
fn panic_in_one_request_degrades_only_that_request() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _guard = failpoint::scoped();
    let dir = SocketDir::new("panic");
    let socket = &dir.socket;
    let service = Arc::new(CompileService::new(ServiceConfig {
        cache_dir: None,
        ..ServiceConfig::default()
    }));
    let handle = serve(service, socket, 2).expect("daemon starts");
    let mut client = Client::connect(socket).expect("connects");

    failpoint::set_keyed(
        "serve::request",
        "ping",
        Action::panic("injected request fault"),
    );
    match client.ping() {
        Err(ClientError::Server(msg)) => {
            assert!(
                msg.contains("panicked") && msg.contains("ping"),
                "error should name the contained panic: {msg}"
            );
        }
        other => panic!("expected a server error for the panicking ping, got {other:?}"),
    }

    // Same connection, different kind: untouched while the rule is armed.
    let stats: HashMap<String, u64> = client
        .stats()
        .expect("stats still works")
        .into_iter()
        .collect();
    assert_eq!(
        stats.get("errors_total"),
        Some(&0),
        "the panic never reached the service"
    );
    // A second client's compile is untouched too.
    let mut other = Client::connect(socket).expect("connects");
    let resp = other
        .compile(gap_compile())
        .expect("compile unaffected by the armed ping fault");
    assert!(!resp.report_debug.is_empty());

    failpoint::clear("serve::request");
    client.ping().expect("ping works again once disarmed");

    failpoint::set_keyed(
        "serve::compile",
        "main",
        Action::panic("injected compile fault"),
    );
    // Another configuration: a new unit key, so the compile runs.
    let cold = CompileReq {
        config_id: 0,
        ..gap_compile()
    };
    match other.compile(cold) {
        Err(ClientError::Server(msg)) => assert!(
            msg.contains("compile panicked") && msg.contains("injected compile fault"),
            "error should carry the panic's message: {msg}"
        ),
        got => panic!("expected a server error for the panicking compile, got {got:?}"),
    }

    client.shutdown().expect("shutdown ack");
    handle.join();
    assert!(!socket.exists(), "socket removed on clean shutdown");
}

/// Arm `serve::compile` with a delay so the second identical request
/// provably arrives while the leader is still computing: it must join the
/// leader's flight instead of compiling again.
#[test]
fn delayed_compile_forces_a_single_flight_join() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _guard = failpoint::scoped();
    let dir = SocketDir::new("join");
    let socket = &dir.socket;
    let service = Arc::new(CompileService::new(ServiceConfig {
        cache_dir: None,
        ..ServiceConfig::default()
    }));
    let handle = serve(service, socket, 3).expect("daemon starts");

    failpoint::set_keyed("serve::compile", "main", Action::Delay(400));
    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let socket = socket.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(socket).expect("connects");
                barrier.wait();
                client.compile(gap_compile()).expect("compile succeeds")
            })
        })
        .collect();
    let responses: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    assert_eq!(responses[0].report_debug, responses[1].report_debug);

    let mut control = Client::connect(socket).expect("connects");
    let stats: HashMap<String, u64> = control.stats().expect("stats").into_iter().collect();
    assert_eq!(
        stats.get("pipeline_runs"),
        Some(&1),
        "one compile: {stats:?}"
    );
    assert!(
        stats.get("flights_joined").is_some_and(|&j| j >= 1),
        "the overlapping request must join the leader's flight: {stats:?}"
    );
    control.shutdown().expect("shutdown ack");
    handle.join();
}
