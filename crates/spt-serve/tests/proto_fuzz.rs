//! Deterministic mutation fuzz of the daemon's frame-payload decoders.
//!
//! Every request and response kind is encoded, then decoded again after
//! every truncation, every single-bit flip and every splice of an inflated
//! varint (the shape of a corrupt length or count field) at every offset;
//! large frames that claim millions of batch items or stats entries are
//! decoded too. Each decode must return `Ok` or `Err` — never panic — and a
//! counting global allocator checks that no single allocation exceeds
//! `MAX_FRAME`: a corrupt count must not reserve more than a real payload of
//! that size could need.

use spt_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, MAX_FRAME,
};
use spt_serve::{CompileReq, CompileResp, OkBody, ReqBody, Request, RespBody, SimReq, SimResp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request it served.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn compile_req(k: i64) -> CompileReq {
    CompileReq {
        source: format!("fn main() -> int {{ return {k}; }}"),
        entry: "main".to_string(),
        train: k,
        config_id: (k % 3) as u8,
        want_module_text: k % 2 == 0,
    }
}

fn compile_resp(k: u64) -> CompileResp {
    CompileResp {
        report_debug: format!("report {k}"),
        analyze_text: "loops: 1".to_string(),
        module_text: "fn main".to_string(),
        timings: Default::default(),
        served_from_memory: k % 2 == 1,
    }
}

fn requests() -> Vec<Request> {
    let bodies = vec![
        ReqBody::Ping,
        ReqBody::Compile(compile_req(7)),
        ReqBody::CompileBatch(vec![compile_req(1), compile_req(-2), compile_req(300)]),
        ReqBody::Sim(SimReq {
            source: "fn main() -> int { return 3; }".to_string(),
            entry: "main".to_string(),
            train: 40,
            arg: -9,
            config_id: 1,
            machine: Default::default(),
        }),
        ReqBody::Stats,
        ReqBody::Shutdown,
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(id, body)| Request {
            id: id as u64 * 1000 + 3,
            body,
        })
        .collect()
}

fn responses() -> Vec<RespBody> {
    vec![
        RespBody::Err("no such entry".to_string()),
        RespBody::Ok(OkBody::Pong),
        RespBody::Ok(OkBody::Compile(compile_resp(1))),
        RespBody::Ok(OkBody::CompileBatch(vec![
            Ok(compile_resp(2)),
            Err("parse error".to_string()),
            Ok(compile_resp(3)),
        ])),
        RespBody::Ok(OkBody::Sim(SimResp {
            report_debug: "sim".to_string(),
            timings: Default::default(),
            baseline: vec![1, 2, 3, 4],
            spt: vec![5; 9],
            served_from_memory: false,
        })),
        RespBody::Ok(OkBody::Stats(vec![
            ("requests".to_string(), 12),
            ("mem_hits".to_string(), 1 << 40),
        ])),
        RespBody::Ok(OkBody::ShuttingDown),
    ]
}

/// LEB128 encoding of `v`.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// Every mutant of `payload`: each truncation, each single-bit flip, and
/// each offset's byte replaced by an inflated varint.
fn mutants(payload: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for k in 0..payload.len() {
        out.push(payload[..k].to_vec());
    }
    for (i, _) in payload.iter().enumerate() {
        for bit in 0..8 {
            let mut m = payload.to_vec();
            m[i] ^= 1 << bit;
            out.push(m);
        }
    }
    let big = [
        payload.len() as u64 + 1,
        1 << 20,
        1 << 31,
        1 << 40,
        u64::MAX,
    ];
    for i in 0..payload.len() {
        for &v in &big {
            let mut m = payload[..i].to_vec();
            m.extend(varint(v));
            m.extend_from_slice(&payload[i + 1..]);
            out.push(m);
        }
    }
    out
}

/// Decodes `bytes` as `what`, failing the test on a panic.
fn decode_never_panics(what: &str, bytes: &[u8], decode: fn(&[u8]) -> bool) {
    let outcome = catch_unwind(AssertUnwindSafe(|| decode(bytes)));
    assert!(
        outcome.is_ok(),
        "{what}: decoder panicked on {} bytes: {:02x?}",
        bytes.len(),
        &bytes[..bytes.len().min(64)]
    );
}

/// A frame of `len` bytes: `head`, then zero padding.
fn padded(head: Vec<u8>, len: usize) -> Vec<u8> {
    let mut frame = head;
    frame.resize(len, 0);
    frame
}

#[test]
fn corrupt_frames_never_panic_or_over_allocate() {
    let decode_req: fn(&[u8]) -> bool = |b| decode_request(b).is_ok();
    let decode_resp: fn(&[u8]) -> bool = |b| decode_response(b).is_ok();
    let mut checked = 0usize;
    for req in requests() {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).as_ref(), Ok(&req));
        for m in mutants(&payload) {
            decode_never_panics("request", &m, decode_req);
            checked += 1;
        }
    }
    for (id, body) in responses().into_iter().enumerate() {
        let resp = spt_serve::proto::Response {
            id: id as u64,
            body,
        };
        let payload = encode_response(&resp);
        assert_eq!(decode_response(&payload).as_ref(), Ok(&resp));
        for m in mutants(&payload) {
            decode_never_panics("response", &m, decode_resp);
            checked += 1;
        }
    }

    // Large frames whose count varint claims one item per payload byte:
    // the shape that used to reserve several times `MAX_FRAME`.
    let header = |kind: Vec<u8>, n: usize| {
        let mut h = encode_request(&Request {
            id: 1,
            body: ReqBody::Ping,
        });
        h.truncate(h.len() - 1);
        h.extend(kind);
        h.extend(varint(n as u64));
        h
    };
    let compile_batch_kind = encode_request(&Request {
        id: 1,
        body: ReqBody::CompileBatch(vec![]),
    });
    let kind_byte = compile_batch_kind[compile_batch_kind.len() - 2];
    let big_req = padded(header(vec![kind_byte], 2 << 20), 2 << 20);
    decode_never_panics("large request batch", &big_req, decode_req);
    assert!(decode_request(&big_req).is_err());

    let resp_prefix = |body: RespBody| {
        let p = encode_response(&spt_serve::proto::Response { id: 1, body });
        // Drop the trailing empty-collection count varint.
        p[..p.len() - 1].to_vec()
    };
    let mut batch = resp_prefix(RespBody::Ok(OkBody::CompileBatch(vec![])));
    batch.extend(varint(512 << 10));
    let big_batch = padded(batch, 512 << 10);
    decode_never_panics("large response batch", &big_batch, decode_resp);
    let mut stats = resp_prefix(RespBody::Ok(OkBody::Stats(vec![])));
    stats.extend(varint(3 << 20));
    let big_stats = padded(stats, 3 << 20);
    decode_never_panics("large stats response", &big_stats, decode_resp);

    assert!(checked > 5_000, "only {checked} mutants");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= MAX_FRAME,
        "a decode reserved {largest} bytes in one allocation (MAX_FRAME is {MAX_FRAME})"
    );
}
