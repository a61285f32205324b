//! Length-framed wire protocol between `sptd` and its clients.
//!
//! A connection is a Unix stream socket carrying *frames*: a 4-byte
//! little-endian payload length followed by the payload. Frames are
//! independent — a client may pipeline several requests and the daemon may
//! answer them out of order, so every request carries a caller-chosen `id`
//! that its response echoes. Payloads are written in the workspace's one
//! byte format, `spt_ir::codec` (LEB128 varints, zigzag for signed values,
//! varint-length-prefixed UTF-8 strings and byte strings, `f64`s as their
//! 8-byte bit patterns so timings round-trip exactly), and read through its
//! `Reader`.
//!
//! The protocol is deliberately tiny — five request kinds (`Ping`,
//! `Compile`, `Sim`, `Stats`, `Shutdown`) — and versioned
//! by [`PROTO_VERSION`], which is folded into every frame's first byte so a
//! stale client fails loudly instead of misparsing. Oversized frames are
//! rejected at [`MAX_FRAME`] before allocation; a short read mid-frame is
//! an error, while EOF *between* frames is a clean close.

use std::io::{self, Read, Write};

use spt_core::StageTimings;
use spt_ir::codec::{put_bytes, put_f64, put_str, put_varint, unzigzag, zigzag, Reader};
use spt_sim::{CacheConfig, MachineConfig};

/// Bumped on any incompatible change to the frame payloads.
/// v2: [`StageTimings`] gained the function-granular incremental-compile
/// counters, and a batch-compile request kind (5) was added.
/// v3: [`StageTimings`]' `trace_*` fields, which always read 0, are no
/// longer sent.
/// v4: the batch-compile kind is gone (several `Compile` requests share
/// analysis units through the daemon's store), and so are the emission
/// counters of [`StageTimings`].
/// v5: [`StageTimings`] gained the stored-profile hit/miss counters.
/// v6: the stored-profile counters gave way to the whole-compile memo's
/// (`compile_hits`, `compile_misses`), and the sim replies' encoding
/// carries the store's word-wise checksum.
/// v7: the sim replies carry the bare `SimResult` body, with no magic,
/// version or checksum: the versioned frame carries them.
/// v8: a `SimResult` body carries its final memory's digest instead of the
/// image, so a sim reply is its report plus two bodies of about a hundred
/// bytes.
pub const PROTO_VERSION: u8 = 8;

/// Upper bound on a single frame's payload. Large enough for any report +
/// module text this repo produces (the biggest corpus artifacts are low
/// single-digit megabytes); small enough that a corrupt length prefix
/// cannot drive an allocation-of-doom.
pub const MAX_FRAME: usize = 64 << 20;

/// Smallest encoding of a stats entry: an empty name and a one-byte value.
const MIN_STATS_ENTRY: usize = 2;

/// A client request: caller-chosen correlation id plus the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the matching [`Response`].
    pub id: u64,
    /// The operation to perform.
    pub body: ReqBody,
}

/// The operation a [`Request`] asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum ReqBody {
    /// Liveness probe; answered with [`OkBody::Pong`].
    Ping,
    /// Compile `source` and return the report renderings.
    Compile(CompileReq),
    /// Compile `source`, then simulate baseline and SPT binaries.
    Sim(SimReq),
    /// Snapshot the server's global counters.
    Stats,
    /// Drain in-flight work and exit the serve loop.
    Shutdown,
}

/// Arguments for [`ReqBody::Compile`].
#[derive(Clone, Debug, PartialEq)]
pub struct CompileReq {
    /// Frontend source text of the module.
    pub source: String,
    /// Entry function name.
    pub entry: String,
    /// Training input for the profiling runs.
    pub train: i64,
    /// Compiler configuration: 0 = basic, 1 = best, 2 = anticipated.
    pub config_id: u8,
    /// Also return the transformed module's printed IR (costly for big
    /// modules, so opt-in).
    pub want_module_text: bool,
}

/// Arguments for [`ReqBody::Sim`].
#[derive(Clone, Debug, PartialEq)]
pub struct SimReq {
    /// Frontend source text of the module.
    pub source: String,
    /// Entry function name.
    pub entry: String,
    /// Training input for the profiling runs.
    pub train: i64,
    /// Input for the simulated executions.
    pub arg: i64,
    /// Compiler configuration: 0 = basic, 1 = best, 2 = anticipated.
    pub config_id: u8,
    /// Machine model for both simulations.
    pub machine: MachineConfig,
}

/// A server reply, correlated to its request by `id`.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The `id` of the request this answers.
    pub id: u64,
    /// Success payload or error message.
    pub body: RespBody,
}

/// Success-or-error wrapper of a response payload.
#[derive(Clone, Debug, PartialEq)]
pub enum RespBody {
    /// The request succeeded.
    Ok(OkBody),
    /// The request failed; the string is the diagnostic message. A failed
    /// request never takes the connection or the daemon down with it.
    Err(String),
}

/// Success payloads, one per request kind.
#[derive(Clone, Debug, PartialEq)]
pub enum OkBody {
    /// Answer to [`ReqBody::Ping`].
    Pong,
    /// Answer to [`ReqBody::Compile`].
    Compile(CompileResp),
    /// Answer to [`ReqBody::Sim`].
    Sim(SimResp),
    /// Answer to [`ReqBody::Stats`]: counter name/value pairs, sorted by
    /// name on the server so output is deterministic.
    Stats(Vec<(String, u64)>),
    /// Answer to [`ReqBody::Shutdown`], sent before the serve loop exits.
    ShuttingDown,
}

/// Compile result: the report rendered both ways, plus stage timings.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileResp {
    /// `format!("{:?}", CompilationReport)` — the byte-exact form the
    /// equivalence tests and `report_digest` hash.
    pub report_debug: String,
    /// Human-readable analysis table (`CompilationReport::analyze_text`),
    /// byte-identical to `sptc analyze` output.
    pub analyze_text: String,
    /// Printed transformed IR; empty unless `want_module_text` was set.
    pub module_text: String,
    /// Per-stage pipeline timings for this unit. Served-from-cache
    /// responses echo the timings of the run that produced the unit.
    pub timings: StageTimings,
    /// True when the unit came from the in-memory cache rather than a
    /// pipeline run.
    pub served_from_memory: bool,
}

/// Sim result: the compile rendering plus both simulation outcomes,
/// encoded with the artifact store's `SimResult` codec (the final memory
/// as its digest).
#[derive(Clone, Debug, PartialEq)]
pub struct SimResp {
    /// `format!("{:?}", CompilationReport)` for the unit that was simulated.
    pub report_debug: String,
    /// Timings of the compile that produced (or cached) the unit.
    pub timings: StageTimings,
    /// Baseline simulation, `spt_trace::sim_to_bytes` encoded (the bare
    /// body; `spt_trace::sim_from_bytes` decodes it).
    pub baseline: Vec<u8>,
    /// SPT simulation, encoded the same way.
    pub spt: Vec<u8>,
    /// True when both simulation results were in-memory hits.
    pub served_from_memory: bool,
}

const KIND_PING: u8 = 0;
const KIND_COMPILE: u8 = 1;
const KIND_SIM: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_SHUTDOWN: u8 = 4;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

// ---------------------------------------------------------------------------
// Framing

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on clean EOF (peer closed between frames);
/// an EOF mid-frame or an over-limit length prefix is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Payload fields

fn get_blob(r: &mut Reader<'_>) -> Option<Vec<u8>> {
    let n = r.count()?;
    Some(r.bytes(n)?.to_vec())
}

fn put_machine(out: &mut Vec<u8>, m: &MachineConfig) {
    put_varint(out, m.fork_overhead);
    put_varint(out, m.commit_overhead);
    put_varint(out, m.branch_mispredict_penalty);
    put_varint(out, m.max_spec_ops as u64);
    put_varint(out, m.spec_buffer_entries as u64);
    put_varint(out, m.fuel);
    put_varint(out, m.max_depth as u64);
    put_varint(out, m.cache.l1_line_cells as u64);
    put_varint(out, m.cache.l1_sets as u64);
    put_varint(out, m.cache.l1_ways as u64);
    put_varint(out, m.cache.l1_latency);
    put_varint(out, m.cache.l2_line_cells as u64);
    put_varint(out, m.cache.l2_sets as u64);
    put_varint(out, m.cache.l2_ways as u64);
    put_varint(out, m.cache.l2_latency);
    put_varint(out, m.cache.memory_latency);
}

fn get_machine(r: &mut Reader<'_>) -> Option<MachineConfig> {
    Some(MachineConfig {
        fork_overhead: r.varint()?,
        commit_overhead: r.varint()?,
        branch_mispredict_penalty: r.varint()?,
        max_spec_ops: r.usize()?,
        spec_buffer_entries: r.usize()?,
        fuel: r.varint()?,
        max_depth: r.usize()?,
        cache: CacheConfig {
            l1_line_cells: r.usize()?,
            l1_sets: r.usize()?,
            l1_ways: r.usize()?,
            l1_latency: r.varint()?,
            l2_line_cells: r.usize()?,
            l2_sets: r.usize()?,
            l2_ways: r.usize()?,
            l2_latency: r.varint()?,
            memory_latency: r.varint()?,
        },
    })
}

fn put_timings(out: &mut Vec<u8>, t: &StageTimings) {
    put_f64(out, t.preprocess_s);
    put_f64(out, t.profile_s);
    put_f64(out, t.analysis_s);
    put_f64(out, t.svp_s);
    put_f64(out, t.select_emit_s);
    put_varint(out, t.search_visited);
    put_varint(out, t.func_units_total);
    put_varint(out, t.func_analysis_hits);
    put_varint(out, t.func_analysis_misses);
    put_varint(out, t.compile_hits);
    put_varint(out, t.compile_misses);
}

fn get_timings(r: &mut Reader<'_>) -> Option<StageTimings> {
    Some(StageTimings {
        preprocess_s: r.f64()?,
        profile_s: r.f64()?,
        analysis_s: r.f64()?,
        svp_s: r.f64()?,
        select_emit_s: r.f64()?,
        search_visited: r.varint()?,
        func_units_total: r.varint()?,
        func_analysis_hits: r.varint()?,
        func_analysis_misses: r.varint()?,
        compile_hits: r.varint()?,
        compile_misses: r.varint()?,
        ..StageTimings::default()
    })
}

fn put_compile_req(out: &mut Vec<u8>, c: &CompileReq) {
    put_str(out, &c.source);
    put_str(out, &c.entry);
    put_varint(out, zigzag(c.train));
    out.push(c.config_id);
    out.push(c.want_module_text as u8);
}

fn get_compile_req(r: &mut Reader<'_>) -> Option<CompileReq> {
    Some(CompileReq {
        source: r.str()?,
        entry: r.str()?,
        train: unzigzag(r.varint()?),
        config_id: r.byte()?,
        want_module_text: r.byte()? != 0,
    })
}

fn put_compile_resp(out: &mut Vec<u8>, c: &CompileResp) {
    put_str(out, &c.report_debug);
    put_str(out, &c.analyze_text);
    put_str(out, &c.module_text);
    put_timings(out, &c.timings);
    out.push(c.served_from_memory as u8);
}

fn get_compile_resp(r: &mut Reader<'_>) -> Option<CompileResp> {
    Some(CompileResp {
        report_debug: r.str()?,
        analyze_text: r.str()?,
        module_text: r.str()?,
        timings: get_timings(r)?,
        served_from_memory: r.byte()? != 0,
    })
}

// ---------------------------------------------------------------------------
// Requests

/// Serializes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = vec![PROTO_VERSION];
    put_varint(&mut out, req.id);
    match &req.body {
        ReqBody::Ping => out.push(KIND_PING),
        ReqBody::Compile(c) => {
            out.push(KIND_COMPILE);
            put_compile_req(&mut out, c);
        }
        ReqBody::Sim(s) => {
            out.push(KIND_SIM);
            put_str(&mut out, &s.source);
            put_str(&mut out, &s.entry);
            put_varint(&mut out, zigzag(s.train));
            put_varint(&mut out, zigzag(s.arg));
            out.push(s.config_id);
            put_machine(&mut out, &s.machine);
        }
        ReqBody::Stats => out.push(KIND_STATS),
        ReqBody::Shutdown => out.push(KIND_SHUTDOWN),
    }
    out
}

/// Parses a frame payload into a [`Request`].
///
/// # Errors
///
/// Another protocol version, a malformed payload, or trailing bytes.
pub fn decode_request(buf: &[u8]) -> Result<Request, String> {
    let mut r = Reader::new(buf, 0);
    check_version(&mut r)?;
    let req = get_request(&mut r).ok_or("malformed request payload")?;
    expect_end(&r, buf.len(), "request")?;
    Ok(req)
}

fn get_request(r: &mut Reader<'_>) -> Option<Request> {
    let id = r.varint()?;
    let body = match r.byte()? {
        KIND_PING => ReqBody::Ping,
        KIND_COMPILE => ReqBody::Compile(get_compile_req(r)?),
        KIND_SIM => ReqBody::Sim(SimReq {
            source: r.str()?,
            entry: r.str()?,
            train: unzigzag(r.varint()?),
            arg: unzigzag(r.varint()?),
            config_id: r.byte()?,
            machine: get_machine(r)?,
        }),
        KIND_STATS => ReqBody::Stats,
        KIND_SHUTDOWN => ReqBody::Shutdown,
        _ => return None,
    };
    Some(Request { id, body })
}

// ---------------------------------------------------------------------------
// Responses

/// Serializes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = vec![PROTO_VERSION];
    put_varint(&mut out, resp.id);
    match &resp.body {
        RespBody::Err(msg) => {
            out.push(STATUS_ERR);
            put_str(&mut out, msg);
        }
        RespBody::Ok(ok) => {
            out.push(STATUS_OK);
            match ok {
                OkBody::Pong => out.push(KIND_PING),
                OkBody::Compile(c) => {
                    out.push(KIND_COMPILE);
                    put_compile_resp(&mut out, c);
                }
                OkBody::Sim(s) => {
                    out.push(KIND_SIM);
                    put_str(&mut out, &s.report_debug);
                    put_timings(&mut out, &s.timings);
                    put_bytes(&mut out, &s.baseline);
                    put_bytes(&mut out, &s.spt);
                    out.push(s.served_from_memory as u8);
                }
                OkBody::Stats(entries) => {
                    out.push(KIND_STATS);
                    put_varint(&mut out, entries.len() as u64);
                    for (name, value) in entries {
                        put_str(&mut out, name);
                        put_varint(&mut out, *value);
                    }
                }
                OkBody::ShuttingDown => out.push(KIND_SHUTDOWN),
            }
        }
    }
    out
}

/// Parses a frame payload into a [`Response`].
///
/// # Errors
///
/// Another protocol version, a malformed payload, or trailing bytes.
pub fn decode_response(buf: &[u8]) -> Result<Response, String> {
    let mut r = Reader::new(buf, 0);
    check_version(&mut r)?;
    let resp = get_response(&mut r).ok_or("malformed response payload")?;
    expect_end(&r, buf.len(), "response")?;
    Ok(resp)
}

fn get_response(r: &mut Reader<'_>) -> Option<Response> {
    let id = r.varint()?;
    let body = match r.byte()? {
        STATUS_ERR => RespBody::Err(r.str()?),
        STATUS_OK => RespBody::Ok(match r.byte()? {
            KIND_PING => OkBody::Pong,
            KIND_COMPILE => OkBody::Compile(get_compile_resp(r)?),
            KIND_SIM => OkBody::Sim(SimResp {
                report_debug: r.str()?,
                timings: get_timings(r)?,
                baseline: get_blob(r)?,
                spt: get_blob(r)?,
                served_from_memory: r.byte()? != 0,
            }),
            KIND_STATS => {
                let n = r.count_of(MIN_STATS_ENTRY)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((r.str()?, r.varint()?));
                }
                OkBody::Stats(entries)
            }
            KIND_SHUTDOWN => OkBody::ShuttingDown,
            _ => return None,
        }),
        _ => return None,
    };
    Some(Response { id, body })
}

fn check_version(r: &mut Reader<'_>) -> Result<(), String> {
    let v = r.byte().ok_or("empty payload")?;
    if v != PROTO_VERSION {
        return Err(format!(
            "protocol version mismatch: peer speaks v{v}, this build v{PROTO_VERSION}"
        ));
    }
    Ok(())
}

fn expect_end(r: &Reader<'_>, len: usize, what: &str) -> Result<(), String> {
    if !r.at_end() {
        return Err(format!("{what} payload has {} trailing bytes", len - r.pos));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).as_ref(), Ok(&req));
    }

    fn round_trip_response(resp: Response) {
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes).as_ref(), Ok(&resp));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request {
            id: 0,
            body: ReqBody::Ping,
        });
        round_trip_request(Request {
            id: 7,
            body: ReqBody::Stats,
        });
        round_trip_request(Request {
            id: u64::MAX,
            body: ReqBody::Shutdown,
        });
        round_trip_request(Request {
            id: 42,
            body: ReqBody::Compile(CompileReq {
                source: "func main() { return 1; }".to_string(),
                entry: "main".to_string(),
                train: -5,
                config_id: 2,
                want_module_text: true,
            }),
        });
        round_trip_request(Request {
            id: 43,
            body: ReqBody::Sim(SimReq {
                source: "x".to_string(),
                entry: "main".to_string(),
                train: 100,
                arg: -100,
                config_id: 0,
                machine: MachineConfig::default(),
            }),
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response {
            id: 1,
            body: RespBody::Ok(OkBody::Pong),
        });
        round_trip_response(Response {
            id: 2,
            body: RespBody::Err("boom".to_string()),
        });
        round_trip_response(Response {
            id: 3,
            body: RespBody::Ok(OkBody::Compile(CompileResp {
                report_debug: "CompilationReport { .. }".to_string(),
                analyze_text: "table".to_string(),
                module_text: String::new(),
                timings: StageTimings {
                    preprocess_s: 0.125,
                    profile_s: 1.5,
                    analysis_s: 0.0,
                    svp_s: f64::MIN_POSITIVE,
                    select_emit_s: 3.25,
                    search_visited: 999,
                    func_units_total: 12,
                    func_analysis_hits: 11,
                    func_analysis_misses: 1,
                    compile_hits: 2,
                    compile_misses: 3,
                    ..StageTimings::default()
                },
                served_from_memory: true,
            })),
        });
        round_trip_response(Response {
            id: 4,
            body: RespBody::Ok(OkBody::Sim(SimResp {
                report_debug: "r".to_string(),
                timings: StageTimings::default(),
                baseline: vec![1, 2, 3],
                spt: vec![],
                served_from_memory: false,
            })),
        });
        round_trip_response(Response {
            id: 5,
            body: RespBody::Ok(OkBody::Stats(vec![
                ("hits".to_string(), 10),
                ("misses".to_string(), 2),
            ])),
        });
        round_trip_response(Response {
            id: 6,
            body: RespBody::Ok(OkBody::ShuttingDown),
        });
    }

    #[test]
    fn frame_round_trip_and_clean_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"third").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"first"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"third"[..]));
        assert_eq!(
            read_frame(&mut r).unwrap(),
            None,
            "clean EOF between frames"
        );
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        wire.truncate(wire.len() - 3);
        let mut r = &wire[..];
        assert!(read_frame(&mut r).is_err());

        // EOF inside the length prefix is also an error.
        let mut short = &wire[..2];
        assert!(read_frame(&mut short).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = (u32::MAX).to_le_bytes().to_vec();
        wire.extend_from_slice(b"junk");
        let mut r = &wire[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn version_mismatch_is_loud() {
        let mut bytes = encode_request(&Request {
            id: 9,
            body: ReqBody::Ping,
        });
        bytes[0] = PROTO_VERSION.wrapping_add(1);
        let err = decode_request(&bytes).unwrap_err();
        assert!(err.contains("version"), "got: {err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_request(&Request {
            id: 1,
            body: ReqBody::Ping,
        });
        bytes.push(0xff);
        assert!(decode_request(&bytes).unwrap_err().contains("trailing"));
    }
}
