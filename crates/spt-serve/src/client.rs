//! Blocking client for the `sptd` protocol.
//!
//! One [`Client`] owns one connection and issues one request at a time
//! (send frame, read frame), so correlation ids are checked but never
//! ambiguous. Concurrency comes from using several clients — each client
//! thread of `tests/sptd_process.rs`, for instance, holds its own. There is
//! no batch call: K variants of one module are K [`Client::compile`] calls,
//! and the daemon analyzes the functions they share once.

use std::fmt;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, CompileReq, CompileResp, OkBody,
    ReqBody, Request, RespBody, SimReq, SimResp,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, or write).
    Io(io::Error),
    /// The daemon answered, but the response was malformed or of the wrong
    /// kind for the request.
    Protocol(String),
    /// The daemon processed the request and reported an error.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "daemon i/o error: {e}"),
            ClientError::Protocol(e) => write!(f, "daemon protocol error: {e}"),
            ClientError::Server(e) => write!(f, "daemon error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected `sptd` client.
pub struct Client {
    stream: UnixStream,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon at `socket_path`.
    ///
    /// # Errors
    ///
    /// Transport errors from [`UnixStream::connect`].
    pub fn connect(socket_path: impl AsRef<Path>) -> Result<Client, ClientError> {
        Ok(Client {
            stream: UnixStream::connect(socket_path)?,
            next_id: 1,
        })
    }

    fn call(&mut self, body: ReqBody) -> Result<OkBody, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request(&Request { id, body });
        write_frame(&mut self.stream, &frame)?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ))
        })?;
        let response = decode_response(&payload).map_err(ClientError::Protocol)?;
        if response.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                response.id
            )));
        }
        match response.body {
            RespBody::Ok(ok) => Ok(ok),
            RespBody::Err(e) => Err(ClientError::Server(e)),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or protocol failure.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(ReqBody::Ping)? {
            OkBody::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Compiles on the daemon.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries pipeline/frontend failures.
    pub fn compile(&mut self, req: CompileReq) -> Result<CompileResp, ClientError> {
        match self.call(ReqBody::Compile(req))? {
            OkBody::Compile(resp) => Ok(resp),
            other => Err(unexpected("compile response", &other)),
        }
    }

    /// Compiles and simulates (baseline + SPT) on the daemon.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries pipeline/simulation failures.
    pub fn sim(&mut self, req: SimReq) -> Result<SimResp, ClientError> {
        match self.call(ReqBody::Sim(req))? {
            OkBody::Sim(resp) => Ok(resp),
            other => Err(unexpected("sim response", &other)),
        }
    }

    /// Snapshots the daemon's global counters.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or protocol failure.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.call(ReqBody::Stats)? {
            OkBody::Stats(entries) => Ok(entries),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Asks the daemon to shut down; returns once it acknowledged.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or protocol failure.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(ReqBody::Shutdown)? {
            OkBody::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown ack", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &OkBody) -> ClientError {
    let kind = match got {
        OkBody::Pong => "pong",
        OkBody::Compile(_) => "compile response",
        OkBody::Sim(_) => "sim response",
        OkBody::Stats(_) => "stats",
        OkBody::ShuttingDown => "shutdown ack",
    };
    ClientError::Protocol(format!("expected {wanted}, daemon sent {kind}"))
}
