//! The daemon's socket front end: accept loop, per-connection readers, and
//! the bounded worker pool that executes requests.
//!
//! Thread layout, all owned by one [`ServerHandle`]:
//!
//! * **accept thread** — `accept()`s on the Unix listener, registers each
//!   connection and spawns its reader;
//! * **reader threads** (one per connection) — decode frames into jobs on
//!   the shared queue; a malformed frame earns an immediate error response
//!   and the connection keeps going;
//! * **worker threads** (`workers` of them, defaulting to
//!   [`spt_core::parallel::thread_count`]) — pop jobs, run them through
//!   [`CompileService::execute`] inside `catch_unwind`, and write the
//!   response frame under the connection's write lock (responses from
//!   different workers interleave per frame, never within one).
//!
//! A panicking request — whether from the `serve::request` fail point or a
//! real bug — is contained by the worker's `catch_unwind`: that request gets
//! an error response, the worker survives, and every other in-flight request
//! is untouched.
//!
//! Shutdown (a `Shutdown` request, or [`ServerHandle::shutdown`]) flips the
//! stop flag, `shutdown(2)`s every registered connection so blocked readers
//! unblock, self-connects once so the accept loop notices, and wakes the
//! workers; [`ServerHandle::join`] then reaps every thread and removes the
//! socket file, so a cleanly stopped daemon leaks neither a process nor a
//! socket.

use std::collections::VecDeque;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::proto::{
    decode_request, encode_response, read_frame, write_frame, ReqBody, Request, RespBody, Response,
};
use crate::service::CompileService;

struct Job {
    conn: Arc<Mutex<UnixStream>>,
    request: Request,
}

struct Shared {
    service: Arc<CompileService>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    stopping: AtomicBool,
    socket_path: PathBuf,
    conns: Mutex<Vec<Arc<Mutex<UnixStream>>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Flips the stop flag and unblocks every parked thread: readers via
    /// connection shutdown, the accept loop via a throwaway self-connect,
    /// workers via the queue condvar. Idempotent.
    fn stop(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        for conn in lock(&self.conns).iter() {
            let _ = lock(conn).shutdown(std::net::Shutdown::Both);
        }
        let _ = UnixStream::connect(&self.socket_path);
        self.queue_cv.notify_all();
    }
}

/// A running daemon: the listener plus its accept, reader, and worker
/// threads. Dropping the handle without [`ServerHandle::join`] detaches the
/// threads (the process-level `sptd` always joins).
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds `socket_path` and starts serving `service` on `workers` worker
/// threads (0 = [`spt_core::parallel::thread_count`]).
///
/// # Errors
///
/// Fails if the socket cannot be bound — including when the path already
/// exists, which usually means another daemon is (or died) there; refusing
/// to steal it beats silently orphaning a live instance.
pub fn serve(
    service: Arc<CompileService>,
    socket_path: impl Into<PathBuf>,
    workers: usize,
) -> io::Result<ServerHandle> {
    let socket_path = socket_path.into();
    let listener = UnixListener::bind(&socket_path)?;
    let workers = if workers == 0 {
        spt_core::parallel::thread_count()
    } else {
        workers
    };
    let shared = Arc::new(Shared {
        service,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        stopping: AtomicBool::new(false),
        socket_path,
        conns: Mutex::new(Vec::new()),
        readers: Mutex::new(Vec::new()),
    });

    let accept = {
        let shared = shared.clone();
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    let worker_handles = (0..workers)
        .map(|_| {
            let shared = shared.clone();
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers: worker_handles,
    })
}

impl ServerHandle {
    /// The path the daemon is listening on.
    pub fn socket_path(&self) -> &std::path::Path {
        &self.shared.socket_path
    }

    /// Initiates shutdown without waiting (a client `Shutdown` request does
    /// the same from inside).
    pub fn shutdown(&self) {
        self.shared.stop();
    }

    /// Waits for the daemon to stop — until a `Shutdown` request arrives or
    /// [`ServerHandle::shutdown`] is called — then reaps every thread and
    /// removes the socket file.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        loop {
            let Some(reader) = lock(&self.shared.readers).pop() else {
                break;
            };
            let _ = reader.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let _ = std::fs::remove_file(&self.shared.socket_path);
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

fn accept_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let conn = Arc::new(Mutex::new(write_half));
        lock(&shared.conns).push(conn.clone());
        let shared2 = shared.clone();
        let reader = std::thread::spawn(move || reader_loop(stream, &conn, &shared2));
        lock(&shared.readers).push(reader);
    }
}

fn reader_loop(mut stream: UnixStream, conn: &Arc<Mutex<UnixStream>>, shared: &Arc<Shared>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            // Clean close, read error, or our own shutdown(2): either way
            // this connection is done.
            Ok(None) | Err(_) => return,
        };
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        match decode_request(&payload) {
            Ok(request) => {
                let mut queue = lock(&shared.queue);
                queue.push_back(Job {
                    conn: conn.clone(),
                    request,
                });
                drop(queue);
                shared.queue_cv.notify_one();
            }
            Err(e) => {
                // The frame boundary is intact, so the connection can keep
                // going; only this request is lost. Id 0: an undecodable
                // request has no trustworthy id.
                respond(
                    conn,
                    &Response {
                        id: 0,
                        body: RespBody::Err(format!("bad request: {e}")),
                    },
                );
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.stopping.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        let is_shutdown = matches!(job.request.body, ReqBody::Shutdown);
        let body = catch_unwind(AssertUnwindSafe(|| {
            spt_core::fail_point!("serve::request", kind_name(&job.request.body));
            shared.service.execute(&job.request.body)
        }))
        .unwrap_or_else(|_| {
            RespBody::Err(format!(
                "internal: request handler panicked (kind {})",
                kind_name(&job.request.body)
            ))
        });
        respond(
            &job.conn,
            &Response {
                id: job.request.id,
                body,
            },
        );
        if is_shutdown {
            shared.stop();
        }
    }
}

fn respond(conn: &Arc<Mutex<UnixStream>>, response: &Response) {
    let payload = encode_response(response);
    // A write error means the client went away; nothing to do but drop the
    // response.
    let _ = write_frame(&mut *lock(conn), &payload);
}

fn kind_name(body: &ReqBody) -> &'static str {
    match body {
        ReqBody::Ping => "ping",
        ReqBody::Compile(_) => "compile",
        ReqBody::Sim(_) => "sim",
        ReqBody::Stats => "stats",
        ReqBody::Shutdown => "shutdown",
    }
}
