//! The daemon: a bounded accept loop handing connections to named
//! session threads.
//!
//! The accept loop runs on a [`tpcp_par::Background`] thread and polls a
//! non-blocking listener, which keeps three signals on one code path:
//! shutdown (the flag set by the SHUTDOWN opcode or [`Server::stop`]),
//! SIGHUP-triggered hot reload (Unix), and new connections. Sessions are
//! std threads named `tpcp-session-N`; the accept loop refuses
//! connections past `max_sessions` with a `Busy` frame instead of
//! queueing unboundedly.
//!
//! Idle sessions wait in short `peek` timeouts so a shutdown is observed
//! within ~250 ms even with clients connected; once a frame starts
//! arriving the session switches to a long timeout to read it whole.
//!
//! # Pipelining
//!
//! Each session is a *pair* of threads: the reader (the session thread
//! itself) decodes frames off the socket and pushes them onto a bounded
//! in-flight queue; the evaluator pops them, routes, and writes the
//! responses back on a cloned handle of the same stream. Because the
//! queue is FIFO and a single evaluator drains it, responses always come
//! back in request order — a client may therefore write frame k+1
//! without waiting for response k, and the server decodes k+1 while k is
//! still being evaluated. The queue is bounded at [`PIPELINE_DEPTH`]
//! frames: a client that floods requests blocks in the kernel's socket
//! buffer rather than growing server memory. Frame-layer faults
//! (oversize, bad magic) are queued in-order too, so every response the
//! client sees before the close is correctly sequenced.

use crate::cache::QueryCache;
use crate::metrics::Metrics;
use crate::protocol::{
    read_frame, write_frame_versioned, Frame, Opcode, ProtoError, Status, MAX_REQUEST_PAYLOAD,
    MIN_VERSION,
};
use crate::registry::ModelRegistry;
use crate::router::{Router, SessionState};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Default listen address ([`ServeOptions::new`]); the daemon lets
/// `TPCP_SERVE_ADDR` and `--addr` override it.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// How long an idle session waits between shutdown-flag checks.
const IDLE_POLL: Duration = Duration::from_millis(250);
/// How long a session allows one frame to finish arriving.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);
/// Accept-loop sleep between polls when nothing is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Most frames a session holds decoded-but-unanswered (the pipelining
/// in-flight bound).
pub const PIPELINE_DEPTH: usize = 32;

/// Server construction options.
pub struct ServeOptions {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Directory of `*.2pcpm` model containers.
    pub models_dir: PathBuf,
    /// Maximum concurrent sessions before `Busy` refusals.
    pub max_sessions: usize,
    /// Query-cache capacity in responses (0 disables).
    pub cache_capacity: usize,
}

impl ServeOptions {
    /// Defaults: [`DEFAULT_ADDR`], 64 sessions, 1024 cached responses.
    pub fn new(models_dir: impl Into<PathBuf>) -> Self {
        ServeOptions {
            addr: DEFAULT_ADDR.to_string(),
            models_dir: models_dir.into(),
            max_sessions: 64,
            cache_capacity: 1024,
        }
    }
}

/// A running server; dropping it stops the accept loop and joins it.
pub struct Server {
    local_addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: Arc<ModelRegistry>,
    accept_loop: Option<tpcp_par::Background>,
}

impl Server {
    /// Binds, loads the registry, and starts accepting in the background.
    ///
    /// # Errors
    /// Bind failure, or a model directory from which nothing loads.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let registry = Arc::new(
            ModelRegistry::open(&opts.models_dir)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?,
        );
        Server::start_with_registry(opts, registry)
    }

    /// Like [`Server::start`] with an externally constructed registry
    /// (tests and benches share one).
    pub fn start_with_registry(
        opts: ServeOptions,
        registry: Arc<ModelRegistry>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        #[cfg(unix)]
        sighup::install();

        let router = Arc::new(Router {
            registry: registry.clone(),
            cache: Arc::new(QueryCache::new(opts.cache_capacity)),
            metrics: Arc::new(Metrics::new()),
        });
        let accept_shutdown = shutdown.clone();
        let max_sessions = opts.max_sessions;
        let accept_loop = tpcp_par::Background::spawn("tpcp-serve-accept", move || {
            accept_loop(listener, router, accept_shutdown, max_sessions);
        })?;

        Ok(Server {
            local_addr,
            shutdown,
            registry,
            accept_loop: Some(accept_loop),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The served registry (admin access: reload without a connection).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// `true` once a SHUTDOWN request (or [`Server::stop`]) was seen.
    pub fn is_stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests a stop without a connection.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the accept loop (and its sessions) exit.
    pub fn join(mut self) -> Result<(), String> {
        match self.accept_loop.take() {
            Some(bg) => bg.join(),
            None => Ok(()),
        }
    }

    /// Waits for a SHUTDOWN opcode to stop the server, then joins.
    pub fn serve_forever(self) -> Result<(), String> {
        while !self.is_stopping() {
            std::thread::sleep(IDLE_POLL);
        }
        self.join()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(bg) = self.accept_loop.take() {
            let _ = bg.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    router: Arc<Router>,
    shutdown: Arc<AtomicBool>,
    max_sessions: usize,
) {
    let active = Arc::new(AtomicUsize::new(0));
    let session_seq = AtomicU64::new(0);
    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        sessions.retain(|h| !h.is_finished());
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        #[cfg(unix)]
        if sighup::pending() {
            let (count, errors) = router.registry.reload();
            eprintln!(
                "tpcp-serve: SIGHUP reload — {count} model(s), {} error(s)",
                errors.len()
            );
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if active.load(Ordering::Acquire) >= max_sessions {
                    refuse_busy(stream);
                    continue;
                }
                active.fetch_add(1, Ordering::AcqRel);
                let router = router.clone();
                let shutdown = shutdown.clone();
                let session_active = active.clone();
                let id = session_seq.fetch_add(1, Ordering::Relaxed);
                let spawned = std::thread::Builder::new()
                    .name(format!("tpcp-session-{id}"))
                    .spawn(move || {
                        session_loop(stream, &router, &shutdown);
                        session_active.fetch_sub(1, Ordering::AcqRel);
                    });
                match spawned {
                    Ok(handle) => sessions.push(handle),
                    Err(_) => {
                        active.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Sessions watch the same flag; give them their poll interval to
    // notice, then join.
    for h in sessions {
        let _ = h.join();
    }
}

/// Over the session limit: answer every arriving frame's slot with one
/// `Busy` error and close. Written at [`MIN_VERSION`] so clients of any
/// protocol version can decode it.
fn refuse_busy(mut stream: TcpStream) {
    let mut payload = Vec::new();
    crate::protocol::enc::string(&mut payload, "session limit reached");
    let _ = write_frame_versioned(&mut stream, MIN_VERSION, 0, Status::Busy as u16, &payload);
}

/// One unit of in-flight session work, queued in request order.
enum SessionItem {
    /// A decoded request frame awaiting evaluation.
    Frame(Frame),
    /// A frame-layer fault: answer it in-order, then the session closes.
    Fault { status: Status, message: String },
}

/// A session: reader (this thread) + evaluator (spawned), joined on exit
/// so the accept loop's active count stays accurate.
fn session_loop(stream: TcpStream, router: &Arc<Router>, shutdown: &Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::sync_channel::<SessionItem>(PIPELINE_DEPTH);
    // Set by the evaluator when it exits (write failure, shutdown), so
    // the reader stops pulling frames nobody will answer.
    let done = Arc::new(AtomicBool::new(false));

    let eval_router = router.clone();
    let eval_shutdown = shutdown.clone();
    let eval_done = done.clone();
    let evaluator = std::thread::Builder::new()
        .name("tpcp-session-eval".into())
        .spawn(move || {
            evaluator_loop(write_half, rx, &eval_router, &eval_shutdown);
            eval_done.store(true, Ordering::Release);
        });
    let Ok(evaluator) = evaluator else {
        return;
    };
    reader_loop(stream, &tx, shutdown, &done);
    drop(tx); // EOF for the evaluator once the queue drains
    let _ = evaluator.join();
}

/// Decodes frames off the socket into the in-flight queue. The bounded
/// `send` blocks when [`PIPELINE_DEPTH`] frames are unanswered — that is
/// the pipelining backpressure.
fn reader_loop(
    mut stream: TcpStream,
    tx: &mpsc::SyncSender<SessionItem>,
    shutdown: &Arc<AtomicBool>,
    done: &Arc<AtomicBool>,
) {
    loop {
        // Idle wait: peek until a byte arrives so a frame is then read
        // whole under the long timeout (a timeout mid-`read_exact` would
        // desynchronise the stream).
        let mut probe = [0u8; 1];
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        match stream.peek(&mut probe) {
            Ok(0) => return, // orderly EOF
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::Acquire) || done.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let _ = stream.set_read_timeout(Some(FRAME_TIMEOUT));
        match read_frame(&mut stream, MAX_REQUEST_PAYLOAD) {
            Ok(frame) => {
                if tx.send(SessionItem::Frame(frame)).is_err() {
                    return; // evaluator gone
                }
            }
            // Frame-layer failures: queue one in-order fault answer, then
            // stop reading — the stream position is no longer trustworthy.
            Err(ProtoError::TooLarge { declared, cap }) => {
                let _ = tx.send(SessionItem::Fault {
                    status: Status::TooLarge,
                    message: format!("declared payload {declared} exceeds cap {cap}"),
                });
                return;
            }
            Err(ProtoError::BadMagic(_)) | Err(ProtoError::BadVersion(_)) => {
                let _ = tx.send(SessionItem::Fault {
                    status: Status::BadFrame,
                    message: "bad frame header".to_string(),
                });
                return;
            }
            Err(_) => return, // truncation / disconnect mid-frame
        }
    }
}

/// Routes queued frames and writes responses — single consumer, so
/// responses leave in exactly the order requests arrived.
fn evaluator_loop(
    mut stream: TcpStream,
    rx: mpsc::Receiver<SessionItem>,
    router: &Arc<Router>,
    shutdown: &Arc<AtomicBool>,
) {
    let mut session = SessionState::new();
    while let Ok(item) = rx.recv() {
        match item {
            SessionItem::Frame(frame) => {
                let resp = router.handle(&mut session, &frame);
                // Echo the request's protocol version so v1 clients get
                // v1 headers (and v1 bodies, chosen by the router).
                if write_frame_versioned(
                    &mut stream,
                    frame.version,
                    frame.opcode,
                    resp.status as u16,
                    &resp.payload,
                )
                .is_err()
                {
                    return;
                }
                if resp.shutdown {
                    shutdown.store(true, Ordering::Release);
                    return;
                }
            }
            SessionItem::Fault { status, message } => {
                let mut payload = Vec::new();
                crate::protocol::enc::string(&mut payload, &message);
                let _ = write_frame_versioned(
                    &mut stream,
                    MIN_VERSION,
                    Opcode::Ping as u8,
                    status as u16,
                    &payload,
                );
                return;
            }
        }
    }
}

/// Minimal SIGHUP plumbing: the handler only flips an atomic; the accept
/// loop does the actual reload outside signal context.
#[cfg(unix)]
mod sighup {
    use std::sync::atomic::{AtomicBool, Ordering};

    static PENDING: AtomicBool = AtomicBool::new(false);
    static INSTALLED: AtomicBool = AtomicBool::new(false);

    const SIGHUP: i32 = 1;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sighup(_: i32) {
        PENDING.store(true, Ordering::Release);
    }

    pub fn install() {
        if !INSTALLED.swap(true, Ordering::AcqRel) {
            // SAFETY: installing an async-signal-safe handler (it only
            // stores to an atomic) for SIGHUP.
            unsafe {
                signal(SIGHUP, on_sighup as *const () as usize);
            }
        }
    }

    pub fn pending() -> bool {
        PENDING.swap(false, Ordering::AcqRel)
    }
}
