//! The TCP front end: a resident `rpb-jobs-v1` server over the farm.
//!
//! Thread shape per the PPL farm skeleton: the accept loop plus each
//! connection's reader thread are the *emitters* (they turn frames into
//! [`Job`]s and push them through [`Farm::submit`]'s admission control),
//! the farm's resident workers are the *workers*, and each connection's
//! writer thread is its *collector* — job `done` callbacks forward the
//! response frame into a per-connection channel the writer drains, so
//! responses from different jobs never interleave mid-frame and a slow
//! client never blocks a worker.
//!
//! Shutdown is sleep-free and ordered:
//!
//! 1. the shutdown flag flips (a self-connect pokes the blocking accept
//!    loop, which re-checks the flag before handling anything),
//! 2. [`Farm::drain`] runs every already-admitted job and joins the
//!    workers — submissions that race in behind it shed, typed,
//! 3. every connection socket is shut down for *reading only*
//!    ([`Shutdown::Read`]), so blocked readers see a clean EOF while
//!    writers keep flushing queued responses,
//! 4. readers drop their channel senders, writers drain and exit, and
//!    every connection thread joins.

use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use rpb_fearless::{pool, ExecMode};
use rpb_obs::{metrics, Json};
use rpb_suite::Scale;

use crate::datasets::Datasets;
use crate::farm::{self, Admission, Farm, FarmConfig, FarmStats, Job, Outcome};
use crate::jobs::{self, JobKind, ALL_KINDS};
use crate::proto::{self, Request, RequestKind};

/// Everything a server boot needs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (read it back
    /// from [`Server::local_addr`]).
    pub addr: String,
    /// Scale the datasets preload at.
    pub scale: Scale,
    /// Farm sizing (workers, queue cap, backend, pool width).
    pub farm: FarmConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scale: Scale::gate(),
            farm: FarmConfig::default(),
        }
    }
}

struct ConnReg {
    /// A clone of the connection socket, kept so shutdown can close its
    /// read side while the connection threads still own the originals.
    socket: TcpStream,
    handle: JoinHandle<()>,
}

struct Shared {
    farm: Farm,
    data: Arc<Datasets>,
    scale: Scale,
    local_addr: SocketAddr,
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
    conns: Mutex<Vec<ConnReg>>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        *self
            .shutdown
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Flips the shutdown flag and pokes the accept loop awake with a
    /// throwaway self-connection. Idempotent.
    fn request_shutdown(&self) {
        {
            let mut flag = self
                .shutdown
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            *flag = true;
        }
        self.shutdown_cv.notify_all();
        let _ = TcpStream::connect(self.local_addr);
    }

    fn wait_for_shutdown(&self) {
        let mut flag = self
            .shutdown
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        while !*flag {
            flag = self
                .shutdown_cv
                .wait(flag)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }
}

/// A running server. Dropping it without [`Server::join`] leaks the
/// resident threads; the CLI and tests always join.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, preloads the datasets (the expensive boot step), spawns the
    /// farm workers and the accept loop, and returns immediately.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            farm: Farm::new(cfg.farm),
            data: Arc::new(Datasets::preload(cfg.scale)),
            scale: cfg.scale,
            local_addr,
            shutdown: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("rpb-serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address (the real port when the config said `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The preloaded datasets (shared with every job).
    pub fn datasets(&self) -> Arc<Datasets> {
        Arc::clone(&self.shared.data)
    }

    /// Programmatic shutdown trigger — same path a wire `shutdown`
    /// request takes.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until shutdown is requested (by wire or programmatically),
    /// then runs the ordered teardown from the module docs and returns
    /// the farm's final statistics.
    pub fn join(mut self) -> FarmStats {
        self.shared.wait_for_shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Drain first: every admitted job completes and its response
        // frame reaches the connection channel before any socket closes.
        let stats = self.shared.farm.drain();
        let conns: Vec<ConnReg> = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(|poison| poison.into_inner()),
        );
        // Read side only: blocked readers EOF; writers keep flushing.
        for conn in &conns {
            let _ = conn.socket.shutdown(Shutdown::Read);
        }
        for conn in conns {
            let _ = conn.handle.join();
        }
        stats
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        // Checked before handling so the shutdown poke's own connection
        // (or any racing client) is dropped, not served.
        if shared.is_shutdown() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        metrics::SERVE_CONNS_ACCEPTED.add(1);
        // The transport contract (`proto` module docs): a response frame
        // never waits behind an un-ACKed predecessor.
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        let reg_socket = match stream.try_clone() {
            Ok(c) => c,
            Err(_) => continue,
        };
        let conn_shared = Arc::clone(&shared);
        let handle = match std::thread::Builder::new()
            .name("rpb-serve-conn".to_string())
            .spawn(move || handle_connection(stream, conn_shared))
        {
            Ok(h) => h,
            Err(_) => continue,
        };
        shared
            .conns
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .push(ConnReg {
                socket: reg_socket,
                handle,
            });
    }
}

/// One connection: this thread is the reader/emitter; it spawns the
/// writer/collector and joins it on the way out.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Json>();
    let writer = std::thread::Builder::new()
        .name("rpb-serve-writer".to_string())
        .spawn(move || writer_loop(write_half, rx));
    let writer = match writer {
        Ok(w) => w,
        Err(_) => return,
    };

    let mut reader = BufReader::new(stream);
    loop {
        match proto::read_frame(&mut reader) {
            // Clean EOF at a frame boundary: client done (or our own
            // read-side shutdown during teardown).
            Ok(None) => break,
            // Fatal framing break (truncated or oversized frame):
            // answer if the socket still can, then close.
            Err(e) => {
                metrics::SERVE_FRAMES_MALFORMED.add(1);
                let _ = tx.send(proto::error_response(
                    None,
                    &format!("fatal framing error: {e}"),
                ));
                break;
            }
            Ok(Some(payload)) => match Request::parse(&payload) {
                // Recoverable: typed error response, connection lives on.
                Err(e) => {
                    metrics::SERVE_FRAMES_MALFORMED.add(1);
                    let _ = tx.send(proto::error_response(e.id, &e.message));
                }
                Ok(req) => match req.kind {
                    RequestKind::Stats => {
                        // Answered inline — stats must work even when the
                        // queue is at cap (that is when you want them).
                        let _ = tx.send(proto::ok_response(req.id, stats_json(&shared)));
                    }
                    RequestKind::Shutdown => {
                        let ack = Json::Obj(vec![("stopping".to_string(), Json::Bool(true))]);
                        let _ = tx.send(proto::ok_response(req.id, ack));
                        shared.request_shutdown();
                        break;
                    }
                    RequestKind::Job(kind, mode) => {
                        submit_job(&shared, &tx, req.id, kind, mode);
                    }
                },
            },
        }
    }
    // Our sender drops here; in-flight jobs hold clones, so the writer
    // exits only after the last of their responses is flushed.
    drop(tx);
    let _ = writer.join();
}

fn submit_job(
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<Json>,
    id: u64,
    kind: JobKind,
    mode: ExecMode,
) {
    let cfg = shared.farm.config();
    let data = Arc::clone(&shared.data);
    let done_tx = tx.clone();
    let verdict = shared.farm.submit(Job::new(
        id,
        kind,
        Box::new(move || jobs::run_job(kind, mode, cfg.backend, cfg.kernel_threads, &data)),
        Box::new(move |id, outcome| {
            let response = match outcome {
                Outcome::Ok(result) => proto::ok_response(id, result),
                // Shed callbacks carry a marker; the verdict arm below
                // answers those with the richer typed shed frame.
                Outcome::Error(m) if m.starts_with(farm::SHED_PREFIX) => return,
                Outcome::Error(m) => proto::error_response(Some(id), &m),
            };
            let _ = done_tx.send(response);
        }),
    ));
    if let Admission::Shed { depth, cap } = verdict {
        let _ = tx.send(proto::shed_response(id, depth, cap));
    }
}

fn writer_loop(stream: TcpStream, rx: mpsc::Receiver<Json>) {
    let mut w = stream;
    while let Ok(response) = rx.recv() {
        if proto::write_frame(&mut w, &response.to_string()).is_err() {
            // Peer gone; keep draining so job senders never block (they
            // don't — the channel is unbounded — but exiting early would
            // also be fine. Draining keeps the accounting simple).
            for _ in rx.iter() {}
            return;
        }
    }
}

/// The `stats` endpoint's body: farm admission counters, the always-on
/// validation-pool counters (the zero-alloc evidence), and per-endpoint
/// SLO latency quantiles from the `rpb-obs` histograms (all zero without
/// the `obs` feature; the shape is stable either way).
fn stats_json(shared: &Shared) -> Json {
    let f = shared.farm.stats();
    let cfg = shared.farm.config();
    let p = pool::stats();
    let u = Json::from_u64;
    let endpoints: Vec<(String, Json)> = ALL_KINDS
        .iter()
        .map(|k| {
            let h = k.latency_histo().snapshot();
            (
                k.label().to_string(),
                Json::Obj(vec![
                    ("count".to_string(), u(h.count)),
                    ("p50_ns".to_string(), u(h.quantile_ns(0.50))),
                    ("p99_ns".to_string(), u(h.quantile_ns(0.99))),
                    ("max_ns".to_string(), u(h.max_ns)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        (
            "farm".to_string(),
            Json::Obj(vec![
                ("admitted".to_string(), u(f.admitted)),
                ("shed".to_string(), u(f.shed)),
                ("completed".to_string(), u(f.completed)),
                ("failed".to_string(), u(f.failed)),
                ("depth_hwm".to_string(), u(f.depth_hwm)),
                ("queue_cap".to_string(), u(cfg.queue_cap as u64)),
                ("workers".to_string(), u(cfg.workers as u64)),
                (
                    "backend".to_string(),
                    Json::Str(cfg.backend.label().to_string()),
                ),
            ]),
        ),
        (
            "pool".to_string(),
            Json::Obj(vec![
                ("hits".to_string(), u(p.hits)),
                ("misses".to_string(), u(p.misses)),
            ]),
        ),
        ("endpoints".to_string(), Json::Obj(endpoints)),
        (
            "scale".to_string(),
            Json::Obj(vec![
                ("seq_len".to_string(), u(shared.scale.seq_len as u64)),
                ("graph_n".to_string(), u(shared.scale.graph_n as u64)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame};
    use rpb_parlay::exec::BackendKind;

    fn tiny_server(queue_cap: usize) -> Server {
        Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scale: Scale {
                text_len: 100,
                seq_len: 600,
                graph_n: 80,
                points_n: 16,
            },
            farm: FarmConfig {
                backend: BackendKind::Rayon,
                workers: 1,
                kernel_threads: 1,
                queue_cap,
            },
        })
        .expect("server start")
    }

    fn roundtrip(stream: &mut TcpStream, req: &Request) -> Json {
        write_frame(stream, &req.to_json().to_string()).unwrap();
        let payload = read_frame(stream).unwrap().expect("response frame");
        Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap()
    }

    #[test]
    fn serves_jobs_stats_and_shutdown_over_tcp() {
        let _pool = crate::testutil::pool_lock();
        let server = tiny_server(8);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();

        let doc = roundtrip(
            &mut conn,
            &Request {
                id: 1,
                kind: RequestKind::Job(JobKind::Isort, ExecMode::Checked),
            },
        );
        let (id, status, body) = proto::split_response(&doc).unwrap();
        assert_eq!((id, status.as_str()), (Some(1), "ok"));
        assert!(body.get("digest").and_then(Json::as_u64).is_some());

        let doc = roundtrip(
            &mut conn,
            &Request {
                id: 2,
                kind: RequestKind::Stats,
            },
        );
        let (_, status, body) = proto::split_response(&doc).unwrap();
        assert_eq!(status, "ok");
        let farm = body.get("farm").expect("farm stats");
        assert_eq!(farm.get("completed").and_then(Json::as_u64), Some(1));

        let doc = roundtrip(
            &mut conn,
            &Request {
                id: 3,
                kind: RequestKind::Shutdown,
            },
        );
        let (_, status, body) = proto::split_response(&doc).unwrap();
        assert_eq!(status, "ok");
        assert_eq!(body.get("stopping"), Some(&Json::Bool(true)));

        let stats = server.join();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn malformed_frame_gets_typed_error_and_connection_survives() {
        let _pool = crate::testutil::pool_lock();
        let server = tiny_server(8);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();

        // Intact frames, broken requests: recoverable. The second would
        // overflow the 2 MiB connection thread without the JSON parser's
        // nesting bound.
        for (frame, reason) in [
            ("{definitely not json".to_string(), "bad JSON"),
            ("[".repeat(100_000), "bad JSON: nesting deeper than"),
        ] {
            write_frame(&mut conn, &frame).unwrap();
            let payload = read_frame(&mut conn).unwrap().expect("error frame");
            let doc = Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
            let (id, status, body) = proto::split_response(&doc).unwrap();
            assert_eq!((id, status.as_str()), (None, "error"));
            assert!(body.as_str().unwrap().starts_with(reason));
        }

        // The same connection still serves real work.
        let doc = roundtrip(
            &mut conn,
            &Request {
                id: 9,
                kind: RequestKind::Job(JobKind::Hist, ExecMode::Checked),
            },
        );
        let (id, status, _) = proto::split_response(&doc).unwrap();
        assert_eq!((id, status.as_str()), (Some(9), "ok"));

        server.request_shutdown();
        let stats = server.join();
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn accepted_sockets_have_nodelay_set() {
        let server = tiny_server(4);
        let _conn = TcpStream::connect(server.local_addr()).unwrap();
        // Until the accept loop has registered the connection.
        loop {
            let conns = server.shared.conns.lock().unwrap();
            if let Some(reg) = conns.first() {
                assert!(reg.socket.nodelay().unwrap());
                break;
            }
            drop(conns);
            std::thread::yield_now();
        }
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn stats_round_trips_carry_no_timer() {
        let server = tiny_server(4);
        let mut client = crate::load::Client::connect(&server.local_addr().to_string()).unwrap();
        // A frame split across two segments costs a delayed-ACK wait (~44 ms)
        // per direction: 50 round trips took 4.4 s. One segment per frame
        // makes them ~5 ms, so the limit has a 200x margin either way.
        let start = std::time::Instant::now();
        for _ in 0..50 {
            client.stats().unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "50 stats round trips took {elapsed:?}"
        );
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn programmatic_shutdown_drains_cleanly_with_no_traffic() {
        let server = tiny_server(4);
        server.request_shutdown();
        let stats = server.join();
        assert_eq!(stats, FarmStats::default());
    }
}
