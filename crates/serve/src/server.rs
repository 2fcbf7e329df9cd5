//! The TCP front end: a resident `rpb-jobs-v1` server over the farm.
//!
//! Thread shape per the PPL farm skeleton: the accept loop plus each
//! connection's reader thread are the *emitters* (they turn frames into
//! [`Job`]s and push them through [`Farm::submit`]'s admission control)
//! and the farm's resident workers are the *workers*. There is no
//! collector: a reply is written by the thread that has it — the reader
//! for `stats`, parse errors, sheds and the shutdown ack, the farm worker
//! for a job's result, inside the job's `done` callback. Each frame is one
//! [`proto::write_frame`] call under the connection's write lock, so the
//! two never interleave mid-frame, and `WRITE_TIMEOUT` bounds how long
//! either can hold that lock.
//!
//! Shutdown is sleep-free and ordered:
//!
//! 1. the shutdown flag flips (a self-connect pokes the blocking accept
//!    loop, which re-checks the flag before handling anything),
//! 2. [`Farm::drain`] runs every already-admitted job and joins the
//!    workers, so every admitted reply has been written when it returns —
//!    submissions that race in behind it shed, typed,
//! 3. every open connection is shut down for *reading only*
//!    ([`Shutdown::Read`]), so blocked readers see a clean EOF, and every
//!    reader joins.

use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rpb_fearless::{pool, ExecMode};
use rpb_obs::{metrics, Json};
use rpb_suite::Scale;

use crate::datasets::Datasets;
use crate::farm::{Admission, Farm, FarmConfig, FarmStats, Job, Outcome};
use crate::jobs::{self, JobKind, ALL_KINDS};
use crate::proto::{self, Request, RequestKind};

/// How long one reply's write may block. A reply is written under its
/// connection's lock, by the reader or by a farm worker, so without a
/// bound one client that stops reading would hold that lock — and the
/// worker waiting on it, and with it the farm — for as long as it likes.
/// Rust rules out the data race on the socket, not the blocking. A write
/// that fails or outlasts this shuts its connection down both ways.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

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

/// A connection's write half. Every reply is one frame written under
/// this lock, see [`reply`].
type WriteHalf = Arc<Mutex<TcpStream>>;

struct ConnReg {
    /// The write half, held weakly so shutdown can close the read side of
    /// an open connection while one that has ended closes its socket at
    /// once instead of when the server joins.
    out: Weak<Mutex<TcpStream>>,
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
        // Drain first: every admitted job completes and its worker has
        // written its reply before any socket closes.
        let stats = self.shared.farm.drain();
        let conns: Vec<ConnReg> = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(|poison| poison.into_inner()),
        );
        // Read side only: blocked readers EOF.
        for out in conns.iter().filter_map(|conn| conn.out.upgrade()) {
            let socket = out.lock().unwrap_or_else(|poison| poison.into_inner());
            let _ = socket.shutdown(Shutdown::Read);
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
        let out = match stream.try_clone() {
            Ok(w) => Arc::new(Mutex::new(w)),
            Err(_) => continue,
        };
        let reg_out = Arc::downgrade(&out);
        let conn_shared = Arc::clone(&shared);
        let handle = match std::thread::Builder::new()
            .name("rpb-serve-conn".to_string())
            .spawn(move || handle_connection(stream, out, conn_shared))
        {
            Ok(h) => h,
            Err(_) => continue,
        };
        shared
            .conns
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .push(ConnReg {
                out: reg_out,
                handle,
            });
    }
}

/// Writes one reply frame under its connection's lock. A write that fails
/// or outlasts [`WRITE_TIMEOUT`] shuts the connection down both ways, so
/// its reader exits and later replies to it fail at once instead of
/// queuing. Returns whether the frame went out.
fn reply(out: &Mutex<TcpStream>, response: Json) -> bool {
    let text = response.to_string();
    let socket = out.lock().unwrap_or_else(|poison| poison.into_inner());
    let mut bounded = Deadline {
        socket: &socket,
        at: Instant::now() + WRITE_TIMEOUT,
    };
    let sent = proto::write_frame(&mut bounded, &text).is_ok();
    if !sent {
        let _ = socket.shutdown(Shutdown::Both);
    }
    sent
}

/// A socket whose `write` calls share one deadline. A socket timeout
/// alone bounds each call, and a client that stops reading still lets a
/// few bytes through now and then, so `write_all`'s next call would start
/// the clock again (the never-reads test was cut off after 6.8 s, not 2).
struct Deadline<'a> {
    socket: &'a TcpStream,
    at: Instant,
}

impl io::Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.socket.set_write_timeout(Some(left))?;
        self.socket.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One connection's reader: answers what it can itself and hands jobs to
/// the farm, whose worker writes their replies. It leaves on EOF or on a
/// reply it could not write.
fn handle_connection(stream: TcpStream, out: WriteHalf, shared: Arc<Shared>) {
    let mut reader = BufReader::new(stream);
    loop {
        let sent = match proto::read_frame(&mut reader) {
            // Clean EOF at a frame boundary: client done (or our own
            // read-side shutdown during teardown).
            Ok(None) => break,
            // Fatal framing break (truncated or oversized frame):
            // answer if the socket still can, then close.
            Err(e) => {
                metrics::SERVE_FRAMES_MALFORMED.add(1);
                reply(
                    &out,
                    proto::error_response(None, &format!("fatal framing error: {e}")),
                );
                break;
            }
            Ok(Some(payload)) => match Request::parse(&payload) {
                // Recoverable: typed error response, connection lives on.
                Err(e) => {
                    metrics::SERVE_FRAMES_MALFORMED.add(1);
                    reply(&out, proto::error_response(e.id, &e.message))
                }
                Ok(req) => match req.kind {
                    // Answered inline — stats must work even when the
                    // queue is at cap (that is when you want them).
                    RequestKind::Stats => {
                        reply(&out, proto::ok_response(req.id, stats_json(&shared)))
                    }
                    RequestKind::Shutdown => {
                        let ack = Json::Obj(vec![("stopping".to_string(), Json::Bool(true))]);
                        reply(&out, proto::ok_response(req.id, ack));
                        shared.request_shutdown();
                        break;
                    }
                    RequestKind::Job(kind, mode) => submit_job(&shared, &out, req.id, kind, mode),
                },
            },
        };
        if !sent {
            break;
        }
    }
}

/// Submits one job whose `done` writes its reply; answers a shed itself.
/// Returns whether every reply this call wrote went out.
fn submit_job(shared: &Shared, out: &WriteHalf, id: u64, kind: JobKind, mode: ExecMode) -> bool {
    let cfg = shared.farm.config();
    let data = Arc::clone(&shared.data);
    let job_out = Arc::clone(out);
    let verdict = shared.farm.submit(Job::new(
        id,
        kind,
        Box::new(move || jobs::run_job(kind, mode, cfg.backend, cfg.kernel_threads, &data)),
        Box::new(move |id, outcome| {
            let response = match outcome {
                Outcome::Ok(result) => proto::ok_response(id, result),
                Outcome::Error(m) => proto::error_response(Some(id), &m),
            };
            reply(&job_out, response);
        }),
    ));
    match verdict {
        Admission::Shed { depth, cap } => reply(out, proto::shed_response(id, depth, cap)),
        Admission::Admitted { .. } => true,
    }
}

/// The `stats` endpoint's body: farm admission counters, the
/// validation-pool counters (flat while no job validates at run time),
/// and per-endpoint SLO latency quantiles from the process-global
/// `rpb-obs` histograms (one sample per completed job of that kind).
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
    use std::io::Write as _;

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
            if let Some(out) = conns.first().and_then(|reg| reg.out.upgrade()) {
                assert!(out.lock().unwrap().nodelay().unwrap());
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

    #[test]
    fn reader_and_worker_replies_share_one_socket_frame_by_frame() {
        let _pool = crate::testutil::pool_lock();
        let server = tiny_server(2);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();

        // All of it pipelined before a byte is read: `Checked` jobs far past
        // the cap of 2, so the reader writes sheds while the worker writes
        // results, a `stats` after every fourth job, and one malformed frame.
        const JOBS: u64 = 48;
        let mut kinds = Vec::new();
        for i in 0..JOBS {
            kinds.push(RequestKind::Job(JobKind::Isort, ExecMode::Checked));
            if i % 4 == 3 {
                kinds.push(RequestKind::Stats);
            }
        }
        let requests = kinds.len();
        let mut pipelined = Vec::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            if i == requests / 2 {
                write_frame(&mut pipelined, "{not json").unwrap();
            }
            let req = Request {
                id: i as u64 + 1,
                kind,
            };
            write_frame(&mut pipelined, &req.to_json().to_string()).unwrap();
        }
        conn.write_all(&pipelined).unwrap();

        let mut answers = vec![0u32; requests + 1];
        let (mut unidentified, mut shed) = (0, 0);
        for _ in 0..=requests {
            let payload = read_frame(&mut conn).unwrap().expect("a reply frame");
            let doc = Json::parse(std::str::from_utf8(&payload).unwrap()).expect("frame parses");
            let (id, status, _) = proto::split_response(&doc).unwrap();
            match id {
                Some(id) => answers[id as usize] += 1,
                None => {
                    assert_eq!(status, "error");
                    unidentified += 1;
                }
            }
            shed += u64::from(status == "shed");
        }
        server.request_shutdown();
        let stats = server.join();
        // Nothing further: the drained server closed the socket.
        assert!(read_frame(&mut conn).unwrap().is_none());

        assert_eq!(answers[0], 0);
        assert!(answers[1..].iter().all(|&n| n == 1), "{answers:?}");
        assert_eq!(unidentified, 1);
        assert_eq!(stats.admitted + stats.shed, JOBS);
        assert_eq!((stats.completed, stats.shed), (stats.admitted, shed));
        // Both writers wrote.
        assert!(stats.completed > 0 && stats.shed > 0, "{stats:?}");
    }

    #[test]
    fn a_client_that_never_reads_is_cut_off_without_stalling_the_others() {
        let _pool = crate::testutil::pool_lock();
        let server = tiny_server(8);
        let addr = server.local_addr();
        let bound = WRITE_TIMEOUT + Duration::from_secs(3);

        // Sends `stats` and `hist` requests and reads nothing until a send
        // fails. Its own write timeout only ends the test if the server
        // never cuts it off, as a server with a reply queue would not.
        let flood = std::thread::spawn(move || {
            let mut stuck = TcpStream::connect(addr).unwrap();
            stuck.set_write_timeout(Some(bound)).unwrap();
            let start = Instant::now();
            for id in 1.. {
                let kind = match id % 8 {
                    0 => RequestKind::Job(JobKind::Hist, ExecMode::Checked),
                    _ => RequestKind::Stats,
                };
                let req = Request { id, kind }.to_json().to_string();
                if let Err(e) = write_frame(&mut stuck, &req) {
                    return (start.elapsed(), e.kind());
                }
                if start.elapsed() > bound {
                    break;
                }
            }
            (start.elapsed(), io::ErrorKind::TimedOut)
        });

        // Meanwhile another connection is served, each round trip within
        // the bound even while the worker waits on the stuck socket.
        let mut client = crate::load::Client::connect(&addr.to_string()).unwrap();
        let mut rounds = 0;
        while !flood.is_finished() {
            let start = Instant::now();
            client.stats().expect("stats answers");
            // The flood's jobs fill the queue; a shed is admission control
            // at work, so the job is asked for again until it runs.
            let status = loop {
                let resp = client
                    .call(RequestKind::Job(JobKind::Hist, ExecMode::Checked))
                    .expect("hist answers");
                if resp.status != "shed" {
                    break resp.status;
                }
            };
            assert_eq!(status, "ok");
            assert!(start.elapsed() < bound, "round took {:?}", start.elapsed());
            rounds += 1;
        }
        assert!(rounds > 0);

        let (elapsed, kind) = flood.join().unwrap();
        assert!(
            !matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "still not cut off after {elapsed:?}"
        );
        assert!(elapsed < bound, "cut off after {elapsed:?}");
        server.request_shutdown();
        let stats = server.join();
        assert_eq!(stats.admitted, stats.completed + stats.failed);
    }
}
