//! The bundled load generator: a blocking `rpb-jobs-v1` client, a paced/
//! burst load driver (`rpb load`), and the end-to-end self-test behind
//! `rpb serve --self-test` — the single command CI's serve-smoke job runs.
//!
//! The self-test boots a real server on an ephemeral loopback port and
//! drives it through the full contract: paced warmup, a steady phase that
//! must run no run-time validation at all (the built-in jobs scatter
//! through producer proofs, so the validation pool's hits and misses both
//! stay flat) and record one latency sample per job on its endpoint, an
//! over-admission burst that
//! must *shed* — typed responses, never a hang or an unbounded backlog —
//! a malformed-frame probe the connection must survive, and a clean drain
//! whose final accounting balances.

use std::io::{self, BufReader, Write as _};
use std::net::TcpStream;

use rpb_obs::Json;
use rpb_parlay::exec::BackendKind;
use rpb_suite::Scale;

use crate::farm::FarmConfig;
use crate::jobs::ALL_KINDS;
use crate::proto::{self, Request, RequestKind};
use crate::server::{Server, ServerConfig};
use crate::trace;

/// A blocking `rpb-jobs-v1` client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

/// One response, split into its correlated parts.
#[derive(Clone, Debug)]
pub struct Response {
    /// Echoed request id (`None` on uncorrelatable error frames).
    pub id: Option<u64>,
    /// `"ok"`, `"shed"`, or `"error"`.
    pub status: String,
    /// The `result` body for `"ok"`, the `error` value otherwise.
    pub body: Json,
}

impl Client {
    /// Connects to a server, with `TCP_NODELAY` set (the transport
    /// contract in the `proto` module docs).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends a request frame without waiting for the response (the burst
    /// path). Returns the id it was sent under.
    pub fn send(&mut self, kind: RequestKind) -> io::Result<u64> {
        let id = self.fresh_id();
        let req = Request { id, kind };
        proto::write_frame(&mut self.writer, &req.to_json().to_string())?;
        Ok(id)
    }

    /// Sends raw bytes as one frame — the malformed-request probe.
    pub fn send_raw(&mut self, payload: &str) -> io::Result<()> {
        proto::write_frame(&mut self.writer, payload)
    }

    /// Reads and splits the next response frame.
    pub fn recv(&mut self) -> Result<Response, String> {
        let payload = proto::read_frame(&mut self.reader)
            .map_err(|e| format!("read: {e}"))?
            .ok_or("server closed the connection")?;
        let text = std::str::from_utf8(&payload).map_err(|e| format!("non-UTF-8 frame: {e}"))?;
        let doc = Json::parse(text).map_err(|e| format!("bad response JSON: {e}"))?;
        let (id, status, body) = proto::split_response(&doc)?;
        Ok(Response { id, status, body })
    }

    /// Request/response round trip, with id correlation checked.
    pub fn call(&mut self, kind: RequestKind) -> Result<Response, String> {
        let id = self.send(kind).map_err(|e| format!("send: {e}"))?;
        let resp = self.recv()?;
        if resp.id != Some(id) {
            return Err(format!(
                "response id {:?} does not match request {id}",
                resp.id
            ));
        }
        Ok(resp)
    }

    /// Stats round trip, returning the body object.
    pub fn stats(&mut self) -> Result<Json, String> {
        let resp = self.call(RequestKind::Stats)?;
        if resp.status != "ok" {
            return Err(format!("stats returned status {}", resp.status));
        }
        Ok(resp.body)
    }
}

/// `rpb load` configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Paced (request/response) jobs to run.
    pub jobs: usize,
    /// Pipelined burst jobs to fire without reading in between.
    pub burst: usize,
    /// Send a shutdown request when done.
    pub shutdown: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 18,
            burst: 64,
            shutdown: false,
        }
    }
}

/// What one load run observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadReport {
    /// `status: "ok"` responses.
    pub ok: u64,
    /// `status: "shed"` responses (admission control working).
    pub shed: u64,
    /// `status: "error"` responses.
    pub errors: u64,
}

impl LoadReport {
    fn count(&mut self, status: &str) {
        match status {
            "ok" => self.ok += 1,
            "shed" => self.shed += 1,
            _ => self.errors += 1,
        }
    }

    /// JSON form for artifacts and stdout.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ok".to_string(), Json::from_u64(self.ok)),
            ("shed".to_string(), Json::from_u64(self.shed)),
            ("errors".to_string(), Json::from_u64(self.errors)),
        ])
    }
}

/// The pinned `(kind, mode)` rotation load runs use — same one as the
/// deterministic gate traces, so digests line up across tools.
fn rotation(i: usize) -> RequestKind {
    let (kind, mode) = trace::trace_job(i);
    RequestKind::Job(kind, mode)
}

/// Paced phase: request/response one at a time; nothing should shed.
pub fn run_paced(client: &mut Client, jobs: usize) -> Result<LoadReport, String> {
    let mut report = LoadReport::default();
    for i in 0..jobs {
        let resp = client.call(rotation(i))?;
        report.count(&resp.status);
    }
    Ok(report)
}

/// Burst phase: fire `burst` requests without reading a single response,
/// then collect them all. With `burst` well past the queue cap and jobs
/// that cost far more than a frame write, admission control *must* shed —
/// and must answer every request either way (no hang, no lost frame).
pub fn run_burst(client: &mut Client, burst: usize) -> Result<LoadReport, String> {
    let mut report = LoadReport::default();
    for i in 0..burst {
        client.send(rotation(i)).map_err(|e| format!("send: {e}"))?;
    }
    for _ in 0..burst {
        let resp = client.recv()?;
        report.count(&resp.status);
    }
    Ok(report)
}

/// The `rpb load` entry point: paced phase, then burst phase, then an
/// optional shutdown. Returns the merged report.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let mut client =
        Client::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;
    let paced = run_paced(&mut client, cfg.jobs)?;
    let burst = run_burst(&mut client, cfg.burst)?;
    if cfg.shutdown {
        let resp = client.call(RequestKind::Shutdown)?;
        if resp.status != "ok" {
            return Err(format!("shutdown returned status {}", resp.status));
        }
    }
    Ok(LoadReport {
        ok: paced.ok + burst.ok,
        shed: paced.shed + burst.shed,
        errors: paced.errors + burst.errors,
    })
}

/// One named check of the self-test.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Check name (stable, artifact-keyed).
    pub name: &'static str,
    /// Did it hold?
    pub passed: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// The self-test's full outcome.
#[derive(Clone, Debug, Default)]
pub struct SelfTestReport {
    /// Every check, in execution order.
    pub checks: Vec<CheckResult>,
}

impl SelfTestReport {
    fn check(&mut self, name: &'static str, passed: bool, detail: String) -> bool {
        self.checks.push(CheckResult {
            name,
            passed,
            detail,
        });
        passed
    }

    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// JSON form (the CI artifact).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("passed".to_string(), Json::Bool(self.passed())),
            (
                "checks".to_string(),
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::Str(c.name.to_string())),
                                ("passed".to_string(), Json::Bool(c.passed)),
                                ("detail".to_string(), Json::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The validation pool's `(hits, misses)` in a `stats` body, if it has
/// both: a marking validation counts one of them.
fn pool_traffic(stats: &Json) -> Option<(u64, u64)> {
    let count = |key| stats.get("pool")?.get(key)?.as_u64();
    Some((count("hits")?, count("misses")?))
}

/// The latency sample count of every endpoint in a `stats` body, in
/// [`ALL_KINDS`] order (`u64::MAX` for one the body lacks).
fn latency_counts(stats: &Json) -> Vec<u64> {
    ALL_KINDS
        .iter()
        .map(|k| {
            stats
                .get("endpoints")
                .and_then(|e| e.get(k.label()))
                .and_then(|e| e.get("count"))
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX)
        })
        .collect()
}

/// Sizing of the self-test server: one worker with a 1-wide resident
/// pool and a cap-8 queue — small enough that the burst phase reliably
/// over-runs admission, realistic enough that every layer is exercised.
pub fn self_test_config(backend: BackendKind, scale: Scale) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scale,
        farm: FarmConfig {
            backend,
            ..FarmConfig::default()
        },
    }
}

/// Boots a server in-process and drives the whole serve contract through
/// a real socket. Returns the report; the caller decides the exit code.
pub fn self_test(backend: BackendKind, scale: Scale) -> Result<SelfTestReport, String> {
    let mut report = SelfTestReport::default();
    let server = Server::start(self_test_config(backend, scale))
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;

    // Warmup: one paced job of each kind primes the validation pool and
    // every lazy initialization. All six must come back ok.
    let warm = run_paced(&mut client, 6)?;
    report.check(
        "warmup_all_ok",
        warm.ok == 6 && warm.shed == 0 && warm.errors == 0,
        format!("{warm:?}"),
    );

    // Steady phase: paced traffic must neither shed nor error, and must
    // not validate at run time — the `Checked` jobs scatter through the
    // proofs of their counting pass, so the validation pool, which every
    // marking check draws on, sees neither a hit nor a miss across the
    // phase. (`stats` reports no sort-strategy checks; the pinned steady
    // trace's unit test counts every validated offset.)
    const STEADY: usize = 18;
    let before = client.stats()?;
    let steady = run_paced(&mut client, STEADY)?;
    let after = client.stats()?;
    let (pool_before, pool_after) = (pool_traffic(&before), pool_traffic(&after));
    report.check(
        "steady_all_ok",
        steady.ok == STEADY as u64 && steady.shed == 0 && steady.errors == 0,
        format!("{steady:?}"),
    );
    report.check(
        "steady_no_run_time_validation",
        pool_before.is_some() && pool_after == pool_before,
        format!("pool (hits, misses) {pool_before:?} -> {pool_after:?}"),
    );
    // Every steady job is one sample of its endpoint's latency histogram,
    // the one `stats` reads its quantiles from.
    let jobs: Vec<u64> = ALL_KINDS
        .iter()
        .map(|&k| (0..STEADY).filter(|&i| trace::trace_job(i).0 == k).count() as u64)
        .collect();
    let samples: Vec<u64> = latency_counts(&after)
        .iter()
        .zip(latency_counts(&before))
        .map(|(a, b)| a.wrapping_sub(b))
        .collect();
    report.check(
        "latency_recorded",
        samples == jobs,
        format!("samples {samples:?} for jobs {jobs:?}"),
    );

    // Burst phase: 64 pipelined requests against a cap-8 queue. Admission
    // control must shed (not hang, not queue unboundedly) and still
    // answer every frame.
    let burst = run_burst(&mut client, 64)?;
    report.check(
        "burst_sheds",
        burst.shed > 0 && burst.errors == 0,
        format!("{burst:?}"),
    );
    report.check(
        "burst_answers_everything",
        burst.ok + burst.shed + burst.errors == 64,
        format!("{} responses", burst.ok + burst.shed + burst.errors),
    );

    // Malformed frame: typed error, and the same connection keeps
    // serving afterwards.
    client
        .send_raw("{broken")
        .map_err(|e| format!("probe send: {e}"))?;
    let err_resp = client.recv()?;
    report.check(
        "malformed_frame_typed_error",
        err_resp.status == "error" && err_resp.id.is_none(),
        format!("status {} id {:?}", err_resp.status, err_resp.id),
    );
    let after = client.call(rotation(0))?;
    report.check(
        "connection_survives_malformed_frame",
        after.status == "ok",
        format!("status {}", after.status),
    );

    // Clean shutdown: acked, drained, and the books balance.
    let ack = client.call(RequestKind::Shutdown)?;
    report.check(
        "shutdown_acked",
        ack.status == "ok",
        format!("status {}", ack.status),
    );
    let stats = server.join();
    report.check(
        "drain_balances",
        stats.admitted == stats.completed + stats.failed && stats.failed == 0,
        format!("{stats:?}"),
    );
    report.check(
        "shed_accounted",
        stats.shed == burst.shed,
        format!("farm shed {} vs client shed {}", stats.shed, burst.shed),
    );
    Ok(report)
}

/// Runs the self-test and writes the JSON artifact when asked. Returns
/// the process exit code.
pub fn run_self_test(backend: BackendKind, scale: Scale, artifact: Option<&str>) -> i32 {
    let report = match self_test(backend, scale) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serve self-test aborted: {e}");
            return 1;
        }
    };
    for c in &report.checks {
        println!(
            "{} {} ({})",
            if c.passed { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    if let Some(path) = artifact {
        if let Err(e) = write_artifact(path, &report.to_json()) {
            eprintln!("cannot write artifact {path}: {e}");
            return 1;
        }
        println!("artifact written to {path}");
    }
    if report.passed() {
        println!("serve self-test: all {} checks passed", report.checks.len());
        0
    } else {
        eprintln!("serve self-test: FAILED");
        1
    }
}

fn write_artifact(path: &str, doc: &Json) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{doc}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            text_len: 100,
            seq_len: 600,
            graph_n: 80,
            points_n: 16,
        }
    }

    #[test]
    fn self_test_passes_end_to_end() {
        let _pool = crate::testutil::pool_lock();
        let report = self_test(BackendKind::Rayon, tiny_scale()).expect("self-test runs");
        for c in &report.checks {
            assert!(c.passed, "{}: {}", c.name, c.detail);
        }
    }

    #[test]
    fn client_connects_with_nodelay_set() {
        let server = Server::start(self_test_config(BackendKind::Rayon, tiny_scale())).unwrap();
        let client = Client::connect(&server.local_addr().to_string()).unwrap();
        assert!(client.writer.nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn load_driver_counts_and_shuts_down() {
        let _pool = crate::testutil::pool_lock();
        let server = Server::start(self_test_config(BackendKind::Rayon, tiny_scale())).unwrap();
        let cfg = LoadConfig {
            addr: server.local_addr().to_string(),
            jobs: 6,
            burst: 24,
            shutdown: true,
        };
        let report = run_load(&cfg).expect("load run");
        assert_eq!(report.errors, 0);
        assert_eq!(report.ok + report.shed, 30);
        assert!(report.ok >= 6, "paced jobs all complete: {report:?}");
        let stats = server.join();
        assert_eq!(stats.admitted, stats.completed);
    }
}
