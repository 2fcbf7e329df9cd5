//! The `rpb-jobs-v1` wire format: length-prefixed JSON frames.
//!
//! Framing: each message is a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON, capped at [`MAX_FRAME_BYTES`]. The
//! dependency-free [`rpb_obs::Json`] parser/writer does the document
//! work, keeping the workspace's offline dependency policy intact.
//!
//! Transport contract: **one frame → one `write` → one TCP segment**, on
//! both ends, always. [`write_frame`] hands the length prefix and the
//! payload to the socket as a single buffer, and both `server::accept_loop`
//! and `load::Client::connect` set `TCP_NODELAY`. Why: with Nagle's
//! algorithm on, a small segment sent while an earlier one is un-ACKed
//! waits for that ACK, and the peer's delayed-ACK timer holds the ACK
//! ~40 ms when it has nothing to send back. Prefix and body as two writes
//! hit exactly that — 44 ms per direction, 88 ms per request over a
//! sub-millisecond job. The single write removes the wait inside a frame;
//! `TCP_NODELAY` removes it between pipelined frames (bursts, the shed
//! path). No compiler check covers this: the reader/writer split is proved
//! race-free, and says nothing about two threads each waiting on the
//! other's timer.
//!
//! Error taxonomy (what satellite connections rely on):
//!
//! * **Recoverable** — a frame that arrived intact but does not parse as
//!   a valid `rpb-jobs-v1` request (bad UTF-8, bad JSON, wrong schema
//!   tag, missing fields, unknown kind/mode). The server answers with a
//!   typed `status: "error"` response and the connection *survives*.
//! * **Fatal** — the byte stream itself is broken (truncated frame, or a
//!   length prefix beyond the cap, after which resynchronization is
//!   guesswork). The server answers if it can, then closes.
//!
//! Requests: `{"schema":"rpb-jobs-v1","id":N,"kind":K[,"mode":M]}` where
//! `K` is a [`JobKind`] label or the control kinds `"stats"`/
//! `"shutdown"`. Responses echo `id` with `status` one of
//! `"ok"`/`"shed"`/`"error"`.

use std::io::{self, Read, Write};

use rpb_fearless::ExecMode;
use rpb_obs::Json;

use crate::jobs::JobKind;

/// Schema tag carried by every request and response.
pub const SCHEMA: &str = "rpb-jobs-v1";

/// Frame payload cap. A request is a few hundred bytes and a response a
/// few KiB; anything near the cap is a broken or hostile stream.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Writes one frame — length prefix and payload in a single `write_all`,
/// so the frame reaches a socket as one segment (see the module docs) —
/// and flushes.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds cap {MAX_FRAME_BYTES}",
                bytes.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF *at a frame boundary*
/// (the peer closed between messages); EOF mid-frame and oversized
/// length prefixes are errors (fatal — see the module docs).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first-byte read so EOF-before-anything is clean; a loop,
    // not recursion, so a signal storm cannot grow the stack.
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// What a request frame asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestKind {
    /// Run one benchmark job.
    Job(JobKind, ExecMode),
    /// Answer with server statistics (inline; never queued).
    Stats,
    /// Acknowledge, then drain and stop the server.
    Shutdown,
}

/// A parsed `rpb-jobs-v1` request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// What to do.
    pub kind: RequestKind,
}

/// A recoverable request-parse failure: the typed error message, plus
/// the request id when the frame was intact enough to carry one (so the
/// error response can still be correlated).
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Echoable id, if one parsed.
    pub id: Option<u64>,
    /// Human-readable rejection reason.
    pub message: String,
}

impl Request {
    /// Renders the request as a frame payload (client side).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".to_string(), Json::Str(SCHEMA.into())),
            ("id".to_string(), Json::from_u64(self.id)),
        ];
        match &self.kind {
            RequestKind::Job(kind, mode) => {
                fields.push(("kind".to_string(), Json::Str(kind.label().into())));
                fields.push(("mode".to_string(), Json::Str(mode.label().into())));
            }
            RequestKind::Stats => fields.push(("kind".to_string(), Json::Str("stats".into()))),
            RequestKind::Shutdown => {
                fields.push(("kind".to_string(), Json::Str("shutdown".into())))
            }
        }
        Json::Obj(fields)
    }

    /// Parses a frame payload into a request (server side).
    pub fn parse(payload: &[u8]) -> Result<Request, ParseError> {
        let fail = |id: Option<u64>, message: String| ParseError { id, message };
        let text = std::str::from_utf8(payload)
            .map_err(|_| fail(None, "frame payload is not UTF-8".into()))?;
        let doc = Json::parse(text).map_err(|e| fail(None, format!("bad JSON: {e}")))?;
        let id = doc.get("id").and_then(Json::as_u64);
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => {
                return Err(fail(
                    id,
                    format!("unknown schema \"{other}\" (expected \"{SCHEMA}\")"),
                ))
            }
            None => {
                return Err(fail(
                    id,
                    format!("missing \"schema\" (expected \"{SCHEMA}\")"),
                ))
            }
        }
        let id = id.ok_or_else(|| fail(None, "missing or non-integer \"id\"".into()))?;
        let kind_label = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| fail(Some(id), "missing \"kind\"".into()))?;
        let kind = match kind_label {
            "stats" => RequestKind::Stats,
            "shutdown" => RequestKind::Shutdown,
            label => {
                let job = JobKind::parse(label)
                    .ok_or_else(|| fail(Some(id), format!("unknown kind \"{label}\"")))?;
                let mode = match doc.get("mode").and_then(Json::as_str) {
                    None => job.default_mode(),
                    Some(m) => m
                        .parse::<ExecMode>()
                        .map_err(|e| fail(Some(id), format!("bad mode: {e}")))?,
                };
                RequestKind::Job(job, mode)
            }
        };
        Ok(Request { id, kind })
    }
}

/// `status: "ok"` response carrying a job result (or stats object).
pub fn ok_response(id: u64, result: Json) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("id".to_string(), Json::from_u64(id)),
        ("status".to_string(), Json::Str("ok".into())),
        ("result".to_string(), result),
    ])
}

/// `status: "shed"` response: admission control rejected the job. The
/// depth/cap pair tells the client *why* without it having to guess.
pub fn shed_response(id: u64, depth: usize, cap: usize) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("id".to_string(), Json::from_u64(id)),
        ("status".to_string(), Json::Str("shed".into())),
        (
            "error".to_string(),
            Json::Obj(vec![
                ("reason".to_string(), Json::Str("queue_full".into())),
                ("depth".to_string(), Json::from_u64(depth as u64)),
                ("cap".to_string(), Json::from_u64(cap as u64)),
            ]),
        ),
    ])
}

/// `status: "error"` response (job failure or malformed request). `id`
/// is `null` when the offending frame carried no parseable id.
pub fn error_response(id: Option<u64>, message: &str) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("id".to_string(), id.map_or(Json::Null, Json::from_u64)),
        ("status".to_string(), Json::Str("error".into())),
        ("error".to_string(), Json::Str(message.into())),
    ])
}

/// Client-side response splitter: `(id, status, body)` where body is the
/// `result` for `"ok"` and the `error` value otherwise.
pub fn split_response(doc: &Json) -> Result<(Option<u64>, String, Json), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("response schema {other:?} is not \"{SCHEMA}\"")),
    }
    let status = doc
        .get("status")
        .and_then(Json::as_str)
        .ok_or("response missing \"status\"")?
        .to_string();
    let id = doc.get("id").and_then(Json::as_u64);
    let body = match status.as_str() {
        "ok" => doc.get("result").cloned().unwrap_or(Json::Null),
        _ => doc.get("error").cloned().unwrap_or(Json::Null),
    };
    Ok((id, status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"second");
        // Clean EOF at the boundary.
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn truncated_and_oversized_frames_are_fatal() {
        // Length prefix promises 100 bytes; only 3 arrive.
        let mut buf = 100u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut Cursor::new(buf)).is_err());

        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
        let err = read_frame(&mut Cursor::new(huge)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Records the size of every `write` call it receives.
    struct CountingWriter {
        writes: Vec<usize>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_exactly_one_write() {
        let mut w = CountingWriter { writes: Vec::new() };
        let payload = "{\"schema\":\"rpb-jobs-v1\",\"id\":1,\"kind\":\"stats\"}";
        write_frame(&mut w, payload).unwrap();
        assert_eq!(w.writes, [4 + payload.len()]);
        write_frame(&mut w, "").unwrap();
        assert_eq!(w.writes, [4 + payload.len(), 4]);

        // Over the cap: rejected before a single byte leaves.
        let mut w = CountingWriter { writes: Vec::new() };
        let err = write_frame(&mut w, &"x".repeat(MAX_FRAME_BYTES + 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(w.writes.is_empty());
        // At the cap: still one write.
        write_frame(&mut w, &"x".repeat(MAX_FRAME_BYTES)).unwrap();
        assert_eq!(w.writes, [4 + MAX_FRAME_BYTES]);
    }

    /// Fails with `Interrupted` a set number of times, then reads through.
    struct InterruptedReader {
        interrupts_left: usize,
        inner: Cursor<Vec<u8>>,
    }

    impl Read for InterruptedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupts_left > 0 {
                self.interrupts_left -= 1;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.inner.read(buf)
        }
    }

    #[test]
    fn interrupted_reads_are_retried_without_recursion() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "payload").unwrap();
        // Deep enough that one stack frame per interrupt would overflow.
        let mut r = InterruptedReader {
            interrupts_left: 1_000_000,
            inner: Cursor::new(buf),
        };
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"payload");
        assert_eq!(r.interrupts_left, 0);
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        for kind in [
            RequestKind::Job(JobKind::Isort, ExecMode::Checked),
            RequestKind::Job(JobKind::Bfs, ExecMode::Sync),
            RequestKind::Stats,
            RequestKind::Shutdown,
        ] {
            let req = Request { id: 7, kind };
            let parsed = Request::parse(req.to_json().to_string().as_bytes()).unwrap();
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn default_mode_is_checked() {
        let req = Request::parse(
            format!("{{\"schema\":\"{SCHEMA}\",\"id\":1,\"kind\":\"sort\"}}").as_bytes(),
        )
        .unwrap();
        assert_eq!(req.kind, RequestKind::Job(JobKind::Sort, ExecMode::Checked));
    }

    #[test]
    fn malformed_requests_are_typed_and_keep_the_id_when_possible() {
        // Bad JSON: no id recoverable.
        let err = Request::parse(b"{nope").unwrap_err();
        assert_eq!(err.id, None);
        assert!(err.message.contains("bad JSON"));

        // Hostile nesting: the parser's depth bound, not a stack overflow.
        let err = Request::parse("[".repeat(100_000).as_bytes()).unwrap_err();
        assert_eq!(err.id, None);
        assert!(err.message.starts_with("bad JSON: nesting deeper than"));

        // Valid JSON, wrong schema: id recovered for correlation.
        let err = Request::parse(b"{\"schema\":\"rpb-jobs-v9\",\"id\":42}").unwrap_err();
        assert_eq!(err.id, Some(42));
        assert!(err.message.contains("rpb-jobs-v9"));

        // Unknown kind and bad mode keep the id too.
        let err = Request::parse(
            format!("{{\"schema\":\"{SCHEMA}\",\"id\":5,\"kind\":\"quicksort\"}}").as_bytes(),
        )
        .unwrap_err();
        assert_eq!((err.id, err.message.contains("quicksort")), (Some(5), true));
        let err = Request::parse(
            format!("{{\"schema\":\"{SCHEMA}\",\"id\":6,\"kind\":\"sort\",\"mode\":\"yolo\"}}")
                .as_bytes(),
        )
        .unwrap_err();
        assert_eq!(err.id, Some(6));
    }

    #[test]
    fn responses_split_by_status() {
        let ok = ok_response(3, Json::from_u64(9));
        let (id, status, body) = split_response(&ok).unwrap();
        assert_eq!(
            (id, status.as_str(), body.as_u64()),
            (Some(3), "ok", Some(9))
        );

        let shed = shed_response(4, 8, 8);
        let (id, status, body) = split_response(&shed).unwrap();
        assert_eq!((id, status.as_str()), (Some(4), "shed"));
        assert_eq!(
            body.get("reason").and_then(Json::as_str),
            Some("queue_full")
        );
        assert_eq!(body.get("cap").and_then(Json::as_u64), Some(8));

        let err = error_response(None, "boom");
        let (id, status, body) = split_response(&err).unwrap();
        assert_eq!((id, status.as_str()), (None, "error"));
        assert_eq!(body.as_str(), Some("boom"));
    }
}
