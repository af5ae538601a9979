//! The `pml-serve/v1` wire protocol: newline-delimited JSON frames.
//!
//! One request per line, one reply per line, strictly in order. Every
//! frame carries the protocol version (`"v": "pml-serve/v1"`) so a client
//! and daemon from different builds fail loudly instead of misparsing each
//! other, and an optional `"id"` the reply echoes so clients may pipeline.
//!
//! The contract that matters: **a bad frame is answered, never dropped**.
//! Malformed JSON, a missing version, an unknown op, a bad field — each
//! maps to a typed error reply (`{"ok": false, "error": {"kind": ...}}`)
//! on the same connection, which stays open. Only EOF or a transport error
//! closes a connection.
//!
//! Request frames:
//!
//! ```text
//! {"v":"pml-serve/v1","id":1,"op":"select","collective":"alltoall","nodes":4,"ppn":8,"msg_size":1024}
//! {"v":"pml-serve/v1","id":2,"op":"predict","cluster":"Frontera","collective":"allgather","nodes":16,"ppn":56,"msg_size":4096}
//! {"v":"pml-serve/v1","id":3,"op":"ping"}
//! {"v":"pml-serve/v1","id":4,"op":"stats"}
//! {"v":"pml-serve/v1","id":5,"op":"watch","interval_ms":1000,"count":3}
//! {"v":"pml-serve/v1","id":6,"op":"shutdown"}
//! ```
//!
//! `select` answers from the pre-computed tuning tables (the indexed,
//! constant-time path); `predict` runs the pre-trained forest through the
//! request batcher for job shapes no table covers. `watch` streams
//! periodic live-observability snapshots (windowed stage latencies, SLO
//! burn rate, selection-quality monitor) as one `ok` frame per tick:
//! `count` frames at `interval_ms` spacing, `count: 0` meaning "until the
//! connection closes".

use pml_collectives::{Algorithm, Collective};
use pml_core::{FallbackDepth, JobConfig};
use serde::Value;
use serde_json::Reader;
use std::borrow::Cow;
use std::io::Write;

/// The frame version this build speaks.
pub const PROTOCOL_VERSION: &str = "pml-serve/v1";

/// Last-resort reply if JSON rendering itself fails (it cannot with the
/// vendored printer, but the daemon must never answer with nothing).
const RENDER_FALLBACK: &str = r#"{"v":"pml-serve/v1","ok":false,"error":{"kind":"internal","message":"reply render failed"}}"#;

/// Typed error category, the `error.kind` field of an error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line is not valid JSON, or not a JSON object.
    Parse,
    /// Missing or unsupported `"v"` field.
    Version,
    /// Missing or unknown `"op"` field.
    Op,
    /// A request field is missing, mistyped, or out of range.
    Field,
    /// The daemon lacks the artifact the request needs (no model for the
    /// collective, unknown cluster).
    Unsupported,
    /// The batch queue is full; retry after a backoff.
    Overload,
    /// A daemon-side failure unrelated to the request content.
    Internal,
}

impl ErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Version => "version",
            ErrorKind::Op => "op",
            ErrorKind::Field => "field",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Overload => "overload",
            ErrorKind::Internal => "internal",
        }
    }
}

/// One protocol-level failure: what went wrong, for the error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    pub kind: ErrorKind,
    pub message: String,
}

impl ProtoError {
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ProtoError {
            kind,
            message: message.into(),
        }
    }
}

/// A parsed request: the operation plus the client's optional frame id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub id: Option<u64>,
    pub op: Op,
}

/// The operations `pml-serve/v1` defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Tuning-table lookup (indexed constant-time path).
    Select {
        collective: Collective,
        job: JobConfig,
    },
    /// Batched forest inference for a named zoo cluster.
    Predict {
        cluster: String,
        collective: Collective,
        job: JobConfig,
    },
    /// Liveness probe.
    Ping,
    /// Counters (requests served, errors) and the loaded tables and models.
    Stats,
    /// Stream live-observability snapshots: one frame every `interval_ms`
    /// milliseconds, `count` frames total (`0` = until the connection
    /// closes).
    Watch { interval_ms: u64, count: u64 },
    /// Ask the daemon to stop accepting and exit cleanly.
    Shutdown,
}

impl Op {
    /// The `"op"` field's value; also the label a request is traced under.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Select { .. } => "select",
            Op::Predict { .. } => "predict",
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Watch { .. } => "watch",
            Op::Shutdown => "shutdown",
        }
    }
}

/// Default `watch` tick spacing when the frame omits `interval_ms`.
pub const WATCH_DEFAULT_INTERVAL_MS: u64 = 1000;

/// Wire name of a collective (`"allgather"`, ...). The inverse of the
/// `collective` request field.
pub fn collective_wire_name(c: Collective) -> &'static str {
    match c {
        Collective::Allgather => "allgather",
        Collective::Alltoall => "alltoall",
        Collective::Bcast => "bcast",
        Collective::Allreduce => "allreduce",
    }
}

/// The collective a name denotes: a wire name, case-insensitive, after any
/// number of `mpi_` prefixes (`"MPI_Allgather"`, `"mpi_mpi_bcast"`). The
/// one grammar for collective names, shared by the `collective` request
/// field and the command line.
pub fn parse_collective(name: &str) -> Option<Collective> {
    let mut want = name.as_bytes();
    while let Some((prefix, rest)) = want.split_at_checked(4) {
        if !prefix.eq_ignore_ascii_case(b"mpi_") {
            break;
        }
        want = rest;
    }
    Collective::ALL.into_iter().find(|c| {
        collective_wire_name(*c)
            .as_bytes()
            .eq_ignore_ascii_case(want)
    })
}

/// Render a request as one frame (no newline): the inverse of
/// [`parse_request`], and the only place a client builds a frame.
pub fn encode_request(req: &Request) -> String {
    let mut out = format!("{{\"v\":\"{PROTOCOL_VERSION}\"");
    if let Some(id) = req.id {
        out += &format!(",\"id\":{id}");
    }
    out += &format!(",\"op\":\"{}\"", req.op.name());
    if let Op::Predict { cluster, .. } = &req.op {
        let quoted = serde_json::to_string(&Value::Str(cluster.clone()));
        out += &format!(",\"cluster\":{}", quoted.unwrap_or_default());
    }
    match &req.op {
        Op::Select { collective, job }
        | Op::Predict {
            collective, job, ..
        } => {
            let name = collective_wire_name(*collective);
            let JobConfig {
                nodes,
                ppn,
                msg_size,
            } = job;
            out += &format!(
                ",\"collective\":\"{name}\",\"nodes\":{nodes},\"ppn\":{ppn},\"msg_size\":{msg_size}"
            );
        }
        Op::Watch { interval_ms, count } => {
            out += &format!(",\"interval_ms\":{interval_ms},\"count\":{count}");
        }
        Op::Ping | Op::Stats | Op::Shutdown => {}
    }
    out + "}"
}

// ---------------------------------------------------------------------------
// Request parsing
//
// A frame is one flat JSON object, walked once with `serde_json::Reader`:
// the fields the protocol knows keep their first value, borrowed from the
// frame unless escaped, and every other value is only held to the grammar.
// That grammar is the tree parser's (`serde_json::from_str`), quirks
// included; the fields are validated after the whole frame was read, so a
// frame that is not JSON is always `parse` with no id. DESIGN.md §7 has
// the grammar and the order of the checks.

/// The keys the protocol knows; [`Fields`] is indexed like this.
const KEYS: [&str; 10] = [
    "id",
    "v",
    "op",
    "collective",
    "cluster",
    "nodes",
    "ppn",
    "msg_size",
    "interval_ms",
    "count",
];

/// The first value each of [`KEYS`] had in the frame.
type Fields<'a> = [Option<Val<'a>>; KEYS.len()];

/// What the field checks need of a value.
enum Val<'a> {
    Null,
    /// A number `Value::as_u64` would accept.
    UInt(u64),
    Str(Cow<'a, str>),
    /// Anything else: bool, negative or fractional number, array, object.
    Other,
}

fn get<'f, 'a>(fields: &'f Fields<'a>, key: &str) -> Option<&'f Val<'a>> {
    let at = KEYS.iter().position(|k| *k == key)?;
    fields.get(at)?.as_ref()
}

/// Parse one NDJSON line into a [`Request`]. On failure the error comes
/// back with whatever frame id could still be recovered, so even the error
/// reply stays correlatable when the frame was well-formed enough to carry
/// an `id`.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, ProtoError)> {
    parse_frame(line.as_bytes())
}

/// [`parse_request`] on the bytes off the socket. UTF-8 is checked once
/// for the whole frame, so a stray byte is a typed `parse` error like any
/// other.
pub fn parse_frame(frame: &[u8]) -> Result<Request, (Option<u64>, ProtoError)> {
    let mut fields = Fields::default();
    if let Err(e) = read_fields(trim_frame(frame), &mut fields) {
        return Err((None, ProtoError::new(ErrorKind::Parse, e.to_string())));
    }
    let id = match get(&fields, "id") {
        None | Some(Val::Null) => None,
        Some(Val::UInt(id)) => Some(*id),
        Some(_) => {
            let msg = "id must be a non-negative integer";
            return Err((None, ProtoError::new(ErrorKind::Field, msg)));
        }
    };
    request_op(&fields)
        .map(|op| Request { id, op })
        .map_err(|e| (id, e))
}

/// Walk the frame, one object and nothing after it, keeping the first
/// value of each of [`KEYS`] in `fields`.
fn read_fields<'a>(frame: &'a [u8], fields: &mut Fields<'a>) -> Result<(), serde_json::Error> {
    let text = std::str::from_utf8(frame).map_err(serde_json::Error::custom)?;
    let mut r = Reader::new(text);
    if r.next_byte() != Some(b'{') {
        return Err(serde_json::Error::custom("frame must be a JSON object"));
    }
    r.object(
        |r, key| match KEYS.iter().zip(fields.iter_mut()).find(|(k, _)| **k == key) {
            Some((_, slot)) => r.once(slot, read_val),
            None => r.skip_value(),
        },
    )?;
    r.end()
}

/// The value `r` stands at, as much of it as [`Val`] keeps.
fn read_val<'a>(r: &mut Reader<'a>) -> Result<Val<'a>, serde_json::Error> {
    Ok(match r.next_byte() {
        Some(b'"') => Val::Str(r.string()?),
        Some(b'-' | b'0'..=b'9') => r.uint()?.map_or(Val::Other, Val::UInt),
        Some(b'n') => r.skip_value().map(|()| Val::Null)?,
        _ => r.skip_value().map(|()| Val::Other)?,
    })
}

/// The checks after the id, in the order a client sees them fail: `v`,
/// `op`, then the op's own fields.
fn request_op(fields: &Fields<'_>) -> Result<Op, ProtoError> {
    match get(fields, "v") {
        Some(Val::Str(v)) if v == PROTOCOL_VERSION => {}
        Some(Val::Str(v)) => {
            let msg =
                format!("unsupported protocol version {v:?} (daemon speaks {PROTOCOL_VERSION})");
            return Err(ProtoError::new(ErrorKind::Version, msg));
        }
        _ => {
            let msg = format!("missing \"v\" field (expected {PROTOCOL_VERSION:?})");
            return Err(ProtoError::new(ErrorKind::Version, msg));
        }
    }
    let Some(Val::Str(op)) = get(fields, "op") else {
        return Err(ProtoError::new(ErrorKind::Op, "missing \"op\" field"));
    };
    Ok(match &**op {
        "select" => Op::Select {
            collective: field_collective(fields)?,
            job: field_job(fields)?,
        },
        "predict" => Op::Predict {
            cluster: field_str(fields, "cluster")?.to_string(),
            collective: field_collective(fields)?,
            job: field_job(fields)?,
        },
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "watch" => Op::Watch {
            interval_ms: field_u64(fields, "interval_ms", Some(WATCH_DEFAULT_INTERVAL_MS))?,
            count: field_u64(fields, "count", Some(0))?,
        },
        "shutdown" => Op::Shutdown,
        op => {
            let msg = format!("unknown op {op:?} (select, predict, ping, stats, watch, shutdown)");
            return Err(ProtoError::new(ErrorKind::Op, msg));
        }
    })
}

/// `frame` without the ASCII whitespace `str::trim` strips (JSON's four,
/// VT and FF); empty for a blank keep-alive line.
pub fn trim_frame(frame: &[u8]) -> &[u8] {
    let space = |b: &u8| matches!(b, b' ' | 0x09..=0x0d);
    let start = frame.iter().position(|b| !space(b)).unwrap_or(frame.len());
    let end = frame
        .iter()
        .rposition(|b| !space(b))
        .map_or(start, |i| i + 1);
    frame.get(start..end).unwrap_or(&[])
}

fn field_str<'f>(fields: &'f Fields<'_>, key: &str) -> Result<&'f str, ProtoError> {
    match get(fields, key) {
        Some(Val::Str(s)) => Ok(s),
        _ => Err(ProtoError::new(
            ErrorKind::Field,
            format!("missing string field {key:?}"),
        )),
    }
}

/// A non-negative integer field. An absent (or null) one maps to `default`
/// when there is one, but a present-yet-mistyped value is a field error
/// either way, never ignored.
fn field_u64(fields: &Fields<'_>, key: &str, default: Option<u64>) -> Result<u64, ProtoError> {
    let msg = match (get(fields, key), default) {
        (Some(Val::UInt(n)), _) => return Ok(*n),
        (None | Some(Val::Null), Some(default)) => return Ok(default),
        (_, Some(_)) => format!("{key:?} must be a non-negative integer"),
        (_, None) => format!("missing non-negative integer field {key:?}"),
    };
    Err(ProtoError::new(ErrorKind::Field, msg))
}

fn field_collective(fields: &Fields<'_>) -> Result<Collective, ProtoError> {
    let s = field_str(fields, "collective")?;
    parse_collective(s).ok_or_else(|| {
        ProtoError::new(
            ErrorKind::Field,
            format!("unknown collective {s:?} (allgather, alltoall, bcast, allreduce)"),
        )
    })
}

/// The job shape: three integer fields, each checked as it is read by
/// [`JobConfig::read`].
fn field_job(fields: &Fields<'_>) -> Result<JobConfig, ProtoError> {
    JobConfig::read(
        |key| field_u64(fields, key, None),
        |msg| ProtoError::new(ErrorKind::Field, msg),
    )
}

// ---------------------------------------------------------------------------
// Reply rendering

fn frame(id: Option<u64>, ok: bool, extra: Vec<(String, Value)>) -> String {
    let mut pairs = vec![("v".to_string(), Value::Str(PROTOCOL_VERSION.to_string()))];
    if let Some(id) = id {
        pairs.push(("id".to_string(), Value::UInt(id)));
    }
    pairs.push(("ok".to_string(), Value::Bool(ok)));
    pairs.extend(extra);
    serde_json::to_string(&Value::Object(pairs)).unwrap_or_else(|_| RENDER_FALLBACK.to_string())
}

/// A successful reply with op-specific fields appended after `"ok": true`.
pub fn render_ok(id: Option<u64>, extra: Vec<(String, Value)>) -> String {
    frame(id, true, extra)
}

/// A typed error reply. The connection stays open after sending one.
pub fn render_error(id: Option<u64>, err: &ProtoError) -> String {
    frame(
        id,
        false,
        vec![(
            "error".to_string(),
            Value::Object(vec![
                (
                    "kind".to_string(),
                    Value::Str(err.kind.as_str().to_string()),
                ),
                ("message".to_string(), Value::Str(err.message.clone())),
            ]),
        )],
    )
}

// The three hot replies hold only an integer, `&'static` names and a digit,
// so they are appended straight to the connection's out buffer, byte for
// byte what `frame` prints.

/// `{"v":…,"id":…,"ok":true` — the part every successful reply opens with.
fn write_ok_head(out: &mut Vec<u8>, id: Option<u64>) {
    out.extend_from_slice(b"{\"v\":\"");
    out.extend_from_slice(PROTOCOL_VERSION.as_bytes());
    out.push(b'"');
    if let Some(id) = id {
        write!(out, ",\"id\":{id}").ok();
    }
    out.extend_from_slice(b",\"ok\":true");
}

/// The fields `select` and `predict` replies share; the object stays open.
fn write_choice(out: &mut Vec<u8>, id: Option<u64>, algo: Algorithm) {
    write_ok_head(out, id);
    out.extend_from_slice(b",\"collective\":\"");
    out.extend_from_slice(collective_wire_name(algo.collective()).as_bytes());
    out.extend_from_slice(b"\",\"algorithm\":\"");
    out.extend_from_slice(algo.name().as_bytes());
    out.push(b'"');
}

/// Append a `select` reply: the chosen algorithm plus the fallback depth (0
/// exact table cell … 4 static default rules), mirroring [`FallbackDepth`].
pub fn write_select(out: &mut Vec<u8>, id: Option<u64>, algo: Algorithm, depth: FallbackDepth) {
    write_choice(out, id, algo);
    write!(out, ",\"depth\":{}}}", depth.as_u64()).ok();
}

/// Append a `predict` reply: the model's pick for the requested job shape.
pub fn write_predict(out: &mut Vec<u8>, id: Option<u64>, algo: Algorithm) {
    write_choice(out, id, algo);
    out.push(b'}');
}

/// Append a `ping` reply.
pub fn write_pong(out: &mut Vec<u8>, id: Option<u64>) {
    write_ok_head(out, id);
    out.extend_from_slice(b",\"pong\":true}");
}

fn rendered(write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::with_capacity(128);
    write(&mut out);
    String::from_utf8(out).unwrap_or_else(|_| RENDER_FALLBACK.to_string())
}

/// [`write_select`] as a `String` (tests, clients, the benchmark's reference).
pub fn render_select(id: Option<u64>, algo: Algorithm, depth: FallbackDepth) -> String {
    rendered(|out| write_select(out, id, algo, depth))
}

/// [`write_predict`] as a `String`.
pub fn render_predict(id: Option<u64>, algo: Algorithm) -> String {
    rendered(|out| write_predict(out, id, algo))
}

/// [`write_pong`] as a `String`.
pub fn render_pong(id: Option<u64>) -> String {
    rendered(|out| write_pong(out, id))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `parse_request` as it was before frames were walked: the vendored
    /// tree parser plus field lookups on the `Value`. Kept as the reference
    /// the walk is pinned to.
    mod oracle {
        use super::super::*;

        pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, ProtoError)> {
            let value: Value = serde_json::from_str(line.trim())
                .map_err(|e| (None, ProtoError::new(ErrorKind::Parse, e.to_string())))?;
            value.as_object().ok_or_else(|| {
                (
                    None,
                    ProtoError::new(
                        ErrorKind::Parse,
                        format!("frame must be a JSON object, got {}", value.kind()),
                    ),
                )
            })?;
            let obj = &value;
            // The id is recovered first so every later error can echo it.
            let id = match obj.get("id") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    (
                        None,
                        ProtoError::new(ErrorKind::Field, "id must be a non-negative integer"),
                    )
                })?),
            };
            let fail = |kind, msg: String| (id, ProtoError::new(kind, msg));
            match obj.get("v").and_then(Value::as_str) {
                Some(PROTOCOL_VERSION) => {}
                Some(other) => {
                    let msg = format!(
                        "unsupported protocol version {other:?} (daemon speaks {PROTOCOL_VERSION})"
                    );
                    return Err(fail(ErrorKind::Version, msg));
                }
                None => {
                    return Err(fail(
                        ErrorKind::Version,
                        format!("missing \"v\" field (expected {PROTOCOL_VERSION:?})"),
                    ))
                }
            }
            let op = match obj.get("op").and_then(Value::as_str) {
                Some(op) => op,
                None => return Err(fail(ErrorKind::Op, "missing \"op\" field".to_string())),
            };
            let op = match op {
                "select" => Op::Select {
                    collective: field_collective(obj).map_err(|e| (id, e))?,
                    job: field_job(obj).map_err(|e| (id, e))?,
                },
                "predict" => Op::Predict {
                    cluster: field_str(obj, "cluster").map_err(|e| (id, e))?.to_string(),
                    collective: field_collective(obj).map_err(|e| (id, e))?,
                    job: field_job(obj).map_err(|e| (id, e))?,
                },
                "ping" => Op::Ping,
                "stats" => Op::Stats,
                "watch" => Op::Watch {
                    interval_ms: field_u64_or(obj, "interval_ms", WATCH_DEFAULT_INTERVAL_MS)
                        .map_err(|e| (id, e))?,
                    count: field_u64_or(obj, "count", 0).map_err(|e| (id, e))?,
                },
                "shutdown" => Op::Shutdown,
                other => {
                    return Err(fail(
                        ErrorKind::Op,
                        format!(
                            "unknown op {other:?} (select, predict, ping, stats, watch, shutdown)"
                        ),
                    ))
                }
            };
            Ok(Request { id, op })
        }

        fn parse_collective(s: &str) -> Option<Collective> {
            let want = s.to_ascii_lowercase();
            let want = want.trim_start_matches("mpi_");
            Collective::ALL
                .iter()
                .copied()
                .find(|c| collective_wire_name(*c) == want)
        }

        fn field_str<'a>(obj: &'a Value, key: &str) -> Result<&'a str, ProtoError> {
            obj.get(key).and_then(Value::as_str).ok_or_else(|| {
                ProtoError::new(ErrorKind::Field, format!("missing string field {key:?}"))
            })
        }

        fn field_u64(obj: &Value, key: &str) -> Result<u64, ProtoError> {
            obj.get(key).and_then(Value::as_u64).ok_or_else(|| {
                ProtoError::new(
                    ErrorKind::Field,
                    format!("missing non-negative integer field {key:?}"),
                )
            })
        }

        fn field_u64_or(obj: &Value, key: &str, default: u64) -> Result<u64, ProtoError> {
            match obj.get(key) {
                None | Some(Value::Null) => Ok(default),
                Some(v) => v.as_u64().ok_or_else(|| {
                    ProtoError::new(
                        ErrorKind::Field,
                        format!("{key:?} must be a non-negative integer"),
                    )
                }),
            }
        }

        fn field_collective(obj: &Value) -> Result<Collective, ProtoError> {
            let s = field_str(obj, "collective")?;
            parse_collective(s).ok_or_else(|| {
                ProtoError::new(
                    ErrorKind::Field,
                    format!("unknown collective {s:?} (allgather, alltoall, bcast, allreduce)"),
                )
            })
        }

        fn field_job(obj: &Value) -> Result<JobConfig, ProtoError> {
            let ranged_u32 = |key: &str| -> Result<u32, ProtoError> {
                let raw = field_u64(obj, key)?;
                let v = u32::try_from(raw).map_err(|_| {
                    ProtoError::new(ErrorKind::Field, format!("{key:?} out of range"))
                })?;
                if v == 0 {
                    return Err(ProtoError::new(
                        ErrorKind::Field,
                        format!("{key:?} must be >= 1"),
                    ));
                }
                Ok(v)
            };
            let nodes = ranged_u32("nodes")?;
            let ppn = ranged_u32("ppn")?;
            let msg = field_u64(obj, "msg_size")?;
            let msg = usize::try_from(msg)
                .map_err(|_| ProtoError::new(ErrorKind::Field, "\"msg_size\" out of range"))?;
            let world = u64::from(nodes) * u64::from(ppn);
            if world > u64::from(u32::MAX) {
                return Err(ProtoError::new(
                    ErrorKind::Field,
                    format!("\"nodes\" x \"ppn\" = {world} ranks, above 4294967295"),
                ));
            }
            Ok(JobConfig::new(nodes, ppn, msg))
        }
    }

    use serde_json::MAX_DEPTH;

    /// Every frame the protocol tests in this file and
    /// `scripts/serve_smoke.sh` send, good and bad.
    const CORPUS: &[&str] = &[
        r#"{"v":"pml-serve/v1","id":7,"op":"select","collective":"alltoall","nodes":4,"ppn":8,"msg_size":1024}"#,
        r#"{"v":"pml-serve/v1","op":"predict","cluster":"Frontera","collective":"allgather","nodes":16,"ppn":56,"msg_size":4096}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"MPI_Alltoall","nodes":2,"ppn":2,"msg_size":64}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"Bcast","nodes":2,"ppn":2,"msg_size":64}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"mpi_allreduce","nodes":2,"ppn":2,"msg_size":64}"#,
        r#"{"v":"pml-serve/v1","id":1,"op":"ping"}"#,
        r#"{"v":"pml-serve/v1","id":1,"op":"stats"}"#,
        r#"{"v":"pml-serve/v1","id":1,"op":"shutdown"}"#,
        r#"{"v":"pml-serve/v1","id":9,"op":"watch"}"#,
        r#"{"v":"pml-serve/v1","op":"watch","interval_ms":250,"count":4}"#,
        r#"{"v":"pml-serve/v1","op":"watch","interval_ms":"fast"}"#,
        r#"{"v":"pml-serve/v1","id":8,"op":"watch","interval_ms":0,"count":1}"#,
        "{not json",
        "[1,2,3]",
        r#"{"op":"ping"}"#,
        r#"{"v":"pml-serve/v0","op":"ping"}"#,
        r#"{"v":"pml-serve/v1"}"#,
        r#"{"v":"pml-serve/v1","op":"dance"}"#,
        r#"{"v":"pml-serve/v1","id":42,"op":"dance"}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"alltoall","nodes":0,"ppn":8,"msg_size":1}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"gossip","nodes":2,"ppn":8,"msg_size":1}"#,
        r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"bcast","nodes":2,"ppn":4,"msg_size":256}"#,
        "{broken",
        r#"{"v":"pml-serve/v1","id":2,"op":"select","collective":"alltoall","nodes":2,"ppn":4,"msg_size":1024}"#,
        r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"alltoall","nodes":4,"ppn":8,"msg_size":65536}"#,
        "{bad json",
        r#"{"v":"pml-serve/v1","id":5,"op":"sel"#,
        r#"{"v":"pml-serve/v1","id":6,"op":"frobnicate"}"#,
        r#"{"v":"pml-serve/v1","id":7,"op":"stats"}"#,
        r#"{"v":"pml-serve/v1","id":12,"op":"select","collective":"alltoall","nodes":65536,"ppn":65536,"msg_size":1024}"#,
    ];

    /// Frames for the corners of the grammar: key order, duplicates,
    /// escapes, nested unknown values, whitespace, number forms.
    const CORNERS: &[&str] = &[
        r#"{"msg_size":64,"ppn":2,"nodes":2,"collective":"bcast","op":"select","id":5,"v":"pml-serve/v1"}"#,
        r#"{"v":"pml-serve/v1","op":"ping","op":"shutdown","id":1,"id":2}"#,
        r#"{"v":"pml-serve/v1","id":"x","id":5,"op":"ping"}"#,
        r#"{"v":"pml-serve/v0","v":"pml-serve/v1","op":"ping"}"#,
        r#"{"v":"pml-serve\/v1","op":"ping","id":3}"#,
        r#"{"v":"pml-serve/v1","op":"predict","cluster":"a\"b\\c\/d\b\f\n\r\té😀é","collective":"bcast","nodes":1,"ppn":1,"msg_size":1}"#,
        r#"{"v":"pml-serve/v1","op":"ping","x":"\ud800"}"#,
        r#"{"v":"pml-serve/v1","op":"ping","x":"\ud800A"}"#,
        r#"{"v":"pml-serve/v1","op":"ping","x":"\udc00"}"#,
        r#"{"v":"pml-serve/v1","op":"ping","x":"\u+041"}"#,
        r#"{"v":"pml-serve/v1","op":"ping","x":"\u12"}"#,
        r#"{"v":"pml-serve/v1","op":"ping","x":"\q"}"#,
        r#"{"v":"pml-serve/v1","op":"ping","x":"tab	inside"}"#,
        r#"{"v":"pml-serve/v1","op":"ping","extra":{"a":[1,2,{"b":[[],{}]}],"c":null},"more":[true,false,null,-1.5e3,"s"]}"#,
        r#"{"v":"pml-serve/v1","op":"ping","extra":{"a":[1,2,}}"#,
        r#"{"v":"pml-serve/v1","op":"ping","extra":[1,2}}"#,
        r#"{"v":"pml-serve/v1","op":"ping","extra":{"a" 1}}"#,
        r#"{"v":"pml-serve/v1","op":"ping","extra":{1:2}}"#,
        r#"{"v":"pml-serve/v1","op":"ping","id":{"id":9}}"#,
        " \t{ \"v\" : \"pml-serve/v1\" ,\r \"op\" : \"ping\" , \"id\" : 4 } \r",
        "\u{b}\u{c}{\"v\":\"pml-serve/v1\",\"op\":\"ping\"}\u{c}\u{b}",
        "{\"v\":\"pml-serve/v1\",\u{b}\"op\":\"ping\"}",
        r#"{"v":"pml-serve/v1","op":"ping"} x"#,
        r#"{"v":"pml-serve/v1","op":"ping",}"#,
        r#"{,"v":"pml-serve/v1","op":"ping"}"#,
        "{}",
        "{ }",
        "",
        "null",
        "7",
        r#""ping""#,
        "[{\"v\":\"pml-serve/v1\",\"op\":\"ping\"}]",
        r#"{"v":null,"op":"ping"}"#,
        r#"{"v":"pml-serve/v1","op":null}"#,
        r#"{"v":"pml-serve/v1","op":7}"#,
        r#"{"v":"pml-serve/v1","op":"ping","id":null}"#,
        r#"{"v":"pml-serve/v1","op":"ping","id":true}"#,
        r#"{"v":"pml-serve/v1","op":"ping","id":truex}"#,
        r#"{"v":"pml-serve/v1","op":"ping","id":nul}"#,
        r#"{"v":"pml-serve/v1","op":"watch","interval_ms":null,"count":null}"#,
        r#"{"v":"pml-serve/v1","op":"watch","count":-1}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"MPI_mpi_Bcast","nodes":1,"ppn":1,"msg_size":0}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"mpi_","nodes":1,"ppn":1,"msg_size":0}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"bcasté","nodes":1,"ppn":1,"msg_size":0}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":7,"nodes":1,"ppn":1,"msg_size":0}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"bcast","nodes":4294967296,"ppn":1,"msg_size":0}"#,
        // Each job field is checked as it is read; the world check is last.
        r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"bcast","nodes":0}"#,
        r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"bcast","nodes":4294967296,"ppn":1}"#,
        r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"bcast","nodes":2,"ppn":0}"#,
        r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"bcast","nodes":65536,"ppn":65536}"#,
        r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"bcast","nodes":65536,"ppn":65536,"msg_size":-1}"#,
        r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"bcast","nodes":65537,"ppn":65535,"msg_size":0}"#,
        r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"bcast","nodes":4294967295,"ppn":1,"msg_size":0}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"bcast","nodes":1,"ppn":"8","msg_size":0}"#,
        r#"{"v":"pml-serve/v1","op":"select","collective":"bcast","nodes":1,"ppn":1}"#,
        r#"{"v":"pml-serve/v1","op":"predict","collective":"bcast","nodes":1,"ppn":1,"msg_size":1}"#,
        r#"{"v":"pml-serve/v1","op":"predict","cluster":5,"collective":"gossip","nodes":0,"ppn":1,"msg_size":1}"#,
    ];

    /// Number tokens, tried as `id` and as `nodes`.
    const NUMBERS: &[&str] = &[
        "0",
        "1",
        "007",
        "-0",
        "-00",
        "-1",
        "-",
        "--1",
        "1.0",
        "1.",
        "-.5",
        "1e3",
        "1E+3",
        "1e",
        "1.5.5",
        "1-2",
        "+1",
        ".5",
        "1e999",
        "4294967295",
        "4294967296",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999999",
    ];

    /// `parse_request` must answer `line` as the tree parser does: the same
    /// request, or the same recovered id and error kind — and, for every
    /// kind but `parse` (whose wording names the syntax error), the same
    /// message.
    fn assert_agrees(line: &str) {
        match (parse_request(line), oracle::parse_request(line)) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "line: {line:?}"),
            (Err((got_id, got)), Err((want_id, want))) => {
                assert_eq!((got_id, got.kind), (want_id, want.kind), "line: {line:?}");
                if want.kind != ErrorKind::Parse {
                    assert_eq!(got.message, want.message, "line: {line:?}");
                }
            }
            (got, want) => panic!("line {line:?}: scanner {got:?}, tree parser {want:?}"),
        }
    }

    #[test]
    fn scanner_agrees_with_the_tree_parser_on_every_known_frame_and_prefix() {
        for line in CORPUS.iter().chain(CORNERS) {
            assert_agrees(line);
            for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
                assert_agrees(&line[..cut]);
            }
        }
        for number in NUMBERS {
            assert_agrees(&format!(
                r#"{{"v":"pml-serve/v1","id":{number},"op":"ping"}}"#
            ));
            assert_agrees(&format!(
                r#"{{"v":"pml-serve/v1","op":"select","collective":"bcast","nodes":{number},"ppn":2,"msg_size":{number}}}"#
            ));
            assert_agrees(&format!(
                r#"{{"v":"pml-serve/v1","op":"ping","unknown":[{number}]}}"#
            ));
        }
    }

    /// splitmix64: a seeded stream for the mutants below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn scanner_agrees_with_the_tree_parser_on_seeded_mutants() {
        // Bytes that steer a JSON parser, drawn more often than the rest.
        const STEER: &[u8] = b"{}[]\",:\\ \t\r-+.eEu0919tfn\x0b";
        let bases: Vec<&str> = CORPUS.iter().chain(CORNERS).copied().collect();
        let mut state = 0x5eed_0015_u64;
        let (mut compared, mut not_utf8) = (0, 0);
        for round in 0..12_000 {
            let mut bytes = bases[round % bases.len()].as_bytes().to_vec();
            for _ in 0..1 + next(&mut state) % 3 {
                let at = next(&mut state) as usize % (bytes.len() + 1);
                let byte = match next(&mut state) % 8 {
                    0 => (next(&mut state) & 0xff) as u8,
                    1..=2 => (next(&mut state) & 0x7f) as u8,
                    _ => STEER[next(&mut state) as usize % STEER.len()],
                };
                match next(&mut state) % 4 {
                    0 if at < bytes.len() => drop(bytes.remove(at)),
                    1 => bytes.insert(at, byte),
                    2 if at < bytes.len() => {
                        // Move a span: reorders and duplicates tokens.
                        let len = next(&mut state) as usize % (bytes.len() - at) + 1;
                        let span = bytes[at..at + len].to_vec();
                        let to = next(&mut state) as usize % (bytes.len() + 1);
                        bytes.splice(to..to, span);
                    }
                    _ if at < bytes.len() => bytes[at] = byte,
                    _ => bytes.push(byte),
                }
            }
            // A frame never holds a newline: the connection splits on it.
            bytes.retain(|&b| b != b'\n');
            match std::str::from_utf8(&bytes) {
                Ok(line) => {
                    compared += 1;
                    assert_agrees(line);
                }
                // The tree parser never saw such a line; the scanner owes
                // it a typed `parse` error.
                Err(_) => {
                    not_utf8 += 1;
                    let (id, err) = parse_frame(&bytes).expect_err("invalid UTF-8 accepted");
                    assert_eq!((id, err.kind), (None, ErrorKind::Parse));
                }
            }
        }
        assert!(
            compared >= 10_000,
            "only {compared} mutants were comparable"
        );
        assert!(not_utf8 > 0, "no mutant exercised the UTF-8 check");
    }

    #[test]
    fn only_ascii_whitespace_is_trimmed_around_a_frame() {
        // The one deviation from the tree parser, which went through
        // `str::trim`: Unicode whitespace JSON does not know.
        let ping = r#"{"v":"pml-serve/v1","id":1,"op":"ping"}"#;
        for space in ["\u{a0}", "\u{85}", "\u{2028}", "\u{3000}"] {
            let line = format!("{space}{ping}{space}");
            assert!(oracle::parse_request(&line).is_ok());
            let (id, err) = parse_request(&line).expect_err("non-JSON whitespace accepted");
            assert_eq!((id, err.kind), (None, ErrorKind::Parse));
            assert!(!trim_frame(space.as_bytes()).is_empty(), "not a blank line");
        }
        assert!(trim_frame(b" \t\r\x0b\x0c").is_empty());
    }

    #[test]
    fn invalid_utf8_is_a_typed_parse_error() {
        let frames: [&[u8]; 4] = [
            b"{\"v\":\"pml-serve/v1\",\"id\":1,\"op\":\"predict\",\"cluster\":\"Fr\xffnt\"}",
            b"{\"v\":\"pml-serve/v1\",\"id\":1,\"op\":\"ping\",\"k\xc3\":1}",
            b"{\"v\":\"pml-serve/v1\",\"id\":1,\"op\":\"ping\"}\xff",
            b"\xff",
        ];
        for frame in frames {
            let (id, err) = parse_frame(frame).expect_err("invalid UTF-8 accepted");
            assert_eq!((id, err.kind), (None, ErrorKind::Parse));
        }
        // A split character is only invalid until its second byte arrives.
        let whole = "{\"v\":\"pml-serve/v1\",\"op\":\"predict\",\"cluster\":\"é\",\"collective\":\"bcast\",\"nodes\":1,\"ppn\":1,\"msg_size\":1}";
        assert!(parse_frame(whole.as_bytes()).is_ok());
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into() {
        let nested = |depth: usize| {
            format!(
                r#"{{"v":"pml-serve/v1","op":"ping","x":{}{}}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        // The frame's own object is level one.
        assert_agrees(&nested(MAX_DEPTH as usize - 1));
        for depth in [MAX_DEPTH as usize, 60_000] {
            let (id, err) = parse_request(&nested(depth)).expect_err("deep nesting accepted");
            assert_eq!((id, err.kind), (None, ErrorKind::Parse));
        }
    }

    #[test]
    fn encode_request_is_the_inverse_of_parse_request() {
        let jobs = [
            JobConfig::new(1, 1, 0),
            JobConfig::new(16, 56, 4096),
            JobConfig::new(u32::MAX, 1, usize::MAX),
            JobConfig::new(65535, 65537, 0),
        ];
        let clusters = [
            "Frontera",
            "",
            "a\"b",
            "back\\slash",
            "tab\there\u{1}",
            "é😀 x",
        ];
        let mut ops = vec![
            Op::Ping,
            Op::Stats,
            Op::Shutdown,
            Op::Watch {
                interval_ms: 0,
                count: 1,
            },
            Op::Watch {
                interval_ms: u64::MAX,
                count: u64::MAX,
            },
        ];
        for collective in Collective::ALL {
            for job in jobs {
                ops.push(Op::Select { collective, job });
                for cluster in clusters {
                    ops.push(Op::Predict {
                        cluster: cluster.to_string(),
                        collective,
                        job,
                    });
                }
            }
        }
        for op in ops {
            for id in [None, Some(0), Some(u64::MAX)] {
                let req = Request { id, op: op.clone() };
                let frame = encode_request(&req);
                assert!(!frame.contains('\n'), "frame must be one line: {frame}");
                assert_eq!(parse_request(&frame), Ok(req), "frame: {frame}");
            }
        }
    }

    /// A world above `u32::MAX` ranks is a `field` error that echoes the
    /// id, however the two factors are split; one rank fewer is a job.
    #[test]
    fn a_world_above_u32_max_ranks_is_a_field_error() {
        for (nodes, ppn) in [(u32::MAX, u32::MAX), (65536, 65536), (2, 1 << 31)] {
            let select = Op::Select {
                collective: Collective::Bcast,
                job: JobConfig::new(nodes, ppn, 1),
            };
            let frame = encode_request(&Request {
                id: Some(4),
                op: select,
            });
            let (id, err) = must_fail(&frame);
            assert_eq!((id, err.kind), (Some(4), ErrorKind::Field), "{frame}");
            assert!(err.message.contains("ranks, above 4294967295"), "{err:?}");
        }
        // Each field is checked as it is read: a bad `nodes` is reported
        // before a missing `ppn`.
        let (_, err) =
            must_fail(r#"{"v":"pml-serve/v1","op":"select","collective":"bcast","nodes":0}"#);
        assert_eq!(err.message, "\"nodes\" must be >= 1");
        let top = r#"{"v":"pml-serve/v1","op":"select","collective":"bcast","nodes":65535,"ppn":65537,"msg_size":1}"#;
        assert!(must_parse(top).op.name() == "select");
    }

    #[test]
    fn direct_renderers_match_the_tree_printer() {
        let depths = [
            FallbackDepth::Exact,
            FallbackDepth::NearestBucket,
            FallbackDepth::Substituted,
            FallbackDepth::Analytic,
            FallbackDepth::DefaultRules,
        ];
        let choice = |algo: Algorithm| {
            vec![
                (
                    "collective".to_string(),
                    Value::Str(collective_wire_name(algo.collective()).to_string()),
                ),
                ("algorithm".to_string(), Value::Str(algo.name().to_string())),
            ]
        };
        for id in [None, Some(0), Some(u64::MAX)] {
            let pong = vec![("pong".to_string(), Value::Bool(true))];
            assert_eq!(render_pong(id), frame(id, true, pong));
            for &algo in Collective::ALL.into_iter().flat_map(Algorithm::all_for) {
                assert_eq!(render_predict(id, algo), frame(id, true, choice(algo)));
                for depth in depths {
                    let mut fields = choice(algo);
                    fields.push(("depth".to_string(), Value::UInt(depth.as_u64())));
                    assert_eq!(render_select(id, algo, depth), frame(id, true, fields));
                }
            }
        }
    }

    fn must_parse(line: &str) -> Request {
        parse_request(line).expect("frame parses")
    }

    fn must_fail(line: &str) -> (Option<u64>, ProtoError) {
        parse_request(line).expect_err("frame rejected")
    }

    #[test]
    fn select_frame_round_trips() {
        let req = must_parse(
            r#"{"v":"pml-serve/v1","id":7,"op":"select","collective":"alltoall","nodes":4,"ppn":8,"msg_size":1024}"#,
        );
        assert_eq!(req.id, Some(7));
        assert_eq!(
            req.op,
            Op::Select {
                collective: Collective::Alltoall,
                job: JobConfig::new(4, 8, 1024),
            }
        );
    }

    #[test]
    fn predict_frame_names_a_cluster() {
        let req = must_parse(
            r#"{"v":"pml-serve/v1","op":"predict","cluster":"Frontera","collective":"allgather","nodes":16,"ppn":56,"msg_size":4096}"#,
        );
        assert_eq!(req.id, None);
        match req.op {
            Op::Predict {
                cluster,
                collective,
                job,
            } => {
                assert_eq!(cluster, "Frontera");
                assert_eq!(collective, Collective::Allgather);
                assert_eq!(job, JobConfig::new(16, 56, 4096));
            }
            other => panic!("expected predict, got {other:?}"),
        }
    }

    #[test]
    fn collective_names_accept_the_mpi_prefix() {
        for (wire, want) in [
            ("allgather", Collective::Allgather),
            ("MPI_Alltoall", Collective::Alltoall),
            ("Bcast", Collective::Bcast),
            ("mpi_allreduce", Collective::Allreduce),
        ] {
            let line = format!(
                r#"{{"v":"pml-serve/v1","op":"select","collective":"{wire}","nodes":2,"ppn":2,"msg_size":64}}"#
            );
            match must_parse(&line).op {
                Op::Select { collective, .. } => assert_eq!(collective, want, "{wire}"),
                other => panic!("expected select, got {other:?}"),
            }
        }
    }

    #[test]
    fn bare_ops_parse() {
        for (op, want) in [
            ("ping", Op::Ping),
            ("stats", Op::Stats),
            ("shutdown", Op::Shutdown),
        ] {
            let req = must_parse(&format!(r#"{{"v":"pml-serve/v1","id":1,"op":"{op}"}}"#));
            assert_eq!(req.op, want);
        }
    }

    #[test]
    fn watch_frame_defaults_and_overrides() {
        let req = must_parse(r#"{"v":"pml-serve/v1","id":9,"op":"watch"}"#);
        assert_eq!(
            req.op,
            Op::Watch {
                interval_ms: WATCH_DEFAULT_INTERVAL_MS,
                count: 0,
            }
        );
        let req = must_parse(r#"{"v":"pml-serve/v1","op":"watch","interval_ms":250,"count":4}"#);
        assert_eq!(
            req.op,
            Op::Watch {
                interval_ms: 250,
                count: 4,
            }
        );
        // A present-but-mistyped optional field is still rejected.
        let (_, err) = must_fail(r#"{"v":"pml-serve/v1","op":"watch","interval_ms":"fast"}"#);
        assert_eq!(err.kind, ErrorKind::Field);
    }

    #[test]
    fn malformed_frames_map_to_typed_errors() {
        let cases: [(&str, ErrorKind); 8] = [
            ("{not json", ErrorKind::Parse),
            ("[1,2,3]", ErrorKind::Parse),
            (r#"{"op":"ping"}"#, ErrorKind::Version),
            (r#"{"v":"pml-serve/v0","op":"ping"}"#, ErrorKind::Version),
            (r#"{"v":"pml-serve/v1"}"#, ErrorKind::Op),
            (r#"{"v":"pml-serve/v1","op":"dance"}"#, ErrorKind::Op),
            (
                r#"{"v":"pml-serve/v1","op":"select","collective":"alltoall","nodes":0,"ppn":8,"msg_size":1}"#,
                ErrorKind::Field,
            ),
            (
                r#"{"v":"pml-serve/v1","op":"select","collective":"gossip","nodes":2,"ppn":8,"msg_size":1}"#,
                ErrorKind::Field,
            ),
        ];
        for (line, want) in cases {
            let (_, err) = must_fail(line);
            assert_eq!(err.kind, want, "line: {line}");
        }
    }

    #[test]
    fn truncated_frame_is_a_parse_error() {
        let full = r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"bcast","nodes":2,"ppn":4,"msg_size":256}"#;
        // Every strict prefix must be rejected, never panic.
        for cut in 1..full.len() {
            if let Ok(req) = parse_request(&full[..cut]) {
                panic!("prefix of len {cut} unexpectedly parsed: {req:?}");
            }
        }
    }

    #[test]
    fn errors_echo_the_frame_id_when_recoverable() {
        let (id, err) = must_fail(r#"{"v":"pml-serve/v1","id":42,"op":"dance"}"#);
        assert_eq!(id, Some(42));
        assert_eq!(err.kind, ErrorKind::Op);
        // A frame too broken to read the id reports none.
        let (id, _) = must_fail("{broken");
        assert_eq!(id, None);
    }

    #[test]
    fn replies_are_single_line_versioned_json() {
        use pml_collectives::AlltoallAlgo;
        let replies = [
            render_select(
                Some(1),
                Algorithm::Alltoall(AlltoallAlgo::Bruck),
                FallbackDepth::Exact,
            ),
            render_predict(None, Algorithm::Alltoall(AlltoallAlgo::Pairwise)),
            render_pong(Some(2)),
            render_error(Some(3), &ProtoError::new(ErrorKind::Overload, "queue full")),
        ];
        for r in &replies {
            assert!(!r.contains('\n'), "reply must be one line: {r}");
            let v: Value = serde_json::from_str(r).expect("reply is valid JSON");
            assert!(v.as_object().is_some(), "reply is an object: {r}");
            assert_eq!(v.get("v").and_then(Value::as_str), Some(PROTOCOL_VERSION));
            assert!(v.get("ok").and_then(Value::as_bool).is_some());
        }
        let sel: Value = serde_json::from_str(&replies[0]).expect("select reply parses");
        assert_eq!(sel.get("algorithm").and_then(Value::as_str), Some("bruck"));
        assert_eq!(sel.get("depth").and_then(Value::as_u64), Some(0));
        let err: Value = serde_json::from_str(&replies[3]).expect("error reply parses");
        assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false));
        let inner = err.get("error").expect("error");
        assert_eq!(inner.get("kind").and_then(Value::as_str), Some("overload"));
    }
}
