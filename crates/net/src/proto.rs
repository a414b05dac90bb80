//! Wire protocol: seq-numbered JSON request/response envelopes.
//!
//! Every frame payload (see [`crate::frame`]) is one JSON object with a
//! `seq` member (echoed verbatim in the response, so clients may pipeline
//! requests) and a `type` tag selecting the message. Numbers wider than
//! JSON's exact `f64` range — entry ids and fixed-point update words —
//! travel as decimal strings via [`fedora_fl::wire`]; serialized ORAM rows
//! travel as lowercase hex strings.
//!
//! The decode half runs against **untrusted** bytes: every failure is a
//! typed [`ProtoError`], vector lengths are bounded before materializing
//! them, and nothing here panics on any input.
//!
//! Request-scoped tracing rides the same envelopes: a `train` request may
//! carry an optional `trace` member (a lowercase-hex `u64` id, stamped by
//! [`crate::NetClient`] when the caller did not provide one). The server
//! echoes that id into per-request spans, phase-histogram exemplars, and
//! the `net.request.done` journal event, so one id follows a request from
//! socket byte to ORAM bucket. The ops verbs `scrape` and `tail` read the
//! same live registry back out: `scrape` streams a snapshot as one or
//! more [`Response::ScrapeOk`] chunks (each sized under the frame cap via
//! [`scrape_chunks`]), `tail` pages journal events from a client-held
//! cursor.

use fedora::server::WatchReport;
use fedora_fl::wire::{self, WireError};
use fedora_telemetry::json::{self, Json, JsonError};

/// Most entries a single `train` request may name. Combined with
/// [`wire::MAX_WIRE_WORDS`] this bounds a request's decoded size.
pub const MAX_ENTRIES_PER_TRAIN: usize = 256;

/// Most alarm names a `watch_ok` report may carry (untrusted-input bound;
/// the server only ever emits two distinct alarms today).
pub const MAX_WATCH_ALARMS: usize = 16;

/// Most journal events a single `tail_ok` reply may carry; servers clamp
/// the request's `max` to this and decoders refuse anything larger.
pub const MAX_TAIL_EVENTS: usize = 512;

/// Most fields one tailed event may carry (untrusted-input bound; real
/// journal events today stay under a dozen).
pub const MAX_TAIL_FIELDS: usize = 32;

/// A protocol decode failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtoError {
    /// The payload is not valid JSON.
    Json(JsonError),
    /// A word/entry vector failed wire decoding.
    Wire(WireError),
    /// A structural violation (wrong shape, unknown type, missing member).
    Schema(&'static str),
    /// A `train` request named more entries than [`MAX_ENTRIES_PER_TRAIN`].
    TooManyEntries {
        /// Entries in the offending request.
        got: usize,
    },
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "payload is not JSON: {e}"),
            ProtoError::Wire(e) => write!(f, "payload wire field: {e}"),
            ProtoError::Schema(what) => write!(f, "malformed message: {what}"),
            ProtoError::TooManyEntries { got } => {
                write!(
                    f,
                    "{got} entries exceed the per-request maximum {MAX_ENTRIES_PER_TRAIN}"
                )
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        ProtoError::Json(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Wire(e)
    }
}

/// Serialization of a `scrape` reply body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScrapeFormat {
    /// Prometheus text exposition format 0.0.4 (wire value `"prom"`).
    Prom,
    /// The single-line JSON snapshot, same shape as `--metrics-out`
    /// (wire value `"json"`).
    Json,
}

/// One journal event as carried by [`Response::TailOk`]. Field values are
/// rendered to display text: `u64`/`i64` values keep full precision as
/// decimal strings, and the server records trace ids as `0x…` hex strings
/// so tail output matches exemplar ids verbatim.
#[derive(Clone, Debug, PartialEq)]
pub struct TailEvent {
    /// Journal sequence number (dense from 0 over the registry's life,
    /// including events since evicted from the bounded buffer).
    pub seq: u64,
    /// Event name (`round.commit`, `net.request.done`, ...).
    pub name: String,
    /// Field key/value pairs in insertion order, values as display text.
    pub fields: Vec<(String, String)>,
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register this connection; the server assigns a client id.
    Hello,
    /// Participate in the next round: name entries, provide the
    /// fixed-point update words for each (parallel vectors).
    Train {
        /// Client id assigned by [`Response::Welcome`].
        client: u32,
        /// Embedding-table entry ids this client touches.
        entries: Vec<u64>,
        /// One fixed-point word vector per entry, SecAgg-compatible.
        updates: Vec<Vec<u64>>,
        /// Optional caller-supplied trace id for request-scoped tracing
        /// (`None`/0 means "let the server assign one"). Travels as a
        /// lowercase-hex string.
        trace: Option<u64>,
    },
    /// Admin: liveness + round status.
    Health,
    /// Admin: return the latest watch-plane report.
    Watch,
    /// Ops: stream the current telemetry snapshot (audit-only series
    /// redacted) as one or more [`Response::ScrapeOk`] chunks.
    Scrape {
        /// Requested body serialization.
        format: ScrapeFormat,
    },
    /// Ops: page journal events (plus completed span records, which are
    /// journal events too) from a client-held cursor.
    Tail {
        /// Return events with `seq >= cursor` (0 = from the oldest
        /// retained event).
        cursor: u64,
        /// Most events wanted; the server clamps to [`MAX_TAIL_EVENTS`].
        max: u64,
    },
    /// Admin: drain in-flight rounds and stop the server.
    Shutdown,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Registration acknowledged with the assigned client id.
    Welcome {
        /// The id to use in subsequent [`Request::Train`] messages.
        client: u32,
    },
    /// The round this request rode in committed; per-entry row payloads
    /// (`None` where the oblivious pipeline reported the entry lost).
    TrainOk {
        /// Committed round number.
        round: u64,
        /// Serialized row bytes per requested entry.
        rows: Vec<Option<Vec<u8>>>,
    },
    /// Liveness report.
    HealthOk {
        /// Rounds durably committed so far.
        committed_rounds: u64,
        /// Whether a round is currently executing.
        round_active: bool,
        /// Cumulative ε spent (the accountant's `fdp.total.epsilon`;
        /// infinite when the mechanism runs without privacy).
        total_epsilon: f64,
        /// Requests shed by admission control since startup.
        shed_requests: u64,
        /// Connections shed by admission control since startup.
        shed_connections: u64,
    },
    /// The latest watch-plane report (`None` until the watch plane has
    /// sampled at least once, or when it is disabled).
    WatchOk {
        /// The report, if one exists.
        report: Option<WatchReport>,
    },
    /// One chunk of a `scrape` reply body. Chunks for one request share
    /// its `seq` and arrive in order; the final chunk carries `done`.
    ScrapeOk {
        /// This chunk of the serialized snapshot (UTF-8 text).
        body: String,
        /// Whether this is the final chunk of the reply.
        done: bool,
    },
    /// A page of journal events answering [`Request::Tail`].
    TailOk {
        /// Events with `seq >= cursor`, oldest first (empty when the
        /// cursor is already at the journal head).
        events: Vec<TailEvent>,
        /// Pass this as the next request's `cursor` to resume where this
        /// page ended (unchanged when no events were returned).
        next_cursor: u64,
        /// Events evicted from the bounded journal since startup — a gap
        /// detector: a cursor older than `seq` of the first event means
        /// the window in between is gone.
        dropped: u64,
    },
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// Admission control shed this request — retry later.
    Overloaded,
    /// The request failed; the session stays usable unless the transport
    /// itself was violated.
    Error {
        /// Coarse machine-readable category (`"proto"`, `"server"`, ...).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

/// Finite numbers encode as JSON numbers; ±∞/NaN (legal for ε totals when
/// privacy is off) encode as `null` and decode back to `+∞`.
fn finite_num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

fn get_u64(doc: &Json, key: &'static str, err: &'static str) -> Result<u64, ProtoError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or(ProtoError::Schema(err))
}

fn get_f64_or_inf(doc: &Json, key: &'static str, err: &'static str) -> Result<f64, ProtoError> {
    match doc.get(key) {
        Some(Json::Null) => Ok(f64::INFINITY),
        Some(j) => j.as_f64().ok_or(ProtoError::Schema(err)),
        None => Err(ProtoError::Schema(err)),
    }
}

fn envelope(seq: u64, kind: &str, mut rest: Vec<(String, Json)>) -> Vec<u8> {
    let mut members = vec![
        ("seq".to_owned(), Json::Num(seq as f64)),
        ("type".to_owned(), Json::Str(kind.to_owned())),
    ];
    members.append(&mut rest);
    Json::Obj(members).dump().into_bytes()
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(text: &str) -> Result<Vec<u8>, ProtoError> {
    if !text.len().is_multiple_of(2) {
        return Err(ProtoError::Schema("odd-length hex row"));
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            text.get(i..i + 2)
                .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                .ok_or(ProtoError::Schema("non-hex byte in row"))
        })
        .collect()
}

/// Trace ids travel as lowercase hex strings (no `0x` prefix) so they
/// survive JSON's `f64` number range intact.
fn trace_json(trace: u64) -> Json {
    Json::Str(format!("{trace:x}"))
}

fn decode_trace(doc: &Json) -> Result<Option<u64>, ProtoError> {
    match doc.get("trace") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) if !s.is_empty() && s.len() <= 16 => u64::from_str_radix(s, 16)
            .map(Some)
            .map_err(|_| ProtoError::Schema("trace must be a hex u64")),
        Some(_) => Err(ProtoError::Schema("trace must be a hex u64")),
    }
}

/// Splits a scrape body into [`Response::ScrapeOk`] chunks, each
/// guaranteed to encode — with any `seq` — within a `max_frame`-byte
/// frame payload. The final chunk carries `done: true`; an empty body
/// yields one empty terminal chunk. Splits respect UTF-8 boundaries and
/// budget for JSON string escaping, so a body full of newlines (the
/// Prometheus exposition) still frames correctly.
pub fn scrape_chunks(body: &str, max_frame: usize) -> Vec<Response> {
    // Fixed envelope cost: `{"seq":<=20 digits>,"type":"scrape_ok",
    // "body":"…","done":false}` is under 80 bytes outside the body.
    const ENVELOPE_OVERHEAD: usize = 96;
    let budget = max_frame.saturating_sub(ENVELOPE_OVERHEAD).max(16);
    let mut bodies = Vec::new();
    let mut start = 0;
    while start < body.len() {
        let mut used = 0usize;
        let mut end = start;
        for c in body[start..].chars() {
            // Escaped cost mirrors the JSON dumper: the short escapes are
            // two bytes, other control characters six, everything else
            // its UTF-8 length.
            let cost = match c {
                '"' | '\\' | '\n' | '\r' | '\t' => 2,
                c if (c as u32) < 0x20 => 6,
                c => c.len_utf8(),
            };
            if used + cost > budget && end > start {
                break;
            }
            used += cost;
            end += c.len_utf8();
        }
        bodies.push(body[start..end].to_owned());
        start = end;
    }
    if bodies.is_empty() {
        bodies.push(String::new());
    }
    let last = bodies.len() - 1;
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| Response::ScrapeOk {
            body,
            done: i == last,
        })
        .collect()
}

/// Encodes a request into a frame payload.
pub fn encode_request(seq: u64, req: &Request) -> Vec<u8> {
    match req {
        Request::Hello => envelope(seq, "hello", vec![]),
        Request::Train {
            client,
            entries,
            updates,
            trace,
        } => {
            let mut members = vec![
                ("client".to_owned(), Json::Num(*client as f64)),
                ("entries".to_owned(), wire::encode_words(entries)),
                (
                    "updates".to_owned(),
                    Json::Arr(updates.iter().map(|w| wire::encode_words(w)).collect()),
                ),
            ];
            if let Some(trace) = trace {
                members.push(("trace".to_owned(), trace_json(*trace)));
            }
            envelope(seq, "train", members)
        }
        Request::Health => envelope(seq, "health", vec![]),
        Request::Watch => envelope(seq, "watch", vec![]),
        Request::Scrape { format } => envelope(
            seq,
            "scrape",
            vec![(
                "format".to_owned(),
                Json::Str(
                    match format {
                        ScrapeFormat::Prom => "prom",
                        ScrapeFormat::Json => "json",
                    }
                    .to_owned(),
                ),
            )],
        ),
        Request::Tail { cursor, max } => envelope(
            seq,
            "tail",
            vec![
                ("cursor".to_owned(), Json::Num(*cursor as f64)),
                ("max".to_owned(), Json::Num(*max as f64)),
            ],
        ),
        Request::Shutdown => envelope(seq, "shutdown", vec![]),
    }
}

/// Encodes a response into a frame payload.
pub fn encode_response(seq: u64, resp: &Response) -> Vec<u8> {
    match resp {
        Response::Welcome { client } => envelope(
            seq,
            "welcome",
            vec![("client".to_owned(), Json::Num(*client as f64))],
        ),
        Response::TrainOk { round, rows } => envelope(
            seq,
            "train_ok",
            vec![
                ("round".to_owned(), Json::Num(*round as f64)),
                (
                    "rows".to_owned(),
                    Json::Arr(
                        rows.iter()
                            .map(|row| match row {
                                Some(bytes) => Json::Str(hex_encode(bytes)),
                                None => Json::Null,
                            })
                            .collect(),
                    ),
                ),
            ],
        ),
        Response::HealthOk {
            committed_rounds,
            round_active,
            total_epsilon,
            shed_requests,
            shed_connections,
        } => envelope(
            seq,
            "health_ok",
            vec![
                (
                    "committed_rounds".to_owned(),
                    Json::Num(*committed_rounds as f64),
                ),
                ("round_active".to_owned(), Json::Bool(*round_active)),
                ("total_epsilon".to_owned(), finite_num(*total_epsilon)),
                ("shed_requests".to_owned(), Json::Num(*shed_requests as f64)),
                (
                    "shed_connections".to_owned(),
                    Json::Num(*shed_connections as f64),
                ),
            ],
        ),
        Response::WatchOk { report } => {
            let body = match report {
                None => Json::Null,
                Some(r) => Json::Obj(vec![
                    ("round".to_owned(), Json::Num(r.round as f64)),
                    (
                        "window_rounds".to_owned(),
                        Json::Num(r.window_rounds as f64),
                    ),
                    ("round_p99_ns".to_owned(), Json::Num(r.round_p99_ns as f64)),
                    ("requests".to_owned(), Json::Num(r.requests as f64)),
                    ("shed_ppm".to_owned(), Json::Num(r.shed_ppm as f64)),
                    ("total_epsilon".to_owned(), finite_num(r.total_epsilon)),
                    (
                        "alarms".to_owned(),
                        Json::Arr(r.alarms.iter().map(|a| Json::Str(a.clone())).collect()),
                    ),
                    ("overhead_ns".to_owned(), Json::Num(r.overhead_ns as f64)),
                ]),
            };
            envelope(seq, "watch_ok", vec![("report".to_owned(), body)])
        }
        Response::ScrapeOk { body, done } => envelope(
            seq,
            "scrape_ok",
            vec![
                ("body".to_owned(), Json::Str(body.clone())),
                ("done".to_owned(), Json::Bool(*done)),
            ],
        ),
        Response::TailOk {
            events,
            next_cursor,
            dropped,
        } => envelope(
            seq,
            "tail_ok",
            vec![
                (
                    "events".to_owned(),
                    Json::Arr(
                        events
                            .iter()
                            .map(|e| {
                                Json::Obj(vec![
                                    ("seq".to_owned(), Json::Num(e.seq as f64)),
                                    ("name".to_owned(), Json::Str(e.name.clone())),
                                    (
                                        "fields".to_owned(),
                                        Json::Obj(
                                            e.fields
                                                .iter()
                                                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("next_cursor".to_owned(), Json::Num(*next_cursor as f64)),
                ("dropped".to_owned(), Json::Num(*dropped as f64)),
            ],
        ),
        Response::ShuttingDown => envelope(seq, "shutting_down", vec![]),
        Response::Overloaded => envelope(seq, "overloaded", vec![]),
        Response::Error { kind, message } => envelope(
            seq,
            "error",
            vec![
                ("kind".to_owned(), Json::Str(kind.clone())),
                ("message".to_owned(), Json::Str(message.clone())),
            ],
        ),
    }
}

fn parse_envelope(payload: &[u8]) -> Result<(u64, String, Json), ProtoError> {
    let doc = json::parse_bytes(payload)?;
    let seq = doc
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or(ProtoError::Schema("missing or non-integer seq"))?;
    let kind = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or(ProtoError::Schema("missing type tag"))?
        .to_owned();
    Ok((seq, kind, doc))
}

/// Decodes a request frame payload, returning `(seq, request)`.
///
/// # Errors
///
/// [`ProtoError`] on any structural, wire, or JSON violation.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtoError> {
    let (seq, kind, doc) = parse_envelope(payload)?;
    let req = match kind.as_str() {
        "hello" => Request::Hello,
        "train" => {
            let client = doc
                .get("client")
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or(ProtoError::Schema("client must be a u32"))?;
            let entries = wire::decode_words(
                doc.get("entries")
                    .ok_or(ProtoError::Schema("missing entries"))?,
            )?;
            if entries.len() > MAX_ENTRIES_PER_TRAIN {
                return Err(ProtoError::TooManyEntries { got: entries.len() });
            }
            let raw_updates = doc
                .get("updates")
                .and_then(Json::as_array)
                .ok_or(ProtoError::Schema("updates must be an array"))?;
            if raw_updates.len() != entries.len() {
                return Err(ProtoError::Schema("updates must parallel entries"));
            }
            let updates = raw_updates
                .iter()
                .map(wire::decode_words)
                .collect::<Result<Vec<_>, _>>()?;
            Request::Train {
                client,
                entries,
                updates,
                trace: decode_trace(&doc)?,
            }
        }
        "health" => Request::Health,
        "watch" => Request::Watch,
        "scrape" => Request::Scrape {
            format: match doc.get("format").and_then(Json::as_str) {
                Some("prom") => ScrapeFormat::Prom,
                Some("json") => ScrapeFormat::Json,
                _ => return Err(ProtoError::Schema("format must be prom or json")),
            },
        },
        "tail" => Request::Tail {
            cursor: get_u64(&doc, "cursor", "missing tail cursor")?,
            max: get_u64(&doc, "max", "missing tail max")?,
        },
        "shutdown" => Request::Shutdown,
        _ => return Err(ProtoError::Schema("unknown request type")),
    };
    Ok((seq, req))
}

/// Decodes a response frame payload, returning `(seq, response)`.
///
/// # Errors
///
/// [`ProtoError`] on any structural, wire, or JSON violation.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), ProtoError> {
    let (seq, kind, doc) = parse_envelope(payload)?;
    let resp = match kind.as_str() {
        "welcome" => Response::Welcome {
            client: doc
                .get("client")
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or(ProtoError::Schema("client must be a u32"))?,
        },
        "train_ok" => {
            let round = doc
                .get("round")
                .and_then(Json::as_u64)
                .ok_or(ProtoError::Schema("round must be a u64"))?;
            let raw_rows = doc
                .get("rows")
                .and_then(Json::as_array)
                .ok_or(ProtoError::Schema("rows must be an array"))?;
            if raw_rows.len() > MAX_ENTRIES_PER_TRAIN {
                return Err(ProtoError::TooManyEntries {
                    got: raw_rows.len(),
                });
            }
            let rows = raw_rows
                .iter()
                .map(|row| match row {
                    Json::Null => Ok(None),
                    Json::Str(hex) => hex_decode(hex).map(Some),
                    _ => Err(ProtoError::Schema("row must be hex or null")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Response::TrainOk { round, rows }
        }
        "health_ok" => Response::HealthOk {
            committed_rounds: doc
                .get("committed_rounds")
                .and_then(Json::as_u64)
                .ok_or(ProtoError::Schema("missing committed_rounds"))?,
            round_active: match doc.get("round_active") {
                Some(Json::Bool(b)) => *b,
                _ => return Err(ProtoError::Schema("missing round_active")),
            },
            total_epsilon: get_f64_or_inf(&doc, "total_epsilon", "missing total_epsilon")?,
            shed_requests: get_u64(&doc, "shed_requests", "missing shed_requests")?,
            shed_connections: get_u64(&doc, "shed_connections", "missing shed_connections")?,
        },
        "watch_ok" => {
            let report = match doc.get("report") {
                None | Some(Json::Null) => None,
                Some(obj @ Json::Obj(_)) => {
                    let raw_alarms = obj
                        .get("alarms")
                        .and_then(Json::as_array)
                        .ok_or(ProtoError::Schema("alarms must be an array"))?;
                    if raw_alarms.len() > MAX_WATCH_ALARMS {
                        return Err(ProtoError::Schema("too many alarms"));
                    }
                    let alarms = raw_alarms
                        .iter()
                        .map(|a| {
                            a.as_str()
                                .map(str::to_owned)
                                .ok_or(ProtoError::Schema("alarm must be a string"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Some(WatchReport {
                        round: get_u64(obj, "round", "missing report round")?,
                        window_rounds: get_u64(obj, "window_rounds", "missing window_rounds")?,
                        round_p99_ns: get_u64(obj, "round_p99_ns", "missing round_p99_ns")?,
                        requests: get_u64(obj, "requests", "missing requests")?,
                        shed_ppm: get_u64(obj, "shed_ppm", "missing shed_ppm")?,
                        total_epsilon: get_f64_or_inf(
                            obj,
                            "total_epsilon",
                            "missing report total_epsilon",
                        )?,
                        alarms,
                        overhead_ns: get_u64(obj, "overhead_ns", "missing overhead_ns")?,
                    })
                }
                Some(_) => return Err(ProtoError::Schema("report must be an object or null")),
            };
            Response::WatchOk { report }
        }
        "scrape_ok" => Response::ScrapeOk {
            body: doc
                .get("body")
                .and_then(Json::as_str)
                .ok_or(ProtoError::Schema("missing scrape body"))?
                .to_owned(),
            done: match doc.get("done") {
                Some(Json::Bool(b)) => *b,
                _ => return Err(ProtoError::Schema("missing scrape done flag")),
            },
        },
        "tail_ok" => {
            let raw_events = doc
                .get("events")
                .and_then(Json::as_array)
                .ok_or(ProtoError::Schema("events must be an array"))?;
            if raw_events.len() > MAX_TAIL_EVENTS {
                return Err(ProtoError::Schema("too many tailed events"));
            }
            let events = raw_events
                .iter()
                .map(|e| {
                    let seq = get_u64(e, "seq", "missing event seq")?;
                    let name = e
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or(ProtoError::Schema("missing event name"))?
                        .to_owned();
                    let raw_fields = match e.get("fields") {
                        Some(Json::Obj(members)) => members,
                        _ => return Err(ProtoError::Schema("event fields must be an object")),
                    };
                    if raw_fields.len() > MAX_TAIL_FIELDS {
                        return Err(ProtoError::Schema("too many event fields"));
                    }
                    let fields = raw_fields
                        .iter()
                        .map(|(k, v)| {
                            v.as_str()
                                .map(|v| (k.clone(), v.to_owned()))
                                .ok_or(ProtoError::Schema("event field must be a string"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(TailEvent { seq, name, fields })
                })
                .collect::<Result<Vec<_>, ProtoError>>()?;
            Response::TailOk {
                events,
                next_cursor: get_u64(&doc, "next_cursor", "missing next_cursor")?,
                dropped: get_u64(&doc, "dropped", "missing dropped")?,
            }
        }
        "shutting_down" => Response::ShuttingDown,
        "overloaded" => Response::Overloaded,
        "error" => Response::Error {
            kind: doc
                .get("kind")
                .and_then(Json::as_str)
                .ok_or(ProtoError::Schema("missing error kind"))?
                .to_owned(),
            message: doc
                .get("message")
                .and_then(Json::as_str)
                .ok_or(ProtoError::Schema("missing error message"))?
                .to_owned(),
        },
        _ => return Err(ProtoError::Schema("unknown response type")),
    };
    Ok((seq, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Hello,
            Request::Train {
                client: 9,
                entries: vec![0, u64::MAX, 1 << 60],
                updates: vec![vec![1, 2], vec![u64::MAX], vec![]],
                trace: None,
            },
            // Full-width trace ids must survive the hex round trip.
            Request::Train {
                client: 1,
                entries: vec![7],
                updates: vec![vec![3]],
                trace: Some(u64::MAX),
            },
            Request::Health,
            Request::Watch,
            Request::Scrape {
                format: ScrapeFormat::Prom,
            },
            Request::Scrape {
                format: ScrapeFormat::Json,
            },
            Request::Tail {
                cursor: 0,
                max: 256,
            },
            Request::Shutdown,
        ];
        for (seq, req) in cases.into_iter().enumerate() {
            let payload = encode_request(seq as u64, &req);
            assert_eq!(decode_request(&payload).unwrap(), (seq as u64, req));
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Welcome { client: 3 },
            Response::TrainOk {
                round: 12,
                rows: vec![Some(vec![0x00, 0xff, 0xa5]), None, Some(vec![])],
            },
            Response::HealthOk {
                committed_rounds: 7,
                round_active: true,
                total_epsilon: 1.25,
                shed_requests: 3,
                shed_connections: 1,
            },
            // ε totals can be infinite when privacy is off; they travel
            // as null and decode back to +∞.
            Response::HealthOk {
                committed_rounds: 0,
                round_active: false,
                total_epsilon: f64::INFINITY,
                shed_requests: 0,
                shed_connections: 0,
            },
            Response::WatchOk { report: None },
            Response::WatchOk {
                report: Some(WatchReport {
                    round: 40,
                    window_rounds: 10,
                    round_p99_ns: 1_250_000,
                    requests: 480,
                    shed_ppm: 20_833,
                    total_epsilon: 4.0,
                    alarms: vec!["round_p99".into(), "shed_ppm".into()],
                    overhead_ns: 18_000,
                }),
            },
            Response::ScrapeOk {
                body: "fedora_net_requests 3\n".to_owned(),
                done: false,
            },
            Response::ScrapeOk {
                body: String::new(),
                done: true,
            },
            Response::TailOk {
                events: vec![
                    TailEvent {
                        seq: 41,
                        name: "net.request.done".to_owned(),
                        fields: vec![
                            ("trace".to_owned(), "0xdeadbeef".to_owned()),
                            ("round".to_owned(), "12".to_owned()),
                        ],
                    },
                    TailEvent {
                        seq: 42,
                        name: "round.commit".to_owned(),
                        fields: vec![],
                    },
                ],
                next_cursor: 43,
                dropped: 7,
            },
            Response::TailOk {
                events: vec![],
                next_cursor: 0,
                dropped: 0,
            },
            Response::ShuttingDown,
            Response::Overloaded,
            Response::Error {
                kind: "proto".into(),
                message: "nope".into(),
            },
        ];
        for (seq, resp) in cases.into_iter().enumerate() {
            let payload = encode_response(seq as u64, &resp);
            assert_eq!(decode_response(&payload).unwrap(), (seq as u64, resp));
        }
    }

    #[test]
    fn rejects_malformed_envelopes() {
        for bad in [
            &b"not json"[..],
            b"{}",
            b"{\"seq\": 1}",
            b"{\"seq\": -1, \"type\": \"hello\"}",
            b"{\"seq\": 1.5, \"type\": \"hello\"}",
            b"{\"seq\": 1, \"type\": \"no_such_type\"}",
            b"{\"seq\": 1, \"type\": 42}",
        ] {
            assert!(
                decode_request(bad).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(bad)
            );
            assert!(decode_response(bad).is_err());
        }
    }

    #[test]
    fn rejects_malformed_train_requests() {
        for bad in [
            // entries/updates length mismatch
            r#"{"seq":1,"type":"train","client":1,"entries":["1"],"updates":[]}"#.to_string(),
            // missing client
            r#"{"seq":1,"type":"train","entries":[],"updates":[]}"#.to_string(),
            // client out of u32 range
            r#"{"seq":1,"type":"train","client":4294967296,"entries":[],"updates":[]}"#.to_string(),
            // numeric entry ids (precision-lossy) are refused
            r#"{"seq":1,"type":"train","client":1,"entries":[1],"updates":[["0"]]}"#.to_string(),
            // bad word inside an update vector
            r#"{"seq":1,"type":"train","client":1,"entries":["1"],"updates":[["x"]]}"#.to_string(),
        ] {
            assert!(decode_request(bad.as_bytes()).is_err(), "accepted {bad}");
        }
        // Entry-count bound.
        let ids: Vec<String> = (0..MAX_ENTRIES_PER_TRAIN as u64 + 1)
            .map(|i| format!("\"{i}\""))
            .collect();
        let flood = format!(
            r#"{{"seq":1,"type":"train","client":1,"entries":[{}],"updates":[{}]}}"#,
            ids.join(","),
            ids.iter().map(|_| "[]").collect::<Vec<_>>().join(",")
        );
        assert!(matches!(
            decode_request(flood.as_bytes()),
            Err(ProtoError::TooManyEntries { .. })
        ));
    }

    #[test]
    fn rejects_malformed_ops_messages() {
        for bad in [
            // scrape: unknown / missing format
            r#"{"seq":1,"type":"scrape"}"#,
            r#"{"seq":1,"type":"scrape","format":"xml"}"#,
            r#"{"seq":1,"type":"scrape","format":7}"#,
            // tail: missing / non-integer members
            r#"{"seq":1,"type":"tail"}"#,
            r#"{"seq":1,"type":"tail","cursor":-1,"max":4}"#,
            r#"{"seq":1,"type":"tail","cursor":0}"#,
            // train trace: not hex / too wide / wrong type
            r#"{"seq":1,"type":"train","client":1,"entries":[],"updates":[],"trace":"zz"}"#,
            r#"{"seq":1,"type":"train","client":1,"entries":[],"updates":[],"trace":"00000000000000000"}"#,
            r#"{"seq":1,"type":"train","client":1,"entries":[],"updates":[],"trace":12}"#,
            r#"{"seq":1,"type":"train","client":1,"entries":[],"updates":[],"trace":""}"#,
        ] {
            assert!(decode_request(bad.as_bytes()).is_err(), "accepted {bad}");
        }
        for bad in [
            r#"{"seq":1,"type":"scrape_ok","body":"x"}"#,
            r#"{"seq":1,"type":"scrape_ok","done":true}"#,
            r#"{"seq":1,"type":"tail_ok","events":"x","next_cursor":0,"dropped":0}"#,
            r#"{"seq":1,"type":"tail_ok","events":[{"seq":1}],"next_cursor":0,"dropped":0}"#,
            r#"{"seq":1,"type":"tail_ok","events":[{"seq":1,"name":"e","fields":{"k":1}}],"next_cursor":0,"dropped":0}"#,
            r#"{"seq":1,"type":"tail_ok","events":[],"next_cursor":0}"#,
        ] {
            assert!(decode_response(bad.as_bytes()).is_err(), "accepted {bad}");
        }
        // Event-count bound on the reply path.
        let flood_events: Vec<String> = (0..MAX_TAIL_EVENTS + 1)
            .map(|i| format!(r#"{{"seq":{i},"name":"e","fields":{{}}}}"#))
            .collect();
        let flood = format!(
            r#"{{"seq":1,"type":"tail_ok","events":[{}],"next_cursor":0,"dropped":0}}"#,
            flood_events.join(",")
        );
        assert!(decode_response(flood.as_bytes()).is_err());
    }

    #[test]
    fn scrape_chunks_respect_frame_caps_and_reassemble() {
        // A body that stresses escaping: newlines double in size when
        // dumped, exactly like the Prometheus exposition format.
        let original: String = (0..200)
            .map(|i| format!("metric_{i} {i}\n"))
            .collect::<String>();
        let max_frame = 256;
        let chunks = scrape_chunks(&original, max_frame);
        assert!(chunks.len() > 1, "small cap must force multiple chunks");
        let mut reassembled = String::new();
        for (i, chunk) in chunks.iter().enumerate() {
            let Response::ScrapeOk { body, done } = chunk else {
                panic!("scrape_chunks produced {chunk:?}");
            };
            // Every chunk must actually frame under the cap, worst-case
            // seq included.
            let encoded = encode_response(u64::MAX, chunk);
            assert!(
                encoded.len() <= max_frame,
                "chunk {i} encodes to {} > {max_frame}",
                encoded.len()
            );
            assert_eq!(*done, i == chunks.len() - 1, "done only on last chunk");
            reassembled.push_str(body);
        }
        assert_eq!(reassembled, original, "no bytes lost or reordered");

        // Empty body: one terminal chunk.
        assert_eq!(
            scrape_chunks("", max_frame),
            vec![Response::ScrapeOk {
                body: String::new(),
                done: true
            }]
        );
        // A cap too small for the envelope still makes progress (one char
        // minimum per chunk) instead of looping forever.
        let tiny = scrape_chunks("abcdef", 8);
        let total: String = tiny
            .iter()
            .map(|c| match c {
                Response::ScrapeOk { body, .. } => body.as_str(),
                _ => "",
            })
            .collect();
        assert_eq!(total, "abcdef");
    }

    #[test]
    fn rejects_malformed_rows() {
        for bad in [
            r#"{"seq":1,"type":"train_ok","round":1,"rows":["zz"]}"#,
            r#"{"seq":1,"type":"train_ok","round":1,"rows":["abc"]}"#,
            r#"{"seq":1,"type":"train_ok","round":1,"rows":[1]}"#,
        ] {
            assert!(decode_response(bad.as_bytes()).is_err(), "accepted {bad}");
        }
    }
}
