//! The wire protocol of `tbf serve`: line-delimited JSON requests in,
//! line-delimited schema-versioned JSON responses out.
//!
//! Every request is one line; every response is one line. The response
//! schema follows the `tbf-obs` artifact convention (a `schema` header
//! with `name`/`version` as the first member), compacted onto a single
//! line. Hostile input never unwinds out of this module: every decode
//! failure is a typed [`ServeError`] that renders as a one-line error
//! response, and the session stays alive to serve the next frame.
//!
//! # Request shape
//!
//! ```json
//! {"id":"r1","circuit":"INPUT(a)\n...","format":"bench","model":"anytime",
//!  "deadline_ms":100,"options":{"max_paths":20000,"cache":false}}
//! ```
//!
//! * `id` — required string, echoed in the response.
//! * `circuit` (inline netlist text) **or** `path` (file to read) —
//!   exactly one must be present.
//! * `format` — `bench`, `blif`, `aiger` (aliases `aag`/`aig`) or
//!   `verilog` (alias `v`); inferred from a `path` extension (then
//!   content sniffing) when absent, defaulting to `bench`. Inline
//!   `circuit` text can carry any of the three text formats; binary
//!   AIGER must come in via `path` (JSON strings cannot carry it).
//! * `delays` — `mcnc` (default) or `unit`.
//! * `model` — only `anytime` in schema v1.
//! * `deadline_ms` — per-request wall-clock budget (unsigned integer);
//!   the effective deadline is the earlier of this and the session
//!   deadline.
//! * `options` — engine caps: `max_paths`, `max_bdd`, `max_cubes`, and
//!   `cache` (bool: per-request opt-out of the session's warm cache).
//!   Unknown members are ignored, `threads` among them: the session's
//!   `--threads` sets every request's worker count.
//! * `session` — optional ECO session name. On an analyze request it
//!   establishes (or re-bases) the named incremental session; see
//!   [`crate::workspace`].
//! * `kind` — `analyze` (default) or `eco`. An `eco` request must name
//!   a `session` established earlier; it is answered incrementally by
//!   diffing its netlist against the session base at cone granularity.
//! * `schema` — optional; either the integer `1` or the artifact-style
//!   object `{"name":"tbf-serve-request","version":1}`. Unknown versions
//!   are rejected with a typed error.
//!
//! A known member present with the wrong JSON type is a `bad_request`
//! that names the member; it is never read as absent.
//!
//! # Response shape
//!
//! ```json
//! {"schema":{"name":"tbf-serve-response","version":1},"id":"r1",
//!  "status":"ok","result":{...},"effort":{...}}
//! ```
//!
//! The `result` member is **deterministic**: byte-identical across
//! worker-thread counts and recovered injected faults. The `effort`
//! member carries retry/cache telemetry that may legitimately differ
//! between a cold and a warm (or fault-injected) run; consumers
//! comparing runs drop it (see [`deterministic_view`]).

use std::fmt;

use tbf_core::{CircuitReport, DelayOptions, OutputDelay, OutputStatus};
use tbf_logic::parsers::{mcnc_like_delays, unit_delays};
use tbf_logic::{Format, Netlist};
use tbf_obs::json::Value;

/// Schema name stamped into every response line.
pub const RESPONSE_SCHEMA: &str = "tbf-serve-response";

/// Schema name accepted in a request's `schema` object.
pub const REQUEST_SCHEMA: &str = "tbf-serve-request";

/// Current protocol version (bumped on breaking key changes only).
pub const SCHEMA_VERSION: u64 = 1;

/// A typed request-boundary failure. Each variant renders as a one-line
/// error response with a stable `kind` tag; none of them terminate the
/// session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The frame is not a well-formed protocol object (bad JSON, raw
    /// control bytes, missing `id`, not an object, …).
    MalformedFrame {
        /// What was wrong, deterministically worded.
        detail: String,
    },
    /// The frame exceeds the session's byte cap; it was not parsed.
    FrameTooLarge {
        /// Frame length in bytes.
        bytes: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The request names a schema this server does not speak.
    UnsupportedSchema {
        /// The offending schema name/version.
        detail: String,
    },
    /// The frame is well-formed but the request is not servable
    /// (unknown model, unparsable netlist, missing circuit, …).
    BadRequest {
        /// What was wrong, deterministically worded.
        detail: String,
    },
    /// Admission control rejected the request up front instead of
    /// queuing it: the session is over its request budget, past its
    /// deadline, or the circuit exceeds the admission size cap.
    Overloaded {
        /// Which limit rejected the request.
        detail: String,
    },
    /// The session is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The request handler panicked; the panic was isolated to this
    /// request and the session's affected cache entries quarantined.
    InternalPanic {
        /// The panic payload when it was a string, else a fixed tag.
        detail: String,
    },
}

impl ServeError {
    /// The stable `snake_case` wire tag of this error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::MalformedFrame { .. } => "malformed_frame",
            ServeError::FrameTooLarge { .. } => "frame_too_large",
            ServeError::UnsupportedSchema { .. } => "unsupported_schema",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::InternalPanic { .. } => "internal_panic",
        }
    }

    /// The human-readable detail line.
    pub fn detail(&self) -> String {
        match self {
            ServeError::MalformedFrame { detail }
            | ServeError::UnsupportedSchema { detail }
            | ServeError::BadRequest { detail }
            | ServeError::Overloaded { detail }
            | ServeError::InternalPanic { detail } => detail.clone(),
            ServeError::FrameTooLarge { bytes, cap } => {
                format!("frame is {bytes} bytes, cap is {cap}")
            }
            ServeError::ShuttingDown => "session is draining for shutdown".to_owned(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

/// A decoded, admission-ready request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen request id, echoed in the response.
    pub id: String,
    /// The parsed circuit.
    pub netlist: Netlist,
    /// Warm-cache key: the netlist's structural signature, which carries
    /// every scaled gate delay (results are exact, so engine caps are not
    /// part of the key — an exact answer is cap-independent).
    pub cache_key: Vec<u8>,
    /// Engine caps and per-request deadline.
    pub options: DelayOptions,
    /// Whether this request may be answered from / stored into the
    /// session's warm cache.
    pub use_cache: bool,
    /// Whether the request carries an explicit `deadline_ms`.
    /// Deadline-limited requests never *read* the warm cache: a cached
    /// exact answer the request's own budget could not have computed
    /// would make the response depend on session history, breaking the
    /// restart-determinism contract. They still *write* the cache when
    /// they finish exact — exactness, once reached, is cap-independent.
    pub has_deadline: bool,
    /// The named ECO session this request establishes (`kind` absent or
    /// `analyze`) or queries incrementally (`kind":"eco"`). Session
    /// requests bypass the warm result cache: their reuse happens at
    /// cone granularity in the workspace instead.
    pub session: Option<String>,
    /// Whether this is a `"kind":"eco"` request (requires `session`).
    pub eco: bool,
}

/// Frame-level limits consulted before a byte of JSON is parsed.
#[derive(Clone, Copy, Debug)]
pub struct FrameLimits {
    /// Longest accepted frame, in bytes.
    pub max_frame_bytes: usize,
}

/// Decodes one request line. On failure, returns the request `id` when
/// it could still be recovered (so the error response can echo it)
/// alongside the typed error.
///
/// `defaults` seeds the engine caps; request `options` override
/// individual fields.
pub fn parse_request(
    line: &str,
    limits: &FrameLimits,
    defaults: &DelayOptions,
) -> Result<Request, (Option<String>, ServeError)> {
    if line.len() > limits.max_frame_bytes {
        return Err((
            None,
            ServeError::FrameTooLarge {
                bytes: line.len(),
                cap: limits.max_frame_bytes,
            },
        ));
    }
    // Raw control bytes are illegal inside JSON strings and illegal as
    // framing here (frames are `\n`-delimited; a stray `\r` means the
    // client framed with CRLF). Rejecting them up front gives CRLF and
    // NUL input a typed error instead of a confusing parse failure.
    if line.bytes().any(|b| b == 0) {
        return Err((
            None,
            ServeError::MalformedFrame {
                detail: "frame contains a raw NUL byte".to_owned(),
            },
        ));
    }
    if line.bytes().any(|b| b == b'\r') {
        return Err((
            None,
            ServeError::MalformedFrame {
                detail: "frame contains a raw carriage return (CRLF framing? frames are \
                         LF-delimited)"
                    .to_owned(),
            },
        ));
    }
    if tbf_core::fault::trip(tbf_core::fault::Site::FrameParse) {
        return Err((
            None,
            ServeError::MalformedFrame {
                detail: "injected frame-decode fault".to_owned(),
            },
        ));
    }
    let doc = Value::parse(line).map_err(|e| {
        (
            None,
            ServeError::MalformedFrame {
                detail: format!("invalid JSON: {e}"),
            },
        )
    })?;
    if doc.as_object().is_none() {
        return Err((
            None,
            ServeError::MalformedFrame {
                detail: "request must be a JSON object".to_owned(),
            },
        ));
    }
    let id = match doc.get("id").and_then(Value::as_str) {
        Some(s) if !s.is_empty() => s.to_owned(),
        _ => {
            return Err((
                None,
                ServeError::MalformedFrame {
                    detail: "missing non-empty string member `id`".to_owned(),
                },
            ))
        }
    };
    let fail = |e: ServeError| (Some(id.clone()), e);
    // A member that is present must have its documented type: reading a
    // mistyped member as absent would silently serve a default.
    let text = |name: &str| -> Result<Option<&str>, (Option<String>, ServeError)> {
        match doc.get(name) {
            None => Ok(None),
            Some(v) => v.as_str().map(Some).ok_or_else(|| {
                fail(ServeError::BadRequest {
                    detail: format!("`{name}` must be a string"),
                })
            }),
        }
    };

    // Schema negotiation: absent means v1; an integer or an
    // artifact-style object are both accepted.
    if let Some(schema) = doc.get("schema") {
        let version = match schema {
            Value::Num(_) => schema.as_u64(),
            Value::Obj(_) => {
                match schema.get("name").and_then(Value::as_str) {
                    Some(REQUEST_SCHEMA) | None => {}
                    Some(other) => {
                        return Err(fail(ServeError::UnsupportedSchema {
                            detail: format!("unknown schema name `{other}`"),
                        }))
                    }
                }
                schema.get("version").and_then(Value::as_u64)
            }
            _ => None,
        };
        match version {
            Some(v) if v <= SCHEMA_VERSION => {}
            Some(v) => {
                return Err(fail(ServeError::UnsupportedSchema {
                    detail: format!("schema version {v} is newer than {SCHEMA_VERSION}"),
                }))
            }
            None => {
                return Err(fail(ServeError::UnsupportedSchema {
                    detail: "schema member carries no integer version".to_owned(),
                }))
            }
        }
    }

    match text("model")? {
        None | Some("anytime") => {}
        Some(other) => {
            return Err(fail(ServeError::BadRequest {
                detail: format!("unsupported model `{other}` (schema v1 serves `anytime`)"),
            }))
        }
    }

    let eco = match doc.get("kind") {
        None => false,
        Some(v) => match v.as_str() {
            Some("analyze") => false,
            Some("eco") => true,
            _ => {
                return Err(fail(ServeError::BadRequest {
                    detail: "`kind` must be analyze|eco".to_owned(),
                }))
            }
        },
    };
    let session = match doc.get("session") {
        None => None,
        Some(v) => match v.as_str() {
            Some(s) if !s.is_empty() => Some(s.to_owned()),
            _ => {
                return Err(fail(ServeError::BadRequest {
                    detail: "`session` must be a non-empty string".to_owned(),
                }))
            }
        },
    };
    if eco && session.is_none() {
        return Err(fail(ServeError::BadRequest {
            detail: "an eco request must name the `session` whose base it edits".to_owned(),
        }));
    }

    let inline = text("circuit")?;
    let path = text("path")?;
    let (bytes, inferred) = match (inline, path) {
        (Some(_), Some(_)) => {
            return Err(fail(ServeError::BadRequest {
                detail: "request carries both `circuit` and `path`; send exactly one".to_owned(),
            }))
        }
        (None, None) => {
            return Err(fail(ServeError::BadRequest {
                detail: "request carries neither `circuit` (inline) nor `path`".to_owned(),
            }))
        }
        (Some(text), None) => {
            let bytes = text.as_bytes().to_vec();
            let inferred = Format::sniff(&bytes);
            (bytes, inferred)
        }
        (None, Some(p)) => {
            // Binary (`aig`) AIGER is legal here, so the read must not
            // insist on UTF-8.
            let bytes = std::fs::read(p).map_err(|e| {
                fail(ServeError::BadRequest {
                    detail: format!("cannot read `{p}`: {}", e.kind()),
                })
            })?;
            let inferred =
                Format::from_extension(std::path::Path::new(p)).or_else(|| Format::sniff(&bytes));
            (bytes, inferred)
        }
    };
    let format = match text("format")? {
        None => inferred.unwrap_or(Format::Bench),
        Some(name) => match Format::from_name(name) {
            Some(f) => f,
            None => {
                return Err(fail(ServeError::BadRequest {
                    detail: format!("unknown format `{name}` (bench|blif|aiger|verilog)"),
                }))
            }
        },
    };
    let delay_fn = match text("delays")? {
        None | Some("mcnc") => mcnc_like_delays as fn(_, _) -> _,
        Some("unit") => unit_delays as fn(_, _) -> _,
        Some(other) => {
            return Err(fail(ServeError::BadRequest {
                detail: format!("unknown delay model `{other}` (mcnc|unit)"),
            }))
        }
    };
    let netlist = tbf_logic::parse_netlist(format, &bytes, delay_fn).map_err(|e| {
        fail(ServeError::BadRequest {
            detail: format!("netlist does not parse: {e}"),
        })
    })?;

    let mut options = defaults.clone();
    let mut has_deadline = false;
    if let Some(v) = doc.get("deadline_ms") {
        let ms = v.as_u64().ok_or_else(|| {
            fail(ServeError::BadRequest {
                detail: "`deadline_ms` must be an unsigned integer".to_owned(),
            })
        })?;
        options.time_budget = Some(std::time::Duration::from_millis(ms));
        has_deadline = true;
    }
    let mut use_cache = true;
    if let Some(opts) = doc.get("options") {
        if opts.as_object().is_none() {
            return Err(fail(ServeError::BadRequest {
                detail: "`options` must be an object".to_owned(),
            }));
        }
        let cap = |name: &str| -> Result<Option<usize>, (Option<String>, ServeError)> {
            match opts.get(name) {
                None => Ok(None),
                Some(v) => v.as_u64().map(|n| Some(n as usize)).ok_or_else(|| {
                    (
                        Some(id.clone()),
                        ServeError::BadRequest {
                            detail: format!("`options.{name}` must be an unsigned integer"),
                        },
                    )
                }),
            }
        };
        if let Some(n) = cap("max_paths")? {
            options.max_straddling_paths = n;
        }
        if let Some(n) = cap("max_bdd")? {
            options.max_bdd_nodes = n;
        }
        if let Some(n) = cap("max_cubes")? {
            options.max_cubes = n;
        }
        if let Some(v) = opts.get("cache") {
            match v {
                Value::Bool(b) => use_cache = *b,
                _ => {
                    return Err(fail(ServeError::BadRequest {
                        detail: "`options.cache` must be a boolean".to_owned(),
                    }))
                }
            }
        }
    }

    // Exact results are determined by the structure and the scaled
    // delays, both of which the structural signature carries; the caps
    // only decide whether exactness is *reached*, so they stay out of
    // the key (only all-exact reports are ever cached).
    let cache_key = netlist.structural_signature();
    Ok(Request {
        id,
        netlist,
        cache_key,
        options,
        use_cache,
        has_deadline,
        session,
        eco,
    })
}

/// The deterministic JSON of one output's result: its name, delay,
/// topological bound and status (with the bounds and cause of a
/// degraded answer). Shared by the `result` member of a response and the
/// `tbf` CLI's run artifact.
pub fn output_value(o: &OutputDelay) -> Value {
    let status = match o.status {
        OutputStatus::Exact => Value::str("exact"),
        OutputStatus::Bounded {
            lower,
            upper,
            cause,
        } => Value::Obj(vec![
            ("kind".to_owned(), Value::str("bounded")),
            ("lower".to_owned(), Value::str(lower.to_string())),
            ("upper".to_owned(), Value::str(upper.to_string())),
            ("cause".to_owned(), Value::str(cause.to_string())),
        ]),
        OutputStatus::Fallback { cause } => Value::Obj(vec![
            ("kind".to_owned(), Value::str("fallback")),
            ("cause".to_owned(), Value::str(cause.to_string())),
        ]),
    };
    Value::Obj(vec![
        ("name".to_owned(), Value::str(&o.name)),
        ("delay".to_owned(), Value::str(o.delay.to_string())),
        (
            "topological".to_owned(),
            Value::str(o.topological.to_string()),
        ),
        ("status".to_owned(), status),
    ])
}

/// The deterministic `result` member of an OK response.
pub fn report_value(r: &CircuitReport) -> Value {
    let rung = if r.all_exact() {
        "exact"
    } else if r
        .outputs
        .iter()
        .any(|o| matches!(o.status, OutputStatus::Fallback { .. }))
    {
        "fallback"
    } else {
        "bounded"
    };
    Value::Obj(vec![
        ("lower".to_owned(), Value::str(r.lower.to_string())),
        ("upper".to_owned(), Value::str(r.upper.to_string())),
        (
            "exact".to_owned(),
            match r.exact {
                Some(d) => Value::str(d.to_string()),
                None => Value::Null,
            },
        ),
        (
            "topological".to_owned(),
            Value::str(r.topological.to_string()),
        ),
        ("rung".to_owned(), Value::str(rung)),
        (
            "outputs".to_owned(),
            Value::Arr(r.outputs.iter().map(output_value).collect()),
        ),
    ])
}

/// The incremental-effort member of a session-bound response: how much
/// of the answer was merged from retained cones vs recomputed, and (for
/// `eco` requests) how many cones the base diff flagged as edited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EcoEffort {
    /// Cones answered from the session's retained results.
    pub reused: u64,
    /// Cones that ran the ladder this request.
    pub recomputed: u64,
    /// Cones the explicit base diff flagged as edited (`eco` only).
    pub changed: Option<u64>,
}

/// Effort telemetry attached to an OK response (excluded from
/// determinism comparisons — see [`deterministic_view`]). `eco` is
/// present exactly on session-bound responses.
pub fn effort_value(
    cached: bool,
    attempts: u64,
    ladder_retries: u64,
    panics_caught: u64,
    eco: Option<EcoEffort>,
) -> Value {
    let mut pairs = vec![
        ("cached".to_owned(), Value::Bool(cached)),
        ("attempts".to_owned(), Value::u64(attempts)),
        ("ladder_retries".to_owned(), Value::u64(ladder_retries)),
        ("panics_caught".to_owned(), Value::u64(panics_caught)),
    ];
    if let Some(e) = eco {
        let mut obj = vec![
            ("reused".to_owned(), Value::u64(e.reused)),
            ("recomputed".to_owned(), Value::u64(e.recomputed)),
        ];
        if let Some(c) = e.changed {
            obj.push(("changed".to_owned(), Value::u64(c)));
        }
        pairs.push(("eco".to_owned(), Value::Obj(obj)));
    }
    Value::Obj(pairs)
}

fn schema_header() -> (String, Value) {
    (
        "schema".to_owned(),
        Value::Obj(vec![
            ("name".to_owned(), Value::str(RESPONSE_SCHEMA)),
            ("version".to_owned(), Value::u64(SCHEMA_VERSION)),
        ]),
    )
}

/// Renders a one-line OK response.
pub fn ok_response(id: &str, result: Value, effort: Value) -> String {
    Value::Obj(vec![
        schema_header(),
        ("id".to_owned(), Value::str(id)),
        ("status".to_owned(), Value::str("ok")),
        ("result".to_owned(), result),
        ("effort".to_owned(), effort),
    ])
    .to_string()
}

/// Renders a one-line error response; `id` is `null` when the frame was
/// too broken to recover one.
pub fn error_response(id: Option<&str>, err: &ServeError) -> String {
    Value::Obj(vec![
        schema_header(),
        (
            "id".to_owned(),
            match id {
                Some(s) => Value::str(s),
                None => Value::Null,
            },
        ),
        ("status".to_owned(), Value::str("error")),
        (
            "error".to_owned(),
            Value::Obj(vec![
                ("kind".to_owned(), Value::str(err.kind())),
                ("detail".to_owned(), Value::str(err.detail())),
            ]),
        ),
    ])
    .to_string()
}

/// Parses a response line and checks its schema header. Returns the
/// document — the soak harness's "every response is schema-valid" gate.
pub fn validate_response(line: &str) -> Result<Value, String> {
    let doc = Value::parse(line)?;
    let obj = doc.as_object().ok_or("response is not an object")?;
    match obj.first() {
        Some((k, _)) if k == "schema" => {}
        _ => return Err("`schema` must be the first member".to_owned()),
    }
    let schema = doc.get("schema").ok_or("missing schema")?;
    match schema.get("name").and_then(Value::as_str) {
        Some(RESPONSE_SCHEMA) => {}
        other => return Err(format!("unexpected schema name {other:?}")),
    }
    match schema.get("version").and_then(Value::as_u64) {
        Some(v) if v <= SCHEMA_VERSION => {}
        other => return Err(format!("unsupported schema version {other:?}")),
    }
    match doc.get("status").and_then(Value::as_str) {
        Some("ok") => doc
            .get("result")
            .map(|_| ())
            .ok_or("ok response without `result`")?,
        Some("error") => doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .map(|_| ())
            .ok_or("error response without `error.kind`")?,
        other => return Err(format!("unexpected status {other:?}")),
    }
    Ok(doc)
}

/// Strips the volatile `effort` member from a parsed response, leaving
/// the parts that must be byte-identical across equivalent runs (cold
/// vs. warm cache, fault-injected-then-recovered vs. clean, restarted
/// mid-batch vs. straight through).
pub fn deterministic_view(doc: &Value) -> Value {
    match doc {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "effort")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = AND(a, b)\n";

    fn limits() -> FrameLimits {
        FrameLimits {
            max_frame_bytes: 4096,
        }
    }

    fn parse(line: &str) -> Result<Request, (Option<String>, ServeError)> {
        parse_request(line, &limits(), &DelayOptions::default())
    }

    fn req_line(id: &str) -> String {
        format!(r#"{{"id":"{id}","circuit":"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n"}}"#)
    }

    #[test]
    fn good_request_parses() {
        let r = parse(&req_line("r1")).expect("parses");
        assert_eq!(r.id, "r1");
        assert_eq!(r.netlist.gate_count(), 1);
        assert!(r.use_cache);
    }

    #[test]
    fn options_override_defaults() {
        let line = format!(
            r#"{{"id":"r","circuit":"{}","deadline_ms":50,"options":{{"max_paths":7,"threads":4,"cache":false}}}}"#,
            TINY.replace('\n', "\\n")
        );
        let r = parse(&line).expect("parses");
        assert_eq!(r.options.max_straddling_paths, 7);
        assert_eq!(
            r.options.time_budget,
            Some(std::time::Duration::from_millis(50))
        );
        assert!(!r.use_cache);
    }

    #[test]
    fn a_thread_count_in_options_is_ignored() {
        // The session's `--threads` decides; a request cannot start
        // threads, so its `threads` member is ignored whatever its type.
        for threads in ["2", r#""all""#, "-1"] {
            let line = format!(
                r#"{{"id":"r","circuit":"{}","options":{{"threads":{threads},"max_paths":7}}}}"#,
                TINY.replace('\n', "\\n")
            );
            let r = parse(&line).unwrap_or_else(|e| panic!("threads {threads}: {e:?}"));
            assert_eq!(r.options.max_straddling_paths, 7);
        }
    }

    #[test]
    fn cache_key_tracks_structure_and_delays() {
        let a = parse(&req_line("a")).expect("parses");
        let b = parse(&req_line("b")).expect("parses");
        assert_eq!(a.cache_key, b.cache_key, "ids are not part of the key");
        let unit =
            parse(r#"{"id":"c","circuit":"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n","delays":"unit"}"#)
                .expect("parses");
        assert_ne!(a.cache_key, unit.cache_key, "delay model is");
    }

    #[test]
    fn inline_requests_negotiate_text_formats() {
        // Inline BLIF via the `format` member.
        let blif = parse(
            r#"{"id":"b","format":"blif","circuit":".model t\n.inputs a\n.outputs f\n.names a f\n0 1\n.end\n"}"#,
        )
        .expect("blif parses");
        // Inline ASCII AIGER under its `aag` alias.
        let aag = parse(r#"{"id":"a","format":"aag","circuit":"aag 1 1 0 1 0\n2\n3\n"}"#)
            .expect("aag parses");
        assert_eq!(aag.netlist.outputs().len(), 1);
        // Inline structural Verilog under its `v` alias.
        let verilog = parse(
            r#"{"id":"v","format":"v","circuit":"module t(a, f); input a; output f; not(f, a); endmodule\n"}"#,
        )
        .expect("verilog parses");
        assert_eq!(verilog.netlist.gate_count(), 1);
        // All three encode the same inverter.
        for input in [false, true] {
            for r in [&blif, &aag, &verilog] {
                assert_eq!(r.netlist.evaluate_outputs(&[input]), vec![!input]);
            }
        }
        // Without a `format` member, inline text is content-sniffed —
        // the `.model` directive and `module` keyword are unambiguous.
        let sniffed_blif = parse(
            r#"{"id":"sb","circuit":".model t\n.inputs a\n.outputs f\n.names a f\n0 1\n.end\n"}"#,
        )
        .expect("format-less inline BLIF sniffs");
        let sniffed_verilog = parse(
            r#"{"id":"sv","circuit":"module t(a, f); input a; output f; not(f, a); endmodule\n"}"#,
        )
        .expect("format-less inline Verilog sniffs");
        for input in [false, true] {
            for r in [&sniffed_blif, &sniffed_verilog] {
                assert_eq!(r.netlist.evaluate_outputs(&[input]), vec![!input]);
            }
        }
        // Unknown format names are a typed error, not a panic.
        let (_, err) = parse(r#"{"id":"x","format":"edif","circuit":"x"}"#).expect_err("rejected");
        assert_eq!(err.kind(), "bad_request");
    }

    #[test]
    fn path_requests_infer_format_and_accept_binary() {
        // A binary AIGER inverter: one implicit input (variable 1),
        // output literal 3, no ANDs.
        let dir = std::env::temp_dir().join(format!("tbf-serve-fmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("inv.aig");
        std::fs::write(&path, b"aig 1 1 0 1 0\n3\n").expect("write");
        let line = format!(r#"{{"id":"p","path":"{}"}}"#, path.display());
        let r = parse(&line).expect("binary aig parses via path inference");
        assert_eq!(r.netlist.outputs().len(), 1);

        // Extension-less path falls back to content sniffing.
        let sniffed = dir.join("inv_no_ext");
        std::fs::write(&sniffed, b"aag 1 1 0 1 0\n2\n3\n").expect("write");
        let line = format!(r#"{{"id":"s","path":"{}"}}"#, sniffed.display());
        let r = parse(&line).expect("sniffed aag parses");
        assert_eq!(r.netlist.outputs().len(), 1);

        // An explicit `format` member overrides the extension.
        let mislabeled = dir.join("bench_in_disguise.blif");
        std::fs::write(&mislabeled, b"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n").expect("write");
        let line = format!(
            r#"{{"id":"o","format":"bench","path":"{}"}}"#,
            mislabeled.display()
        );
        let r = parse(&line).expect("explicit format overrides extension");
        assert_eq!(r.netlist.gate_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_kinds_are_stable() {
        let cases: Vec<(&str, &str)> = vec![
            ("not json", "malformed_frame"),
            ("[1,2]", "malformed_frame"),
            (r#"{"circuit":"x"}"#, "malformed_frame"),
            (
                r#"{"id":"r","schema":9,"circuit":"x"}"#,
                "unsupported_schema",
            ),
            (
                r#"{"id":"r","model":"floating","circuit":"x"}"#,
                "bad_request",
            ),
            (r#"{"id":"r"}"#, "bad_request"),
            (r#"{"id":"r","circuit":"x","path":"y"}"#, "bad_request"),
            (r#"{"id":"r","circuit":"not a netlist"}"#, "bad_request"),
        ];
        for (line, kind) in cases {
            let (_, err) = parse(line).expect_err(line);
            assert_eq!(err.kind(), kind, "{line}");
        }
    }

    #[test]
    fn session_and_kind_members_parse() {
        let plain = parse(&req_line("p")).expect("parses");
        assert!(plain.session.is_none());
        assert!(!plain.eco);
        let establish =
            parse(r#"{"id":"e","session":"s1","circuit":"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n"}"#)
                .expect("parses");
        assert_eq!(establish.session.as_deref(), Some("s1"));
        assert!(!establish.eco);
        let eco = parse(
            r#"{"id":"q","kind":"eco","session":"s1","circuit":"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n"}"#,
        )
        .expect("parses");
        assert!(eco.eco);
        for (line, kind) in [
            (
                r#"{"id":"r","kind":"eco","circuit":"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n"}"#,
                "bad_request",
            ),
            (
                r#"{"id":"r","kind":"mystery","circuit":"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n"}"#,
                "bad_request",
            ),
            (
                r#"{"id":"r","session":"","circuit":"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n"}"#,
                "bad_request",
            ),
        ] {
            let (_, err) = parse(line).expect_err(line);
            assert_eq!(err.kind(), kind, "{line}");
        }
    }

    #[test]
    fn eco_effort_renders_only_on_session_responses() {
        let eco = EcoEffort {
            reused: 3,
            recomputed: 1,
            changed: Some(1),
        };
        let with = effort_value(false, 1, 0, 0, Some(eco));
        assert_eq!(
            with.get("eco").and_then(|e| e.get("reused")),
            Some(&Value::u64(3))
        );
        assert_eq!(
            with.get("eco").and_then(|e| e.get("changed")),
            Some(&Value::u64(1))
        );
        let without = effort_value(false, 1, 0, 0, None);
        assert!(without.get("eco").is_none());
    }

    #[test]
    fn responses_validate_and_strip_effort() {
        let ok = ok_response("r1", Value::Obj(vec![]), effort_value(true, 1, 0, 0, None));
        let doc = validate_response(&ok).expect("valid");
        assert!(doc.get("effort").is_some());
        assert!(deterministic_view(&doc).get("effort").is_none());
        let err = error_response(None, &ServeError::ShuttingDown);
        let doc = validate_response(&err).expect("valid");
        assert_eq!(doc.get("id"), Some(&Value::Null));
        assert!(validate_response("{}").is_err());
        assert!(validate_response("garbage").is_err());
    }
}
