//! `serve`: a seeded closed-loop request stream into one in-process
//! `tbf_serve::Session` under the default `ServeConfig`, one request in
//! flight. A pass is one lap of 251 frames in seeded order: repeats of
//! the corpus circuits (warm-cache hits), new variants with one gate's
//! max delay widened (misses that write the cache) and one-gate `eco`
//! edits of established sessions (cone reuse in each session's
//! `ConeStore`).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use tbf_core::{analyze, AnalysisPolicy};
use tbf_logic::parsers::bench::write_bench;
use tbf_logic::parsers::blif::write_blif;
use tbf_logic::parsers::mcnc_like_delays;
use tbf_logic::{parse_netlist, DelayBounds, Format, GateKind, Netlist, Time};
use tbf_obs::json::Value;
use tbf_serve::protocol::{parse_request, report_value, FrameLimits};
use tbf_serve::{ServeConfig, Session};

use crate::expected::CORPUS;
use crate::measure::{quantile, secs, Rng};
use crate::trace::Sample;
use crate::{Args, Run, BEST, SETUP_REPS};

/// The corpus circuits that are only ever repeated. Their one-gate
/// variants take 40-300 ms each, so a few of them would be most of a
/// lap's time and their spread most of its noise; and most of their
/// cones reach any edited gate, so an eco edit of one is nearly a cold
/// analysis.
const HITS_ONLY: [&str; 3] = ["adder_bypass_2x8", "adder_bypass_4x4", "adder_select_4x8"];

/// The circuits that carry an ECO session: the multi-output ones outside
/// [`HITS_ONLY`].
const ECO_CIRCUITS: [&str; 6] = [
    "adder_ripple_16",
    "adder_select_4x4",
    "decoder_5",
    "barrel_shifter_3",
    "random_dag_8x48",
    "random_dag_10x64",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Eco,
}

/// Per lap (one pass): repeats of each corpus circuit, new variants of
/// each corpus circuit but [`HITS_ONLY`], and edits of each ECO circuit:
/// 182 + 33 + 36 = 251 frames, a 73/13/14 mix.
const HITS: usize = 13;
const MISSES: usize = 3;
const ECOS: usize = 6;

/// A miss widens one gate's max delay by 1..=MISS_STEPS × MISS_STEP
/// (up to a quarter unit), so even `c17` has 1500 distinct variants.
/// Wider edits can multiply the number of near-critical paths: one
/// gate of `random_dag_10x64` widened by 1.8 units takes 14 s.
const MISS_STEPS: usize = 250;
const MISS_STEP: i64 = Time::from_int(1).scaled() / 1000;

/// An ECO edit widens one gate's max delay by a quarter unit.
const ECO_STEP: i64 = Time::from_int(1).scaled() / 4;

/// A netlist the stream sends: corpus circuit, plus the widened gate
/// (ordinal among the logic gates) and the widening in fixed point.
type Key = (usize, Option<(usize, i64)>);

struct Base {
    name: &'static str,
    format: Format,
    netlist: Netlist,
    text: String,
    /// Node ids of the gates a variant may widen.
    gates: Vec<usize>,
}

fn format_name(format: Format) -> &'static str {
    match format {
        Format::Blif => "blif",
        _ => "bench",
    }
}

fn load_bases() -> Result<Vec<Base>, String> {
    CORPUS
        .iter()
        .map(|&(name, path, _)| {
            let path = std::path::PathBuf::from("benchmarks").join(path);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e} (run from the repository root)", path.display()))?;
            let format = if path.extension().is_some_and(|e| e == "blif") {
                Format::Blif
            } else {
                Format::Bench
            };
            let netlist = parse_netlist(format, text.as_bytes(), mcnc_like_delays)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let gates = netlist
                .nodes()
                .filter(|(_, n)| {
                    !matches!(
                        n.kind(),
                        GateKind::Input | GateKind::Const0 | GateKind::Const1
                    )
                })
                .map(|(id, _)| id.index())
                .collect();
            Ok(Base {
                name,
                format,
                netlist,
                text,
                gates,
            })
        })
        .collect()
}

/// `base` with one gate's max delay widened by `by`.
fn widen(base: &Base, gate: usize, by: Time) -> Result<String, String> {
    let target = base.gates[gate];
    let net = &base.netlist;
    let mut b = Netlist::builder();
    let mut map = Vec::with_capacity(net.len());
    for (id, node) in net.nodes() {
        let new_id = if node.kind() == GateKind::Input {
            b.input(node.name())
        } else {
            let fanins = node.fanins().iter().map(|f| map[f.index()]).collect();
            let mut delay = node.delay();
            if id.index() == target {
                delay = DelayBounds::new(delay.min, delay.max + by);
            }
            b.gate(node.kind(), node.name(), fanins, delay)
                .map_err(|e| e.to_string())?
        };
        map.push(new_id);
    }
    for (name, id) in net.outputs() {
        b.output(name, map[id.index()]);
    }
    let variant = b.finish().map_err(|e| e.to_string())?;
    match base.format {
        Format::Blif => write_blif(&variant, base.name),
        _ => write_bench(&variant),
    }
    .map_err(|e| format!("{}: {e}", base.name))
}

fn frame(id: &str, text: &str, format: Format, session: Option<&str>, eco: bool) -> String {
    let mut members = vec![
        ("id".to_owned(), Value::str(id)),
        ("circuit".to_owned(), Value::str(text)),
        ("format".to_owned(), Value::str(format_name(format))),
    ];
    if let Some(s) = session {
        members.push(("session".to_owned(), Value::str(s)));
    }
    if eco {
        members.push(("kind".to_owned(), Value::str("eco")));
    }
    Value::Obj(members).to_string()
}

fn session_name(base: &Base) -> String {
    format!("eco-{}", base.name)
}

/// A fresh session, warmed: every corpus circuit answered once (so the
/// repeats hit) and every ECO session established.
fn warm_session(bases: &[Base], eco: &[usize]) -> Result<Session, String> {
    let mut session = Session::new(ServeConfig::default());
    let mut lines = Vec::new();
    for (i, b) in bases.iter().enumerate() {
        lines.push(frame(&format!("warm{i}"), &b.text, b.format, None, false));
    }
    for &i in eco {
        let b = &bases[i];
        let name = session_name(b);
        lines.push(frame(
            &format!("establish{i}"),
            &b.text,
            b.format,
            Some(&name),
            false,
        ));
    }
    for line in &lines {
        let response = session.handle_line(line);
        if !response.contains(r#""status":"ok""#) {
            return Err(format!("warm-up request failed: {response}"));
        }
    }
    Ok(session)
}

struct Planned {
    kind: Kind,
    key: Key,
    text: String,
    frame: String,
}

/// The netlist text of `key`: the corpus file, or a one-gate variant.
fn text_of(bases: &[Base], key: Key) -> Result<String, String> {
    let base = &bases[key.0];
    match key.1 {
        None => Ok(base.text.clone()),
        Some((gate, by)) => widen(base, gate, Time::from_scaled(by)),
    }
}

/// The seeded request generator. The program sees only its frames.
struct Stream {
    rng: Rng,
    used: HashSet<Key>,
    sent: u64,
}

impl Stream {
    /// One lap (one pass): every corpus circuit repeated [`HITS`] times
    /// and (but [`HITS_ONLY`]) varied [`MISSES`] times, every ECO
    /// circuit edited [`ECOS`] times, in seeded order.
    fn lap(&mut self, bases: &[Base], eco: &[usize]) -> Result<Vec<Planned>, String> {
        let mut plan: Vec<(Kind, usize)> = Vec::new();
        for (i, base) in bases.iter().enumerate() {
            plan.extend(std::iter::repeat_n((Kind::Hit, i), HITS));
            if !HITS_ONLY.contains(&base.name) {
                plan.extend(std::iter::repeat_n((Kind::Miss, i), MISSES));
            }
        }
        for &i in eco {
            plan.extend(std::iter::repeat_n((Kind::Eco, i), ECOS));
        }
        self.rng.shuffle(&mut plan);
        plan.into_iter()
            .map(|(kind, i)| {
                self.sent += 1;
                let base = &bases[i];
                let gates = base.gates.len();
                let key = match kind {
                    Kind::Hit => (i, None),
                    // A miss must be new to the warm cache.
                    Kind::Miss => {
                        let used = self.used.iter().filter(|k| k.0 == i).count();
                        if used == gates * MISS_STEPS {
                            return Err(format!("{}: every miss variant is spent", base.name));
                        }
                        loop {
                            let step = 1 + self.rng.below(MISS_STEPS) as i64;
                            let key = (i, Some((self.rng.below(gates), step * MISS_STEP)));
                            if self.used.insert(key) {
                                break key;
                            }
                        }
                    }
                    Kind::Eco => (i, Some((self.rng.below(gates), ECO_STEP))),
                };
                let text = text_of(bases, key)?;
                let session = (kind == Kind::Eco).then(|| session_name(base));
                let id = format!("r{}", self.sent);
                let frame = frame(
                    &id,
                    &text,
                    base.format,
                    session.as_deref(),
                    kind == Kind::Eco,
                );
                Ok(Planned {
                    kind,
                    key,
                    text,
                    frame,
                })
            })
            .collect()
    }
}

/// A fingerprint of a `result` member, so that the answers kept for the
/// checks do not add to the run's resident memory.
fn fingerprint(result: &str) -> u64 {
    let mut h = DefaultHasher::new();
    result.hash(&mut h);
    h.finish()
}

/// Reads a response: the fingerprint of its `result`, or why it counts
/// as a failure.
fn read_response(kind: Kind, response: &str) -> Result<u64, String> {
    let doc = Value::parse(response).map_err(|_| format!("unparsable response {response}"))?;
    if doc.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("error response {response}"));
    }
    let effort = doc.get("effort");
    let cached = effort.and_then(|e| e.get("cached")) == Some(&Value::Bool(true));
    let panics = effort
        .and_then(|e| e.get("panics_caught"))
        .and_then(Value::as_u64);
    if panics != Some(0) {
        return Err(format!("panics caught: {panics:?}"));
    }
    if cached != (kind == Kind::Hit) {
        return Err(format!("a {} answered cached: {cached}", kind_name(kind)));
    }
    let result = doc.get("result").ok_or("a response without a result")?;
    Ok(fingerprint(&result.to_string()))
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Hit => "hit",
        Kind::Miss => "miss",
        Kind::Eco => "eco",
    }
}

pub fn run(args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let mut bases = Vec::new();
    let mut eco = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        bases = load_bases()?;
        eco = ECO_CIRCUITS
            .iter()
            .map(|n| bases.iter().position(|b| b.name == *n))
            .collect::<Option<_>>()
            .ok_or("an ECO circuit is missing from the corpus")?;
        session = Some(warm_session(&bases, &eco)?);
        run.setup_s.push(secs(started.elapsed()));
    }
    let mut session = session.ok_or("no set-up ran")?;

    let mut stream = Stream {
        rng: Rng::new(args.seed),
        used: HashSet::new(),
        sent: 0,
    };
    let cache_before = session.cache_stats();
    let workspace_before = session.workspace_stats();
    let retries_before = session.metrics().retries;
    let limits = FrameLimits {
        max_frame_bytes: ServeConfig::default().max_frame_bytes,
    };
    let defaults = ServeConfig::default().defaults;

    // How often each netlist was answered with each result.
    let mut answers: HashMap<(Key, u64), u64> = HashMap::new();
    let mut class_ms: [Vec<f64>; 3] = Default::default();
    let mut traced = Vec::new();
    let mut measured = 0.0;
    let mut lap_no = 0usize;
    while measured < args.seconds || (args.trace && traced.is_empty()) {
        let observe = args.trace && lap_no % 2 == 1;
        lap_no += 1;
        let planned = stream.lap(&bases, &eco)?;
        let mut sample = Sample::default();
        let mut responses = Vec::with_capacity(planned.len());
        let lap_started = Instant::now();
        for p in &planned {
            let started = Instant::now();
            let (response, obs) = if observe {
                let (r, o) = sample.span("_serve_s", || {
                    tbf_core::obs::observe(|| session.handle_line(&p.frame))
                });
                (r, Some(o))
            } else {
                (session.handle_line(&p.frame), None)
            };
            responses.push((response, obs, started.elapsed()));
        }
        let wall = secs(lap_started.elapsed());
        measured += wall;

        // Everything below is outside the timed interval.
        for (p, (response, obs, elapsed)) in planned.iter().zip(responses) {
            match read_response(p.kind, &response) {
                Ok(result) => *answers.entry((p.key, result)).or_default() += 1,
                Err(e) => run.judge(bases[p.key.0].name, &[e]),
            }
            let ms = secs(elapsed) * 1e3;
            if let Some(obs) = obs {
                sample.observation(&obs);
                class_ms[p.kind as usize].push(ms);
                let started = Instant::now();
                let request = parse_request(&p.frame, &limits, &defaults);
                sample.add("serve.parse_request_s", secs(started.elapsed()));
                let Ok(request) = request else { continue };
                sample.add("_parse_bytes", p.text.len() as f64);
                let format = bases[p.key.0].format;
                let started = Instant::now();
                let parsed = parse_netlist(format, p.text.as_bytes(), mcnc_like_delays);
                black_box(parsed.is_ok());
                sample.add("logic.parse_s", secs(started.elapsed()));
                sample.logic_probe(&request.netlist);
            } else {
                run.request(elapsed);
            }
        }
        if observe {
            run.trace.push(sample, wall);
            traced.push(wall);
        } else {
            run.pass_done(wall);
        }
    }

    if args.trace {
        let cache = session.cache_stats();
        let (hits, misses) = (
            cache.hits - cache_before.hits,
            cache.misses - cache_before.misses,
        );
        let ws = session.workspace_stats();
        let reused = ws.cones_reused - workspace_before.cones_reused;
        let recomputed = ws.cones_recomputed - workspace_before.cones_recomputed;
        let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
        let t = &mut run.trace.run;
        t.set("serve.latency_p50_ms.hit", quantile(&class_ms[0], 0.5));
        t.set("serve.latency_p50_ms.miss", quantile(&class_ms[1], 0.5));
        t.set("serve.latency_p50_ms.eco", quantile(&class_ms[2], 0.5));
        t.set("serve.warm_cache_hit_ratio", ratio(hits, hits + misses));
        t.set("serve.eco_reuse_ratio", ratio(reused, reused + recomputed));
        t.set(
            "serve.retries",
            (session.metrics().retries - retries_before) as f64,
        );
        t.set(
            "obs.overhead",
            quantile(&traced, BEST) / quantile(&run.passes_s, BEST),
        );
    }

    verify(&bases, &answers, &mut run);
    Ok(run)
}

/// Every answer must equal a direct `analyze` of the netlist its frame
/// carried, under the policy the session runs. Each direct analysis
/// costs about what the request it checks cost, so the distinct
/// netlists are analyzed on two workers; this runs after the last
/// timed lap.
fn verify(bases: &[Base], answers: &HashMap<(Key, u64), u64>, run: &mut Run) {
    let config = ServeConfig::default();
    let policy = AnalysisPolicy {
        options: config.defaults.clone(),
        threads: config.threads,
        ..AnalysisPolicy::default()
    };
    let direct = |key: &Key| {
        let format = bases[key.0].format;
        let reference = text_of(bases, *key).and_then(|text| {
            parse_netlist(format, text.as_bytes(), mcnc_like_delays)
                .map(|n| {
                    let report = analyze(&n, &policy);
                    let exact = report.outputs.iter().filter(|o| o.is_exact()).count();
                    (fingerprint(&report_value(&report).to_string()), exact)
                })
                .map_err(|e| e.to_string())
        });
        (*key, reference)
    };
    let mut keys: Vec<Key> = answers.keys().map(|&(key, _)| key).collect();
    keys.sort_unstable();
    keys.dedup();
    let reference: HashMap<Key, _> = std::thread::scope(|s| {
        let other = s.spawn(|| {
            keys.iter()
                .skip(1)
                .step_by(2)
                .map(direct)
                .collect::<Vec<_>>()
        });
        let mut done: Vec<_> = keys.iter().step_by(2).map(direct).collect();
        done.extend(other.join().expect("a verification worker panicked"));
        done.into_iter().collect()
    });
    for (&(key, result), &times) in answers {
        let errors = match &reference[&key] {
            Ok((r, _)) if *r == result => vec![],
            Ok(_) => vec!["the result differs from a direct analyze".to_owned()],
            Err(e) => vec![format!("the frame's netlist does not parse: {e}")],
        };
        for _ in 0..times {
            run.judge(bases[key.0].name, &errors);
        }
    }
    run.exact_outputs = reference
        .iter()
        .filter(|(key, _)| key.1.is_none())
        .filter_map(|(_, r)| r.as_ref().ok())
        .map(|(_, exact)| exact)
        .sum::<usize>() as f64;
}
