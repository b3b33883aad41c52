//! Per-layer attribution for a traced run.
//!
//! The benchmark adds no tracing inside the program. Instead it records
//! spans in its own code around the calls it makes into each layer's
//! public functions: the objective during the traced load phase, and,
//! after it, a replay of a sample of the phase's sessions through the
//! same functions the daemon calls for them — RSL parsing,
//! classification, warm start, kernel or engine steps, the session
//! snapshot a ring ships, the copy-on-write publish, the journal append,
//! and the wire codec on the session's recorded message mix. Server time
//! and ring shipping come from the daemon's own metrics.

use crate::inputs;
use crate::load::{Phase, SessionRecord, StateDir};
use crate::{stats, Metric, Options, Workload};
use harmony::history::wal::{self, WalWriter};
use harmony::history::{DataAnalyzer, ExperienceDb, RunHistory};
use harmony::report::TraceEntry;
use harmony::tuner::{TrainingMode, Tuner, TuningOptions, TuningSession};
use harmony_engines::{registry, SearchEngine};
use harmony_net::codec::{encode_frame_as, try_decode_frame, FrameOutcome};
use harmony_net::protocol::{Request, Response, SpaceSpec};
use harmony_net::WireFormat;
use harmony_space::{parse_rsl, Configuration, ParameterSpace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The daemon's training mode (`DaemonConfig::default().training`).
const TRAINING: TrainingMode = TrainingMode::Replay(12);

/// Span durations by name, recorded around calls into the program.
#[derive(Default)]
struct Spans {
    by_name: BTreeMap<&'static str, Vec<Duration>>,
}

impl Spans {
    /// Run `f` inside a span named `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.record(name, t.elapsed());
        v
    }

    /// Record a span measured elsewhere.
    fn record(&mut self, name: &'static str, d: Duration) {
        self.by_name.entry(name).or_default().push(d);
    }

    /// Fold another recorder's spans into this one.
    fn merge(&mut self, other: Spans) {
        for (name, mut spans) in other.by_name {
            self.by_name.entry(name).or_default().append(&mut spans);
        }
    }

    fn total(&self, name: &str) -> Duration {
        self.by_name
            .get(name)
            .map_or(Duration::ZERO, |v| v.iter().sum())
    }

    fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Vec::len)
    }

    /// Mean span duration in seconds (0 without spans).
    fn mean_s(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total(name).as_secs_f64() / n as f64,
        }
    }
}

/// The session snapshot a ring member ships on every step, shaped like
/// the daemon's persisted session: the simplex kernel whole, or an
/// engine's name, space, budget and trace.
#[derive(Deserialize)]
#[allow(dead_code)] // decoded for its cost; the fields are never read
struct SessionSnapshot {
    token: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    session: Option<TuningSession>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    engine: Option<EngineSnapshot>,
    label: String,
    characteristics: Vec<f64>,
    prior: Option<RunHistory>,
    next_seq: u64,
}

#[derive(Deserialize)]
#[allow(dead_code)]
struct EngineSnapshot {
    name: String,
    space: ParameterSpace,
    budget: usize,
    trace: Vec<TraceEntry>,
}

/// Borrowed [`SessionSnapshot`], serialized without cloning the kernel.
struct SnapshotRef<'a> {
    token: &'a str,
    kernel: KernelRef<'a>,
    label: &'a str,
    characteristics: &'a [f64],
    prior: &'a Option<RunHistory>,
    next_seq: u64,
}

enum KernelRef<'a> {
    Simplex(&'a TuningSession),
    Engine {
        name: &'a str,
        space: &'a ParameterSpace,
        budget: usize,
        trace: &'a [TraceEntry],
    },
}

impl Serialize for SnapshotRef<'_> {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("token".into(), self.token.to_value());
        match &self.kernel {
            KernelRef::Simplex(session) => {
                m.insert("session".into(), session.to_value());
            }
            KernelRef::Engine {
                name,
                space,
                budget,
                trace,
            } => {
                let mut e = serde::Map::new();
                e.insert("name".into(), name.to_value());
                e.insert("space".into(), space.to_value());
                e.insert("budget".into(), budget.to_value());
                e.insert("trace".into(), trace.to_value());
                m.insert("engine".into(), serde::Value::Object(e));
            }
        }
        m.insert("label".into(), self.label.to_value());
        m.insert("characteristics".into(), self.characteristics.to_value());
        m.insert("prior".into(), self.prior.to_value());
        m.insert("next_seq".into(), self.next_seq.to_value());
        serde::Value::Object(m)
    }
}

/// The search a replayed session runs.
#[allow(clippy::large_enum_variant)] // one per replayed session; boxing buys nothing
enum Kernel {
    Simplex(TuningSession),
    Engine(Box<dyn SearchEngine + Send>, Vec<TraceEntry>),
}

impl Kernel {
    fn next_config(&mut self) -> Option<Configuration> {
        match self {
            Kernel::Simplex(s) => s.next_config(),
            Kernel::Engine(e, _) => e.next_config(),
        }
    }

    fn observe(&mut self, config: Configuration, performance: f64) {
        match self {
            Kernel::Simplex(s) => s.observe(performance).expect("a proposal is outstanding"),
            Kernel::Engine(e, trace) => {
                e.observe(performance).expect("a proposal is outstanding");
                trace.push(TraceEntry {
                    iteration: trace.len(),
                    config,
                    performance,
                });
            }
        }
    }

    /// Span name of one ask–tell step.
    fn step_span(&self) -> &'static str {
        match self {
            Kernel::Simplex(_) => "kernel.step",
            Kernel::Engine(..) => "engine.step",
        }
    }
}

/// The run the daemon records for a session: its live trace.
fn recorded_run(record: &SessionRecord, characteristics: &[f64]) -> RunHistory {
    let mut run = RunHistory::new(format!("run-{}", record.index), characteristics.to_vec());
    for (values, &performance) in record.configs.iter().zip(&record.performances) {
        run.push(&Configuration::new(values.clone()), performance);
    }
    run
}

/// The frames one session exchanged, rebuilt from what the client sent
/// and received.
fn message_mix(
    record: &SessionRecord,
    spec: &inputs::SessionSpec,
    space: &ParameterSpace,
) -> (Vec<Request>, Vec<Response>) {
    let mut requests = vec![Request::SessionStart {
        space: SpaceSpec::Rsl(spec.rsl.clone()),
        label: spec.label.clone(),
        characteristics: spec.characteristics.clone(),
        max_iterations: spec.budget,
        engine: spec.engine.clone(),
    }];
    let mut responses = vec![Response::SessionStarted {
        space: space.clone(),
        trained_from: record.trained_from.clone(),
        training_iterations: record.training_iterations,
        session_token: record.token.clone(),
    }];
    for (i, (values, &performance)) in record.configs.iter().zip(&record.performances).enumerate() {
        requests.push(Request::Fetch);
        responses.push(Response::Config {
            values: values.clone(),
            iteration: i,
        });
        requests.push(Request::Report {
            performance,
            seq: Some(i as u64),
        });
        responses.push(Response::Reported);
    }
    requests.push(Request::Fetch);
    responses.push(Response::Done);
    requests.push(Request::SessionEnd);
    responses.push(Response::SessionSummary {
        values: record.best.clone(),
        performance: record.performance,
        iterations: record.iterations,
        converged: record.converged,
    });
    (requests, responses)
}

/// Encode and decode a session's message mix in the v3 binary format,
/// returning the summed encode and decode time and the frame bytes.
fn replay_wire(requests: &[Request], responses: &[Response]) -> (Duration, Duration, usize) {
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(requests.len() + responses.len());
    let t = Instant::now();
    for r in requests {
        let mut buf = Vec::new();
        encode_frame_as(WireFormat::Binary, r, &mut buf).expect("request encodes");
        frames.push(buf);
    }
    for r in responses {
        let mut buf = Vec::new();
        encode_frame_as(WireFormat::Binary, r, &mut buf).expect("response encodes");
        frames.push(buf);
    }
    let encode = t.elapsed();
    let bytes = frames.iter().map(Vec::len).sum();
    let (req, resp) = frames.split_at(requests.len());
    let t = Instant::now();
    for (frame, sent) in req.iter().zip(requests) {
        match try_decode_frame::<Request>(WireFormat::Binary, frame) {
            Ok(FrameOutcome::Frame { result: Ok(r), .. }) => assert_eq!(&r, sent),
            _ => panic!("a request frame failed to decode"),
        }
    }
    for frame in resp {
        match try_decode_frame::<Response>(WireFormat::Binary, frame) {
            Ok(FrameOutcome::Frame { result: Ok(r), .. }) => {
                std::hint::black_box(r);
            }
            _ => panic!("a response frame failed to decode"),
        }
    }
    (encode, t.elapsed(), bytes)
}

/// What the daemon's metrics said about one phase.
pub struct ServerView {
    /// Stats exposition before the phase.
    pub before: String,
    /// Stats exposition after the phase.
    pub after: String,
    /// Largest member database at the end of the phase.
    pub db_runs: usize,
}

impl ServerView {
    /// How much a metric's samples grew over the phase.
    pub fn delta(&self, name: &str, label: Option<&str>) -> f64 {
        stats::series(&self.after, name, label) - stats::series(&self.before, name, label)
    }
}

/// Spans on the blocking path of a session's client-observed time on
/// every workload; a ring adds the snapshot round trip.
const ON_PATH: [&str; 9] = [
    "space.resolve",
    "history.classify",
    "tuner.warm_start",
    "kernel.step",
    "engine.step",
    "tuner.finish",
    "history.publish",
    "wire.encode",
    "wire.decode",
];

/// Where no ring ships snapshots, one in this many is round-tripped.
const SNAPSHOT_SAMPLE: usize = 16;

/// What replaying one session's search produced.
struct Replayed {
    space: ParameterSpace,
    snapshot_bytes: usize,
    snapshots: usize,
}

/// Re-run one session's search the way the daemon ran it: parse the
/// RSL, classify against the database as it stood when the session
/// started, warm-start, step the kernel or engine against the session's
/// objective, and round-trip the session snapshot a ring ships after
/// `SessionStart` and after every `Fetch` and `Report`.
fn replay_session(
    spans: &mut Spans,
    spec: &inputs::SessionSpec,
    record: &SessionRecord,
    mirror: &ExperienceDb,
    ships_snapshots: bool,
) -> Result<Replayed, String> {
    let space = spans
        .time("space.resolve", || parse_rsl(&spec.rsl))
        .map_err(|e| format!("session RSL: {e}"))?;
    let shape = |run: &RunHistory| run.records.iter().all(|r| r.values.len() == space.len());
    let index = mirror.build_index();
    let prior = spans.time("history.classify", || {
        inputs::analyzer()
            .select_with(mirror, Some(&index), &spec.characteristics)
            .filter(shape)
    });
    let budget = spec.effective_budget();
    let tuner = Tuner::new(
        space.clone(),
        TuningOptions::improved().with_max_iterations(budget),
    );
    let mut kernel = match &spec.engine {
        Some(name) => {
            let engine_spec = registry::lookup(name).map_err(|e| e.to_string())?;
            let mut engine = engine_spec.build(space.clone(), budget, registry::DEFAULT_SEED);
            if let Some(p) = &prior {
                engine.warm_start(p);
            }
            Kernel::Engine(engine, Vec::new())
        }
        None => match &prior {
            Some(p) => Kernel::Simplex(
                spans.time("tuner.warm_start", || tuner.session_trained(p, TRAINING)),
            ),
            None => {
                // The gate kept the session cold: time the warm start
                // it avoided, against the nearest run of the same shape.
                let nearest = DataAnalyzer::new()
                    .select_with(mirror, Some(&index), &spec.characteristics)
                    .filter(shape);
                if let Some(nearest) = nearest {
                    let t = Instant::now();
                    std::hint::black_box(tuner.session_trained(&nearest, TRAINING));
                    spans.record("tuner.warm_start.bypassed", t.elapsed());
                }
                Kernel::Simplex(tuner.session())
            }
        },
    };

    let token = record.token.clone().unwrap_or_default();
    let engine_name = spec.engine.as_deref().unwrap_or("simplex");
    let mut snapshot_bytes = 0;
    let mut snapshots = 0;
    // Off the ring the round trip is what shipping would cost; a sample
    // of the steps shows it without replaying every one.
    let every = if ships_snapshots { 1 } else { SNAPSHOT_SAMPLE };
    let mut ships = 0usize;
    let mut ship = |spans: &mut Spans, kernel: &Kernel, next_seq: u64| {
        ships += 1;
        if !(ships - 1).is_multiple_of(every) {
            return Ok(());
        }
        let snapshot = SnapshotRef {
            token: &token,
            kernel: match kernel {
                Kernel::Simplex(s) => KernelRef::Simplex(s),
                Kernel::Engine(e, trace) => KernelRef::Engine {
                    name: engine_name,
                    space: e.space(),
                    budget,
                    trace,
                },
            },
            label: &spec.label,
            characteristics: &spec.characteristics,
            prior: &prior,
            next_seq,
        };
        let text = spans.time("cluster.snapshot_encode", || {
            serde_json::to_string(&snapshot).expect("a session snapshot serializes")
        });
        snapshot_bytes += text.len();
        snapshots += 1;
        spans
            .time("cluster.snapshot_decode", || {
                serde_json::from_str::<SessionSnapshot>(&text)
            })
            .map(drop)
            .map_err(|e| format!("session snapshot decode: {e}"))
    };

    let step_span = kernel.step_span();
    let mut objective = spec.objective();
    let mut next_seq = 0u64;
    ship(spans, &kernel, next_seq)?;
    loop {
        let t = Instant::now();
        let proposal = kernel.next_config();
        let asked = t.elapsed();
        let Some(config) = proposal else {
            spans.record(step_span, asked);
            break;
        };
        ship(spans, &kernel, next_seq)?;
        let performance = objective.measure(config.values());
        let t = Instant::now();
        kernel.observe(config, performance);
        spans.record(step_span, asked + t.elapsed());
        next_seq += 1;
        ship(spans, &kernel, next_seq)?;
    }
    if let Kernel::Simplex(session) = kernel {
        spans.time("tuner.finish", || session.finish());
    }
    Ok(Replayed {
        space,
        snapshot_bytes,
        snapshots,
    })
}

/// warm-start drives no engine sessions; step the tuneful engine on the
/// same space and objective to time the `engine.step` it bypasses.
fn replay_engine_bypass(spans: &mut Spans, spec: &inputs::SessionSpec, space: &ParameterSpace) {
    let engine_spec = registry::lookup("tuneful").expect("tuneful is registered");
    let mut engine = engine_spec.build(
        space.clone(),
        spec.effective_budget(),
        registry::DEFAULT_SEED,
    );
    let mut objective = spec.objective();
    loop {
        let t = Instant::now();
        let Some(config) = engine.next_config() else {
            break;
        };
        let asked = t.elapsed();
        let performance = objective.measure(config.values());
        let t = Instant::now();
        engine
            .observe(performance)
            .expect("a proposal is outstanding");
        spans.record("engine.step", asked + t.elapsed());
    }
}

/// Replay one traced round's `phase` layer by layer and derive the
/// per-layer metrics; [`whole_run`] adds the rest.
pub fn attribute(
    opts: &Options,
    phase: &Phase,
    server: &ServerView,
    state: &StateDir,
) -> Result<Vec<Metric>, String> {
    let (workload, seed, scale) = (opts.workload, opts.seed, &opts.scale);
    let mut spans = Spans::default();

    // The seeded snapshot, loaded and indexed as the daemon does at start.
    let mut mirror = spans
        .time("history.load", || {
            wal::load_with_wal(state.pristine(), state.scratch("none.wal"))
        })
        .map_err(|e| format!("load seeded snapshot: {e}"))?;
    spans.time("history.index_build", || mirror.build_index());

    // Server time per Fetch/Report from the daemon's own histograms; the
    // rest of the client's median round trip is socket, reactor and
    // queueing.
    let fetch_report =
        |name: &str| server.delta(name, Some("Fetch")) + server.delta(name, Some("Report"));
    let served = fetch_report("harmony_net_request_seconds_count");
    let server_us = match served {
        c if c > 0.0 => fetch_report("harmony_net_request_seconds_sum") / c * 1e6,
        _ => 0.0,
    };
    let rpc_p50_us = stats::percentile(&phase.rpc, 0.50).as_secs_f64() * 1e6;
    // Attribution sums times, so it charges each round trip the mean
    // residual rather than the median one the metric reports.
    let rpc_mean_us = stats::mean(&phase.rpc).as_secs_f64() * 1e6;
    let residual = Duration::from_secs_f64((rpc_mean_us - server_us).max(0.0) * 1e-6);

    let mut writer =
        WalWriter::open(state.scratch("replay.wal")).map_err(|e| format!("open journal: {e}"))?;
    let (mut frame_bytes, mut messages, mut replayed_rpcs) = (0, 0, 0);
    let (mut snapshot_bytes, mut snapshots) = (0, 0);
    let (mut attributed, mut observed) = (Duration::ZERO, Duration::ZERO);
    let ships_snapshots = workload == Workload::Replicated;

    // Runs join the mirror in the order the daemon recorded them.
    let mut by_end: Vec<&SessionRecord> = phase.sessions.iter().collect();
    by_end.sort_by_key(|s| s.ended);
    let mut recorded = by_end.into_iter().peekable();
    let add_run = |mirror: &mut ExperienceDb, done: &SessionRecord| {
        let spec = inputs::session(workload, seed, done.index, scale);
        mirror.add_run(recorded_run(done, &spec.characteristics));
    };
    let stride = (phase.sessions.len() / scale.replayed.max(1)).max(1);

    for (n, record) in phase.sessions.iter().enumerate() {
        while let Some(done) = recorded.next_if(|s| s.ended <= record.started) {
            add_run(&mut mirror, done);
        }
        if n % stride != 0 {
            continue;
        }
        let spec = inputs::session(workload, seed, record.index, scale);
        let mut session = Spans::default();
        let replayed = replay_session(&mut session, &spec, record, &mirror, ships_snapshots)?;
        snapshot_bytes += replayed.snapshot_bytes;
        snapshots += replayed.snapshots;

        let run = recorded_run(record, &spec.characteristics);
        session.time("history.publish", || {
            let mut next = mirror.clone();
            next.add_run(run.clone());
            next.build_index()
        });
        session
            .time("wal.append", || writer.append_run(&run))
            .map_err(|e| format!("journal append: {e}"))?;

        let (requests, responses) = message_mix(record, &spec, &replayed.space);
        let (encode, decode, bytes) = replay_wire(&requests, &responses);
        session.record("wire.encode", encode);
        session.record("wire.decode", decode);
        messages += requests.len() + responses.len();
        frame_bytes += bytes;
        replayed_rpcs += requests.len();

        // What this session's client-observed time is attributed to.
        let mut on_path = ON_PATH.to_vec();
        if ships_snapshots {
            on_path.extend(["cluster.snapshot_encode", "cluster.snapshot_decode"]);
        }
        attributed += on_path
            .iter()
            .map(|name| session.total(name))
            .sum::<Duration>();
        attributed += record.objective + residual * requests.len() as u32;
        observed += record.wall;
        spans.merge(session);
        if workload == Workload::WarmStart {
            replay_engine_bypass(&mut spans, &spec, &replayed.space);
        }
    }

    let wal_bytes = std::fs::metadata(writer.path()).map_or(0, |m| m.len());
    // Compaction at the database size the run ended with.
    for done in recorded {
        add_run(&mut mirror, done);
    }
    spans
        .time("wal.compact", || {
            wal::compact(&mirror, state.scratch("replay.json"), &mut writer)
        })
        .map_err(|e| format!("compact: {e}"))?;

    let sessions = phase.sessions.len().max(1) as f64;
    let matched = phase
        .sessions
        .iter()
        .filter(|s| s.trained_from.is_some())
        .count();
    let training: usize = phase.sessions.iter().map(|s| s.training_iterations).sum();
    let warm_start_us = match spans.count("tuner.warm_start") {
        0 => spans.mean_s("tuner.warm_start.bypassed"),
        _ => spans.mean_s("tuner.warm_start"),
    } * 1e6;
    let objective_us = stats::mean(&phase.objective).as_secs_f64() * 1e6;
    let per = |total: f64, n: usize| total / n.max(1) as f64;
    let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64().max(1e-12);

    Ok(vec![
        Metric::new(
            "wire.encode_ns",
            per(spans.total("wire.encode").as_nanos() as f64, messages),
            "ns",
        ),
        Metric::new(
            "wire.decode_ns",
            per(spans.total("wire.decode").as_nanos() as f64, messages),
            "ns",
        ),
        Metric::new(
            "wire.bytes_per_rpc",
            per(frame_bytes as f64, replayed_rpcs),
            "bytes",
        ),
        Metric::new("server.request_us", server_us, "us"),
        Metric::new("net.residual_us", rpc_p50_us - server_us, "us"),
        Metric::new(
            "space.resolve_us",
            spans.mean_s("space.resolve") * 1e6,
            "us",
        ),
        Metric::new(
            "history.classify_us",
            spans.mean_s("history.classify") * 1e6,
            "us",
        ),
        Metric::new("history.match_ratio", matched as f64 / sessions, "ratio"),
        Metric::new(
            "history.publish_ms",
            spans.mean_s("history.publish") * 1e3,
            "ms",
        ),
        Metric::new("history.load_s", spans.mean_s("history.load"), "s"),
        Metric::new(
            "history.index_build_ms",
            spans.mean_s("history.index_build") * 1e3,
            "ms",
        ),
        Metric::new("history.db_runs", server.db_runs as f64, "count"),
        Metric::new("wal.append_us", spans.mean_s("wal.append") * 1e6, "us"),
        Metric::new(
            "wal.bytes_per_run",
            per(wal_bytes as f64, spans.count("wal.append")),
            "bytes",
        ),
        Metric::new("wal.compact_ms", spans.mean_s("wal.compact") * 1e3, "ms"),
        Metric::new("tuner.warm_start_us", warm_start_us, "us"),
        Metric::new(
            "tuner.training_iterations",
            training as f64 / sessions,
            "count",
        ),
        Metric::new("kernel.step_us", spans.mean_s("kernel.step") * 1e6, "us"),
        Metric::new("tuner.finish_us", spans.mean_s("tuner.finish") * 1e6, "us"),
        Metric::new("engine.step_us", spans.mean_s("engine.step") * 1e6, "us"),
        Metric::new(
            "cluster.snapshot_bytes",
            per(snapshot_bytes as f64, snapshots),
            "bytes",
        ),
        Metric::new(
            "cluster.snapshot_encode_us",
            spans.mean_s("cluster.snapshot_encode") * 1e6,
            "us",
        ),
        Metric::new(
            "cluster.snapshot_decode_us",
            spans.mean_s("cluster.snapshot_decode") * 1e6,
            "us",
        ),
        Metric::new(
            "cluster.ships_per_rpc",
            per(
                server.delta("harmony_net_peer_sessions_shipped_total", None),
                phase.completed_rpcs(),
            ),
            "ratio",
        ),
        Metric::new(
            "cluster.ship_failures",
            server.delta("harmony_net_peer_ship_failures_total", None),
            "count",
        ),
        Metric::new("websim.evaluate_us", objective_us, "us"),
        Metric::new("attributed_ratio", ratio(attributed, observed), "ratio"),
    ])
}

/// Append the metrics of the whole traced run to `metrics`: the tracing
/// overhead, as CPU time per session of every `traced` round over that
/// of every `untraced` one, and the failed share of both.
pub fn whole_run(mut metrics: Vec<Metric>, traced: &Phase, untraced: &Phase) -> Vec<Metric> {
    let cpu_per_session = |p: &Phase| p.cpu.as_secs_f64() / p.sessions.len().max(1) as f64;
    metrics.push(Metric::new(
        "trace_overhead_ratio",
        cpu_per_session(traced) / cpu_per_session(untraced).max(1e-12),
        "ratio",
    ));
    metrics.push(Metric::new(
        "failed_ratio",
        (traced.failed + untraced.failed) as f64
            / (traced.attempted + untraced.attempted).max(1) as f64,
        "ratio",
    ));
    metrics
}
