//! One repeatable benchmark for the `harmony-net` tuning daemon.
//!
//! A run is a series of rounds. Each round starts the daemon in-process
//! (a three-member ring for `replicated`) on the workload's persisted
//! state, drives a fixed set of sessions through it with a closed-loop
//! load generator — two client threads, one loopback connection each —
//! checks every session's outputs, and shuts it down. Rounds repeat for
//! about `--seconds`, and the run reports end-to-end metrics over them.
//! A traced run reports per-layer metrics instead, from spans the
//! benchmark records around its own calls into each layer (see
//! [`layers`]). See `README.md` for the workloads.

pub mod inputs;
pub mod layers;
pub mod load;
pub mod stats;

use inputs::Scale;
use load::{Deployment, Phase, Setup, StateDir};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §4.2: every session classifies against a seeded snapshot of prior
    /// websim runs, trains, tunes and records.
    WarmStart,
    /// Cold 32-parameter, 200-iteration sessions: the per-request path.
    LongSession,
    /// long-session's shape on a three-member ring with replication 2.
    Replicated,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::WarmStart,
        Workload::LongSession,
        Workload::Replicated,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmStart => "warm-start",
            Workload::LongSession => "long-session",
            Workload::Replicated => "replicated",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// About how long a run's rounds last.
    pub seconds: f64,
    /// Report per-layer metrics (a traced run) instead of end-to-end ones.
    pub trace: bool,
    /// Size of the run.
    pub scale: Scale,
    /// Directory for the run's persisted state; removed afterwards.
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Round trips attempted.
    pub attempted: usize,
    /// Round trips that failed or were refused.
    pub failed: usize,
    /// Output checks that failed; empty when the outputs are correct.
    pub violations: Vec<String>,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// Figures of an untraced run printed beside the metrics but not
    /// gated: wall clock, and CPU time as measured, before scaling.
    pub printed: Vec<Metric>,
    /// CPU cost of each measured untraced round, printed: the reference
    /// loop's CPU time (ms) before the round, and the round's scaled
    /// cost per session (ms) and the daemon's and the clients' per round
    /// trip (µs).
    pub round_costs: Vec<[f64; 4]>,
}

/// Run the benchmark.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let dir = opts.work_dir.join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    let result = run_in(opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Only succeeds once no other run is using the directory.
    let _ = std::fs::remove_dir(&opts.work_dir);
    result
}

fn run_in(opts: &Options, dir: &std::path::Path) -> Result<Outcome, String> {
    let prior = inputs::prior_experience(opts.workload, opts.seed, &opts.scale);
    let state = StateDir::create(dir, load::members(opts.workload), &prior)?;
    drop(prior);
    if opts.trace {
        traced(opts, &state)
    } else {
        untraced(opts, &state)
    }
}

/// One round: a start on the seeded state, a fixed set of sessions, a
/// shutdown.
struct Round {
    setup: Setup,
    phase: Phase,
    server: layers::ServerView,
    /// Peak resident memory of the process when the round ended.
    peak_rss_mb: f64,
}

/// Rounds for about `seconds`. Another round starts only while the mean
/// round so far ends nearer to `seconds` than stopping now; at least
/// two run.
fn rounds(
    opts: &Options,
    state: &StateDir,
    seconds: f64,
    traced: bool,
) -> Result<Vec<Round>, String> {
    let begin = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let (deployment, setup) = load::start(state)?;
        let (phase, server) = measure(deployment, opts, traced)?;
        rounds.push(Round {
            setup,
            phase,
            server,
            peak_rss_mb: stats::peak_rss_mb(),
        });
        let spent = begin.elapsed().as_secs_f64();
        if rounds.len() >= 2 && spent + spent / rounds.len() as f64 / 2.0 >= seconds {
            return Ok(rounds);
        }
    }
}

/// Every round's phase as one.
fn pooled(rounds: Vec<Round>) -> Phase {
    let mut all = Phase::default();
    for round in rounds {
        all.absorb(round.phase);
    }
    all
}

/// Measure rounds for `--seconds`, then start without load until
/// `scale.setups` starts are timed. The first round warms the process
/// up (heap, page cache, lazy statics): its start is timed and its
/// outputs are checked, but its load is not measured.
fn untraced(opts: &Options, state: &StateDir) -> Result<Outcome, String> {
    let mut rounds = rounds(opts, state, opts.seconds, false)?;
    let mut setups: Vec<Setup> = rounds.iter().map(|r| r.setup).collect();
    let warm_up = rounds.remove(0).phase;
    // Memory grows a little from round to round, so the peak when the
    // first measured round ends is the one that does not depend on how
    // many rounds the host had time for.
    let peak_rss_mb = rounds[0].peak_rss_mb;
    let scaled: Vec<[f64; 3]> = rounds
        .iter()
        .map(|r| cpu_cost(&r.phase).map(|c| stats::at_reference_speed(c, r.setup.reference)))
        .collect();
    let unscaled: Vec<[f64; 3]> = rounds.iter().map(|r| cpu_cost(&r.phase)).collect();
    let round_costs = rounds
        .iter()
        .zip(&scaled)
        .map(|(r, &[s, d, c])| [r.setup.reference.as_secs_f64() * 1e3, s, d, c])
        .collect();
    while setups.len() < opts.scale.setups(opts.workload) {
        let (deployment, setup) = load::start(state)?;
        deployment.shutdown();
        setups.push(setup);
    }
    let phase = pooled(rounds);
    Ok(Outcome {
        attempted: warm_up.attempted + phase.attempted,
        failed: warm_up.failed + phase.failed,
        metrics: end_to_end(&phase, &setups, median_cpu_cost(&scaled), peak_rss_mb),
        printed: printed(&phase, &setups, median_cpu_cost(&unscaled)),
        round_costs,
        violations: [warm_up.violations, phase.violations].concat(),
    })
}

/// Measure untraced rounds and traced ones, half of `--seconds` each,
/// then attribute the first traced round layer by layer. The first
/// untraced round is the warm-up.
fn traced(opts: &Options, state: &StateDir) -> Result<Outcome, String> {
    let mut plain = rounds(opts, state, opts.seconds / 2.0, false)?;
    let warm_up = plain.remove(0).phase;
    let plain = pooled(plain);
    let mut traced = rounds(opts, state, opts.seconds / 2.0, true)?;
    let first = traced.remove(0);
    let metrics = layers::attribute(opts, &first.phase, &first.server, state)?;
    let mut phase = pooled(traced);
    phase.absorb(first.phase);
    let metrics = layers::whole_run(metrics, &phase, &plain);
    Ok(Outcome {
        attempted: warm_up.attempted + plain.attempted + phase.attempted,
        failed: warm_up.failed + plain.failed + phase.failed,
        violations: [warm_up.violations, plain.violations, phase.violations].concat(),
        metrics,
        printed: Vec::new(),
        round_costs: Vec::new(),
    })
}

/// Run one round's load on `deployment`, shut it down, and add the
/// whole-round output checks to the per-session ones.
fn measure(
    deployment: Deployment,
    opts: &Options,
    traced: bool,
) -> Result<(Phase, layers::ServerView), String> {
    let before = load::stats(&deployment)?;
    let sessions = opts.scale.round_sessions(opts.workload);
    let mut phase = load::drive(&deployment, opts, sessions, traced);
    let server = layers::ServerView {
        after: load::stats(&deployment)?,
        before,
        db_runs: deployment.db_runs(),
    };
    deployment.shutdown();

    let name = opts.workload.name();
    if phase.sessions.is_empty() {
        phase
            .violations
            .push(format!("{name}: no session completed"));
    }
    let shipped = server.delta("harmony_net_peer_sessions_shipped_total", None);
    match opts.workload {
        Workload::Replicated if shipped <= 0.0 => phase
            .violations
            .push("replicated: no session snapshot was shipped".into()),
        Workload::WarmStart | Workload::LongSession if shipped > 0.0 => phase
            .violations
            .push(format!("{name}: a single daemon shipped snapshots")),
        _ => {}
    }
    Ok((phase, server))
}

/// CPU time of one round: per session (ms), and the daemon's and the
/// clients' per round trip (µs).
fn cpu_cost(p: &Phase) -> [f64; 3] {
    let sessions = p.sessions.len().max(1) as f64;
    let rpcs = p.completed_rpcs().max(1) as f64;
    [
        p.cpu.as_secs_f64() * 1e3 / sessions,
        p.cpu.saturating_sub(p.client_cpu).as_secs_f64() * 1e6 / rpcs,
        p.client_cpu.as_secs_f64() * 1e6 / rpcs,
    ]
}

/// Median of each [`cpu_cost`] over the rounds. The host's speed drifts
/// from one second to the next; a median over rounds of the same work
/// follows that drift less than the run's total does.
fn median_cpu_cost(costs: &[[f64; 3]]) -> [f64; 3] {
    std::array::from_fn(|i| stats::median(&costs.iter().map(|c| c[i]).collect::<Vec<_>>()))
}

/// The end-to-end metrics of the measured untraced rounds: medians over
/// rounds of CPU time scaled to the reference speed, and the pooled
/// phase for the rest.
fn end_to_end(phase: &Phase, setups: &[Setup], cost: [f64; 3], peak_rss_mb: f64) -> Vec<Metric> {
    let sessions = phase.sessions.len().max(1) as f64;
    let iterations: usize = phase.sessions.iter().map(|s| s.iterations).sum();
    let setup_cpu: Vec<f64> = setups
        .iter()
        .map(|s| stats::at_reference_speed(s.cpu.as_secs_f64(), s.reference))
        .collect();
    let [per_session, daemon_per_rpc, client_per_rpc] = cost;
    vec![
        Metric::new("setup_s", stats::median(&setup_cpu), "s"),
        Metric::new("cpu_ms_per_session", per_session, "ms"),
        Metric::new("daemon_cpu_us_per_rpc", daemon_per_rpc, "us"),
        Metric::new("client_cpu_us_per_rpc", client_per_rpc, "us"),
        Metric::new(
            "iterations_per_session",
            iterations as f64 / sessions,
            "count",
        ),
        Metric::new(
            "success_ratio",
            phase.completed_rpcs() as f64 / phase.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// Figures printed beside the end-to-end metrics, not gated: the CPU
/// figures before scaling (`unscaled`, medians over rounds), and wall
/// clock, which on a shared host moves with the time the hypervisor
/// steals.
fn printed(phase: &Phase, setups: &[Setup], unscaled: [f64; 3]) -> Vec<Metric> {
    let elapsed = phase.elapsed.as_secs_f64();
    let walls = stats::walls(phase);
    let starts: Vec<Duration> = phase.sessions.iter().map(|s| s.start_rtt).collect();
    let setup_wall: Vec<f64> = setups.iter().map(|s| s.wall.as_secs_f64()).collect();
    let setup_cpu: Vec<f64> = setups.iter().map(|s| s.cpu.as_secs_f64()).collect();
    let reference_ms: Vec<f64> = setups
        .iter()
        .map(|s| s.reference.as_secs_f64() * 1e3)
        .collect();
    let [per_session, daemon_per_rpc, client_per_rpc] = unscaled;
    let ms = |samples: &[Duration], q| stats::percentile(samples, q).as_secs_f64() * 1e3;
    let us = |samples: &[Duration], q| stats::percentile(samples, q).as_secs_f64() * 1e6;
    vec![
        Metric::new("reference_loop_ms", stats::median(&reference_ms), "ms"),
        Metric::new("unscaled.setup_s", stats::median(&setup_cpu), "s"),
        Metric::new("unscaled.cpu_ms_per_session", per_session, "ms"),
        Metric::new("unscaled.daemon_cpu_us_per_rpc", daemon_per_rpc, "us"),
        Metric::new("unscaled.client_cpu_us_per_rpc", client_per_rpc, "us"),
        Metric::new("setup_wall_s", stats::median(&setup_wall), "s"),
        Metric::new(
            "sessions_per_s",
            phase.sessions.len() as f64 / elapsed,
            "1/s",
        ),
        Metric::new(
            "requests_per_s",
            phase.completed_rpcs() as f64 / elapsed,
            "1/s",
        ),
        Metric::new("session_p50_ms", ms(&walls, 0.50), "ms"),
        Metric::new("session_p90_ms", ms(&walls, 0.90), "ms"),
        Metric::new("start_p50_ms", ms(&starts, 0.50), "ms"),
        Metric::new("start_p90_ms", ms(&starts, 0.90), "ms"),
        Metric::new("rpc_p50_us", us(&phase.rpc, 0.50), "us"),
        Metric::new("rpc_p99_us", us(&phase.rpc, 0.99), "us"),
    ]
}
