//! Deployment and load: starts the daemon (or a three-member ring) on the
//! workload's persisted state, and drives it with a closed-loop load
//! generator of two client threads, one connection each, over loopback.

use crate::inputs::{self, SessionSpec};
use crate::{stats, Options, Workload};
use harmony::history::ExperienceDb;
use harmony_net::client::{Client, RetryPolicy};
use harmony_net::protocol::SpaceSpec;
use harmony_net::server::{DaemonConfig, DaemonHandle, TuningDaemon};
use harmony_net::NetError;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client threads, each with one connection.
pub const CONNECTIONS: usize = 2;

/// Replication factor of the replicated workload's ring.
const REPLICATION: usize = 2;

/// The persisted state every run starts from: the seeded snapshot,
/// copied into place for each ring member before each start.
pub struct StateDir {
    dir: PathBuf,
    members: usize,
}

impl StateDir {
    /// Write the seeded snapshot under `dir`.
    pub fn create(dir: &Path, members: usize, prior: &ExperienceDb) -> Result<StateDir, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let state = StateDir {
            dir: dir.to_path_buf(),
            members,
        };
        prior
            .save(state.pristine())
            .map_err(|e| format!("write seeded snapshot: {e}"))?;
        Ok(state)
    }

    /// The seeded snapshot, never served from directly.
    pub fn pristine(&self) -> PathBuf {
        self.dir.join("pristine.json")
    }

    /// Scratch space for the layer replay.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn member_db(&self, i: usize) -> PathBuf {
        self.dir.join(format!("member{i}.json"))
    }

    /// Put the seeded state back in place for every member: snapshot
    /// restored, journal and parked sessions gone.
    fn reset(&self) -> Result<(), String> {
        for i in 0..self.members {
            let db = self.member_db(i);
            for suffix in [".wal", ".sessions"] {
                let mut side = db.clone().into_os_string();
                side.push(suffix);
                let _ = std::fs::remove_file(PathBuf::from(side));
            }
            std::fs::copy(self.pristine(), &db).map_err(|e| format!("restore state: {e}"))?;
        }
        Ok(())
    }
}

/// Running daemons and the addresses clients dial.
pub struct Deployment {
    handles: Vec<DaemonHandle>,
    addrs: Vec<SocketAddr>,
}

impl Deployment {
    /// Ring members' (or the daemon's) addresses.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Largest experience database among the members.
    pub fn db_runs(&self) -> usize {
        self.handles.iter().map(|h| h.db_runs()).max().unwrap_or(0)
    }

    /// Stop every member, waiting for each to persist and exit.
    pub fn shutdown(self) {
        for handle in self.handles {
            handle.shutdown();
        }
    }
}

/// Members the workload runs.
pub fn members(workload: Workload) -> usize {
    match workload {
        Workload::Replicated => 3,
        _ => 1,
    }
}

/// Reserve distinct loopback ports: every listener is held until all
/// are drawn, then released for the daemons to bind.
fn reserve_addrs(n: usize) -> Result<Vec<String>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reserve port: {e}"))?;
    listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.to_string())
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn member_config(state: &StateDir, addrs: &[String], i: usize) -> Result<DaemonConfig, String> {
    let mut builder = DaemonConfig::builder()
        .listen(addrs[i].clone())
        .db_path(state.member_db(i));
    if addrs.len() > 1 {
        let peers = addrs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, a)| a.clone())
            .collect();
        builder = builder.cluster(addrs[i].clone(), peers, REPLICATION);
    }
    let mut config = builder.build()?;
    config.analyzer = inputs::analyzer();
    Ok(config)
}

/// What one start cost, and how fast the host was just before it.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// CPU time of every thread of the process.
    pub cpu: Duration,
    /// Wall time.
    pub wall: Duration,
    /// CPU time of the reference loop, run just before the start
    /// ([`stats::reference_cpu`]).
    pub reference: Duration,
}

/// Time the reference loop, restore the seeded state, start every
/// member, and time the start: from the first `TuningDaemon::start`
/// (which loads the snapshot and journal) until every member has
/// answered `Hello`.
pub fn start(state: &StateDir) -> Result<(Deployment, Setup), String> {
    let reference = stats::reference_cpu();
    state.reset()?;
    let addrs = match state.members {
        1 => vec!["127.0.0.1:0".to_string()],
        n => reserve_addrs(n)?,
    };
    let configs = (0..state.members)
        .map(|i| member_config(state, &addrs, i))
        .collect::<Result<Vec<_>, _>>()?;
    let cpu = stats::process_cpu();
    let started = Instant::now();
    let mut handles = Vec::with_capacity(configs.len());
    for config in configs {
        handles.push(TuningDaemon::start(config).map_err(|e| format!("daemon start: {e}"))?);
    }
    let addrs: Vec<SocketAddr> = handles.iter().map(|h| h.addr()).collect();
    for addr in &addrs {
        Client::connect(addr).map_err(|e| format!("hello {addr}: {e}"))?;
    }
    let setup = Setup {
        cpu: stats::process_cpu() - cpu,
        wall: started.elapsed(),
        reference,
    };
    Ok((Deployment { handles, addrs }, setup))
}

/// One completed session as the client saw it.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// Session number (regenerates its [`SessionSpec`]).
    pub index: usize,
    /// `SessionStart` sent, relative to the phase start.
    pub started: Duration,
    /// `SessionSummary` received, relative to the phase start.
    pub ended: Duration,
    /// Client-observed session time, objective included.
    pub wall: Duration,
    /// `SessionStart` round trip.
    pub start_rtt: Duration,
    /// Prior run the daemon trained from.
    pub trained_from: Option<String>,
    /// Virtual training iterations the daemon reported.
    pub training_iterations: usize,
    /// Resume token the daemon issued.
    pub token: Option<String>,
    /// Live iterations in the summary.
    pub iterations: usize,
    /// Summary fields: best values, best performance, converged.
    pub best: Vec<i64>,
    /// Best performance the daemon reported.
    pub performance: f64,
    /// Whether the search converged.
    pub converged: bool,
    /// Configurations measured, in order (traced runs only).
    pub configs: Vec<Vec<i64>>,
    /// Performances reported, in order (traced runs only).
    pub performances: Vec<f64>,
    /// Time spent in the objective (traced runs only).
    pub objective: Duration,
}

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Phase start to the last client's last session.
    pub elapsed: Duration,
    /// CPU time of every thread of the process over the phase: the
    /// daemon's and the clients'.
    pub cpu: Duration,
    /// CPU time of the client threads.
    pub client_cpu: Duration,
    /// Completed sessions, in completion order per client.
    pub sessions: Vec<SessionRecord>,
    /// `Fetch` and `Report` round trips.
    pub rpc: Vec<Duration>,
    /// Objective calls (traced runs only).
    pub objective: Vec<Duration>,
    /// Round trips attempted (`Hello` included).
    pub attempted: usize,
    /// Round trips that failed or were refused.
    pub failed: usize,
    /// Output checks that failed.
    pub violations: Vec<String>,
}

impl Phase {
    /// Add another phase's sessions, samples, counts and times to this
    /// one's.
    pub fn absorb(&mut self, other: Phase) {
        self.elapsed += other.elapsed;
        self.cpu += other.cpu;
        self.client_cpu += other.client_cpu;
        self.sessions.extend(other.sessions);
        self.rpc.extend(other.rpc);
        self.objective.extend(other.objective);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }

    /// Round trips that completed.
    pub fn completed_rpcs(&self) -> usize {
        self.attempted - self.failed
    }
}

/// Counts one round trip against the phase's attempts.
fn rpc<T>(
    out: &mut Phase,
    f: impl FnOnce() -> Result<T, NetError>,
) -> Result<(T, Duration), NetError> {
    out.attempted += 1;
    let t = Instant::now();
    match f() {
        Ok(v) => Ok((v, t.elapsed())),
        Err(e) => {
            out.failed += 1;
            Err(e)
        }
    }
}

fn connect(addr: SocketAddr, out: &mut Phase) -> Result<Client, NetError> {
    rpc(out, || {
        Client::builder(addr)
            .connect_timeout(Duration::from_secs(5))
            .retry(RetryPolicy::none())
            .connect()
    })
    .map(|(c, _)| c)
}

/// Drive one session to its end and check what came back.
fn drive_session(
    client: &mut Client,
    spec: &SessionSpec,
    workload: Workload,
    phase_start: Instant,
    traced: bool,
    out: &mut Phase,
) -> Result<SessionRecord, NetError> {
    let mut objective = spec.objective();
    let begin = Instant::now();
    let (started, start_rtt) = rpc(out, || {
        client.start_session_with(
            SpaceSpec::Rsl(spec.rsl.clone()),
            spec.label.clone(),
            spec.characteristics.clone(),
            spec.budget,
            spec.engine.clone(),
        )
    })?;
    let mut best_reported = f64::NEG_INFINITY;
    let mut configs = Vec::new();
    let mut performances = Vec::new();
    let mut in_objective = Duration::ZERO;
    loop {
        let (proposal, rtt) = rpc(out, || client.fetch())?;
        out.rpc.push(rtt);
        let Some(proposal) = proposal else { break };
        let values = proposal.values.into_values();
        let performance = if traced {
            let t = Instant::now();
            let p = objective.measure(&values);
            let spent = t.elapsed();
            out.objective.push(spent);
            in_objective += spent;
            p
        } else {
            objective.measure(&values)
        };
        best_reported = best_reported.max(performance);
        let ((), rtt) = rpc(out, || client.report(performance))?;
        out.rpc.push(rtt);
        if traced {
            configs.push(values);
            performances.push(performance);
        }
    }
    let (summary, _) = rpc(out, || client.end_session())?;
    let wall = begin.elapsed();

    let budget = spec.effective_budget();
    if summary.iterations > budget {
        out.violations.push(format!(
            "{}: {} iterations exceed the budget of {budget}",
            spec.label, summary.iterations
        ));
    }
    if summary.performance.to_bits() != best_reported.to_bits() {
        out.violations.push(format!(
            "{}: summary best {} differs from the best reported {best_reported}",
            spec.label, summary.performance
        ));
    }
    let trained = started.trained_from.is_some();
    if trained != (workload == Workload::WarmStart) {
        out.violations.push(format!(
            "{}: trained from {:?} on {}",
            spec.label,
            started.trained_from,
            workload.name()
        ));
    }
    Ok(SessionRecord {
        index: spec.index,
        started: begin - phase_start,
        ended: phase_start.elapsed(),
        wall,
        start_rtt,
        trained_from: started.trained_from,
        training_iterations: started.training_iterations,
        token: started.session_token,
        iterations: summary.iterations,
        best: summary.best.into_values(),
        performance: summary.performance,
        converged: summary.converged,
        configs,
        performances,
        objective: in_objective,
    })
}

/// One client thread: sessions `first`, `first + CONNECTIONS`, … below
/// `sessions`, back to back. A session whose connection cannot be
/// dialled is lost, and counted as a failed round trip.
fn client_loop(
    addr: SocketAddr,
    opts: &Options,
    first: usize,
    sessions: usize,
    phase_start: Instant,
    traced: bool,
) -> Phase {
    let cpu = stats::thread_cpu();
    let mut out = Phase::default();
    let mut client = None;
    for index in (first..sessions).step_by(CONNECTIONS) {
        let c = match client.as_mut() {
            Some(c) => c,
            None => match connect(addr, &mut out) {
                Ok(c) => client.insert(c),
                Err(_) => continue,
            },
        };
        let spec = inputs::session(opts.workload, opts.seed, index, &opts.scale);
        match drive_session(c, &spec, opts.workload, phase_start, traced, &mut out) {
            Ok(record) => out.sessions.push(record),
            // A failed session leaves the connection in an unknown
            // state: dial afresh for the next one.
            Err(_) => client = None,
        }
    }
    out.client_cpu = stats::thread_cpu() - cpu;
    out
}

/// Closed-loop load of one round: sessions `0..sessions`, client `j`
/// running every `CONNECTIONS`-th from `j` on ring member `j` (the
/// single daemon when there is one). A round is the same work every
/// time, however fast the host runs it.
pub fn drive(deployment: &Deployment, opts: &Options, sessions: usize, traced: bool) -> Phase {
    let cpu = stats::process_cpu();
    let start = Instant::now();
    let addrs = deployment.addrs();
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|j| {
                let addr = addrs[j % addrs.len()];
                s.spawn(move || client_loop(addr, opts, j, sessions, start, traced))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        elapsed: start.elapsed(),
        cpu: stats::process_cpu() - cpu,
        ..Phase::default()
    };
    for part in parts {
        phase.absorb(part);
    }
    phase.sessions.sort_by_key(|s| s.started);
    phase
}

/// The daemons' metrics exposition (the registry is process-global, so
/// any member answers for the whole ring).
pub fn stats(deployment: &Deployment) -> Result<String, String> {
    let mut client = Client::connect(deployment.addrs()[0]).map_err(|e| e.to_string())?;
    client.stats().map_err(|e| format!("stats: {e}"))
}
