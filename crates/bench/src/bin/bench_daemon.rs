//! Perf baseline for the daemon's experience path.
//!
//! Drives N concurrent clients through classify/train/record cycles
//! against a daemon seeded with prior experience. The database is an
//! atomic snapshot (classification touches only an `Arc` pointer plus
//! the prebuilt k-d index) persisted through a WAL on a background
//! flusher.
//!
//! Each cycle is one session: `SessionStart` (a classification against
//! the shared experience — the timed operation), a few fetch/report
//! iterations, `SessionEnd` (a record), and an occasional `Stats` poll.
//! Reports classify throughput and p50/p99 `SessionStart` latency, and
//! writes them to `BENCH_daemon.json`.
//!
//! A full run asserts classify throughput of at least
//! [`CLASSIFY_RPS_FLOOR`]; `--smoke` shrinks everything for CI and
//! asserts nothing.

use harmony::history::{ExperienceDb, RunHistory};
use harmony_net::client::Client;
use harmony_net::protocol::SpaceSpec;
use harmony_net::server::{DaemonConfig, TuningDaemon};
use harmony_space::Configuration;
use std::path::PathBuf;
use std::time::Instant;

const RSL: &str = "{ harmonyBundle x { int {0 100 1} }}\n{ harmonyBundle y { int {0 100 1} }}";

/// Full-run floor on classify throughput (sessions started per second):
/// twice the 131.61/s the retired `RwLock`-plus-synchronous-save scheme
/// measured on this workload (EXPERIMENTS.md, "Daemon experience path").
const CLASSIFY_RPS_FLOOR: f64 = 263.2;

/// Workload knobs; `--smoke` swaps in the small set.
struct Params {
    clients: usize,
    cycles_per_client: usize,
    seed_runs: usize,
    records_per_run: usize,
    /// Live fetch/report iterations per session.
    iterations: usize,
}

const FULL: Params = Params {
    clients: 8,
    cycles_per_client: 15,
    seed_runs: 150,
    records_per_run: 30,
    iterations: 4,
};

const SMOKE: Params = Params {
    clients: 4,
    cycles_per_client: 3,
    seed_runs: 24,
    records_per_run: 6,
    iterations: 2,
};

/// xorshift64* — deterministic seed data without pulling in a PRNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() % 10_000) as f64 / 10_000.0
    }
}

/// A database of prior experience for the daemon to classify against.
fn seed_db(p: &Params) -> ExperienceDb {
    let mut rng = Rng(0x5EED);
    let mut db = ExperienceDb::new();
    for i in 0..p.seed_runs {
        let chars = vec![rng.unit(), rng.unit(), rng.unit()];
        let mut run = RunHistory::new(format!("seed{i}"), chars);
        for _ in 0..p.records_per_run {
            let cfg =
                Configuration::new(vec![(rng.next() % 101) as i64, (rng.next() % 101) as i64]);
            run.push(&cfg, rng.unit() * 1000.0);
        }
        db.add_run(run);
    }
    db
}

struct BenchResult {
    wall_ms: f64,
    classify_rps: f64,
    classify_p50_ms: f64,
    classify_p99_ms: f64,
    requests_per_sec: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// One full measurement: seed, serve, hammer with concurrent clients,
/// tear down.
fn run(p: &Params) -> BenchResult {
    let dir = std::env::temp_dir().join("harmony-bench-daemon");
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let db_path: PathBuf = dir.join("snapshot.json");
    let wal_path: PathBuf = dir.join("snapshot.wal");
    std::fs::remove_file(&db_path).ok();
    std::fs::remove_file(&wal_path).ok();
    seed_db(p).save(&db_path).expect("seed snapshot");

    let handle = TuningDaemon::start(DaemonConfig {
        db_path: Some(db_path.clone()),
        wal_path: Some(wal_path.clone()),
        max_connections: p.clients + 2,
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();

    let started = Instant::now();
    let mut workers = Vec::new();
    for c in 0..p.clients {
        let cycles = p.cycles_per_client;
        let iterations = p.iterations;
        workers.push(std::thread::spawn(move || {
            let mut rng = Rng(0xC11E47 + c as u64);
            let mut client = Client::connect(addr).expect("connect");
            let mut classify_ms = Vec::with_capacity(cycles);
            let mut requests = 0usize;
            for cycle in 0..cycles {
                let chars = vec![rng.unit(), rng.unit(), rng.unit()];
                let t = Instant::now();
                client
                    .start_session(
                        SpaceSpec::Rsl(RSL.into()),
                        format!("c{c}-{cycle}"),
                        chars,
                        Some(iterations),
                    )
                    .expect("session start");
                classify_ms.push(t.elapsed().as_secs_f64() * 1e3);
                requests += 1;
                while let Some(prop) = client.fetch().expect("fetch") {
                    let x = prop.values.get(0) as f64;
                    let y = prop.values.get(1) as f64;
                    client
                        .report(1000.0 - (x - 40.0).powi(2) - (y - 70.0).powi(2))
                        .expect("report");
                    requests += 2;
                }
                client.end_session().expect("session end");
                requests += 2; // final fetch (Done) + end
                if cycle % 5 == 4 {
                    client.stats().expect("stats");
                    requests += 1;
                }
            }
            (classify_ms, requests)
        }));
    }
    let mut classify_ms = Vec::new();
    let mut requests = 0usize;
    for w in workers {
        let (ms, reqs) = w.join().expect("client thread");
        classify_ms.extend(ms);
        requests += reqs;
    }
    let wall = started.elapsed().as_secs_f64();
    handle.shutdown();
    std::fs::remove_file(&db_path).ok();
    std::fs::remove_file(&wal_path).ok();

    classify_ms.sort_by(f64::total_cmp);
    BenchResult {
        wall_ms: wall * 1e3,
        classify_rps: classify_ms.len() as f64 / wall,
        classify_p50_ms: percentile(&classify_ms, 0.50),
        classify_p99_ms: percentile(&classify_ms, 0.99),
        requests_per_sec: requests as f64 / wall,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if let Some(bad) = args.iter().find(|a| a.as_str() != "--smoke") {
        eprintln!("bench_daemon: unknown flag {bad:?} (--smoke)");
        std::process::exit(2);
    }
    let p = if smoke { SMOKE } else { FULL };

    let r = run(&p);
    println!(
        "wall {:.1} ms  classify {:.1}/s  p50 {:.3} ms  p99 {:.3} ms  requests {:.1}/s",
        r.wall_ms, r.classify_rps, r.classify_p50_ms, r.classify_p99_ms, r.requests_per_sec,
    );

    let json = format!(
        "{{\n  \"bench\": \"daemon\",\n  \"smoke\": {smoke},\n  \"clients\": {},\n  \
         \"cycles_per_client\": {},\n  \"seed_runs\": {},\n  \"records_per_run\": {},\n  \
         \"wall_ms\": {:.2},\n  \"classify_rps\": {:.2},\n  \"classify_p50_ms\": {:.4},\n  \
         \"classify_p99_ms\": {:.4},\n  \"requests_per_sec\": {:.2}\n}}\n",
        p.clients,
        p.cycles_per_client,
        p.seed_runs,
        p.records_per_run,
        r.wall_ms,
        r.classify_rps,
        r.classify_p50_ms,
        r.classify_p99_ms,
        r.requests_per_sec,
    );
    std::fs::write("BENCH_daemon.json", &json).expect("write BENCH_daemon.json");
    println!("wrote BENCH_daemon.json");

    // Smoke runs are too small to measure anything meaningful.
    if !smoke {
        assert!(
            r.classify_rps >= CLASSIFY_RPS_FLOOR,
            "classify throughput {:.2}/s is below the {CLASSIFY_RPS_FLOOR}/s floor",
            r.classify_rps
        );
    }
}
