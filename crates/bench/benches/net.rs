//! Criterion: wire-protocol overhead of the tuning daemon over loopback.
//!
//! Two views of the same question — how much does remoting the kernel
//! cost per exploration?
//!
//! * `net_round_trip` — latency of a single request/response exchange
//!   for each message kind.
//! * `net_session` — throughput of whole fetch→measure→report sessions,
//!   where the "measurement" is free, so the numbers isolate protocol
//!   and daemon overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harmony_net::client::Client;
use harmony_net::protocol::SpaceSpec;
use harmony_net::server::{DaemonConfig, DaemonHandle, TuningDaemon};
use harmony_net::NetError;
use harmony_space::{Configuration, ParamDef, ParameterSpace};
use std::hint::black_box;

fn space(dims: usize) -> ParameterSpace {
    ParameterSpace::new(
        (0..dims)
            .map(|i| ParamDef::int(format!("p{i}"), 0, 1000, 500, 1))
            .collect(),
    )
    .unwrap()
}

fn paraboloid(cfg: &Configuration) -> f64 {
    cfg.values()
        .iter()
        .enumerate()
        .map(|(i, &v)| -((v - 300 - 40 * i as i64).pow(2) as f64))
        .sum()
}

fn start_daemon(iterations: usize) -> DaemonHandle {
    TuningDaemon::start(DaemonConfig {
        max_iterations: iterations,
        ..DaemonConfig::default()
    })
    .expect("daemon binds a loopback port")
}

/// Latency of individual request/response exchanges on a live session.
fn bench_round_trip(c: &mut Criterion) {
    let handle = start_daemon(1_000_000);
    let mut client = Client::connect(handle.addr()).unwrap();
    let start = |client: &mut Client| {
        client
            .start_session(SpaceSpec::Explicit(space(5)), "bench", vec![], None)
            .unwrap()
    };
    start(&mut client);

    let mut g = c.benchmark_group("net_round_trip");
    g.bench_function("fetch_report", |b| {
        b.iter(|| {
            // The search may converge mid-bench; roll into a new session
            // so every iteration measures a real fetch/report pair.
            let proposal = match client.fetch().unwrap() {
                Some(p) => p,
                None => {
                    client.end_session().unwrap();
                    start(&mut client);
                    client.fetch().unwrap().expect("fresh session proposes")
                }
            };
            let perf = paraboloid(black_box(&proposal.values));
            client.report(perf).unwrap();
        });
    });
    g.bench_function("db_query", |b| {
        b.iter(|| black_box(client.db_runs().unwrap()));
    });
    g.bench_function("sensitivity", |b| {
        b.iter(|| black_box(client.sensitivity().unwrap()));
    });
    g.finish();
    drop(client);
    handle.shutdown();
}

/// Whole-session throughput: connect, tune to the budget, record.
fn bench_sessions(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_session");
    g.sample_size(20);
    for iterations in [10usize, 40] {
        let handle = start_daemon(iterations);
        let addr = handle.addr();
        g.bench_with_input(
            BenchmarkId::from_parameter(iterations),
            &iterations,
            |b, _| {
                b.iter(|| {
                    let mut client = Client::connect(addr).unwrap();
                    let (_, summary) = client
                        .tune_with(
                            SpaceSpec::Explicit(space(5)),
                            "bench",
                            vec![],
                            None,
                            |cfg| Ok::<f64, NetError>(paraboloid(cfg)),
                        )
                        .unwrap();
                    black_box(summary)
                });
            },
        );
        handle.shutdown();
    }
    g.finish();
}

criterion_group!(benches, bench_round_trip, bench_sessions);
criterion_main!(benches);
