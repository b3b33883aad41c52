//! Criterion: experience-database classification, compression, snapshot
//! loading and copy-on-write publishing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harmony::history::{kmeans, ExperienceDb, RunHistory};
use harmony_space::Configuration;
use std::hint::black_box;

fn db_with(runs: usize) -> ExperienceDb {
    let mut db = ExperienceDb::new();
    let mut s = 999u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64) / (u32::MAX as f64)
    };
    for i in 0..runs {
        let ch: Vec<f64> = (0..14).map(|_| next()).collect();
        let mut run = RunHistory::new(format!("run{i}"), ch);
        for _ in 0..20 {
            run.push(
                &Configuration::new(vec![(next() * 100.0) as i64; 10]),
                next() * 100.0,
            );
        }
        db.add_run(run);
    }
    db
}

fn bench_classify(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_classify");
    for runs in [10usize, 100, 1000] {
        g.bench_with_input(BenchmarkId::from_parameter(runs), &runs, |b, &runs| {
            let db = db_with(runs);
            let observed = vec![0.5f64; 14];
            b.iter(|| black_box(db.classify(&observed)));
        });
    }
    g.finish();
}

/// Snapshot text → database; the cost should grow linearly with the
/// snapshot's bytes.
fn bench_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_load");
    for runs in [150usize, 300, 600] {
        let text = serde_json::to_string_pretty(&db_with(runs)).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(runs), &text, |b, text| {
            b.iter(|| black_box(serde_json::from_str::<ExperienceDb>(text).unwrap()));
        });
    }
    g.finish();
}

/// The daemon's copy-on-write publish at a session's end: clone the
/// database, add the run, rebuild the index.
fn bench_publish(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_publish");
    for runs in [150usize, 5000] {
        let db = db_with(runs);
        let run = db.runs()[0].clone();
        g.bench_with_input(BenchmarkId::from_parameter(runs), &db, |b, db| {
            b.iter(|| {
                let mut next = db.clone();
                next.add_run(run.clone());
                black_box(next.build_index())
            });
        });
    }
    g.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut g = c.benchmark_group("kmeans");
    for n in [50usize, 500] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..14)
                        .map(|j| ((i * 7 + j * 13) % 100) as f64 / 100.0)
                        .collect()
                })
                .collect();
            b.iter(|| black_box(kmeans(&pts, 8, 30)));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_classify,
    bench_load,
    bench_publish,
    bench_kmeans
);
criterion_main!(benches);
