//! Criterion micro-benchmarks for dynamic updates (paper Sec. 6 / Table
//! 10): per-trajectory and per-site add/remove against the index, and the
//! batch path.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use netclus::prelude::*;
use netclus_datagen::beijing_small;
use netclus_trajectory::{TrajId, Trajectory};
use std::hint::black_box;

fn bench_update(c: &mut Criterion) {
    let s = beijing_small(7);
    let index = NetClusIndex::build(
        &s.net,
        &s.trajectories,
        &s.sites,
        NetClusConfig {
            tau_min: 400.0,
            tau_max: 2_400.0,
            threads: 1,
            ..Default::default()
        },
    );
    // A mid-size trajectory to churn.
    let sample: Trajectory = s
        .trajectories
        .iter()
        .map(|(_, t)| t.clone())
        .max_by_key(Trajectory::len)
        .unwrap();
    let new_id = TrajId(s.trajectories.id_bound() as u32);
    let site = *s.sites.first().unwrap();

    let mut group = c.benchmark_group("update");
    group.bench_function("add_remove_trajectory", |b| {
        let mut idx = index.clone();
        b.iter(|| {
            idx.add_trajectory(new_id, &sample);
            idx.remove_trajectory(new_id, &sample);
            black_box(&idx);
        })
    });
    group.bench_function("remove_add_site", |b| {
        let mut idx = index.clone();
        b.iter(|| {
            idx.remove_site(&s.trajectories, site);
            idx.add_site(&s.trajectories, site);
            black_box(&idx);
        })
    });
    group.bench_function("batch_add_100_trajectories", |b| {
        let batch: Vec<(TrajId, Trajectory)> = (0..100)
            .map(|i| {
                (
                    TrajId((s.trajectories.id_bound() + i) as u32),
                    sample.clone(),
                )
            })
            .collect();
        b.iter_with_setup(
            || index.clone(),
            |mut idx| {
                idx.add_trajectories(batch.iter().map(|(id, t)| (*id, t)));
                black_box(idx)
            },
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_millis(1600));
    targets = bench_update
}
criterion_main!(benches);
