//! Publishes stage outside the router's update lock, so reads never wait
//! on them, and still never tear.
//!
//! * While a publish is held inside a shard's stage, a query answers at
//!   the old lockstep epoch; once the stage is released the epoch
//!   advances and the next answer is at the new one.
//! * Two query threads racing a writer over a 2-shard × 2-replica router
//!   get only full answers (no degraded answer, no epoch skew), see
//!   epochs in order, and every answer is bit-identical to an uncached
//!   twin router that replayed the same batch prefix.
//! * A resync issued while a publish is staged waits for its commit, so
//!   both replicas end at the lockstep epoch with identical answers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use netclus::prelude::*;
use netclus::{NetClusShard, ReplicationStats};
use netclus_roadnet::{NodeId, Point, RegionPartition, RoadNetwork, RoadNetworkBuilder};
use netclus_service::{
    InProcessShard, ResyncSnapshot, Round1Ctx, Round1Ok, RoutedOp, ShardApplyOutcome, ShardFailure,
    ShardRouter, ShardRouterConfig, ShardTransport, ShardedServiceAnswer, SnapshotStore,
    StagedApply, UpdateBatch, UpdateOp,
};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};

/// Nodes per region.
const N: u32 = 16;

/// Two far-apart two-way corridors of `N` nodes, trajectories confined to
/// one region each, every node a site, partitioned by region.
fn sharded() -> (
    Arc<RoadNetwork>,
    RegionPartition,
    Vec<NetClusShard>,
    ReplicationStats,
    u64,
) {
    let mut b = RoadNetworkBuilder::new();
    for region in 0..2 {
        let base = b.node_count() as u32;
        for i in 0..N {
            b.add_node(Point::new(region as f64 * 1.0e6 + i as f64 * 100.0, 0.0));
        }
        for i in 0..N - 1 {
            b.add_two_way(NodeId(base + i), NodeId(base + i + 1), 100.0)
                .unwrap();
        }
    }
    let net = Arc::new(b.build().unwrap());
    let mut trajs = TrajectorySet::for_network(&net);
    for s in 0..6u32 {
        trajs.add(walk(0, 2 * s, 5));
        trajs.add(walk(1, s, 4));
    }
    let sites: Vec<NodeId> = net.nodes().collect();
    let partition = RegionPartition::build(&net, 2);
    let cfg = NetClusConfig {
        tau_min: 200.0,
        tau_max: 3_000.0,
        threads: 1,
        ..Default::default()
    };
    let index = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg);
    let next_id = index.traj_id_bound() as u64;
    let (partition, shards, replication) = index.into_parts();
    (net, partition, shards, replication, next_id)
}

/// A walk of `len` nodes starting at `start` inside `region`.
fn walk(region: u32, start: u32, len: u32) -> Trajectory {
    let start = start % (N - len);
    Trajectory::new(
        (start..start + len)
            .map(|i| NodeId(region * N + i))
            .collect(),
    )
}

/// Batch `r` of the update schedule: adds in both regions, a removal and
/// a site flip, so both the corpus and the sites change every epoch.
fn batch(r: u32) -> UpdateBatch {
    let mut ops = vec![
        UpdateOp::AddTrajectory(walk(0, 3 * r, 3 + r % 4)),
        UpdateOp::AddTrajectory(walk(1, 5 * r + 1, 2 + r % 5)),
        UpdateOp::RemoveTrajectory(TrajId(r)),
    ];
    let v = NodeId((r * 7) % (2 * N));
    ops.push(if r % 2 == 0 {
        UpdateOp::RemoveSite(v)
    } else {
        UpdateOp::AddSite(NodeId(((r - 1) * 7) % (2 * N)))
    });
    ops
}

fn in_process(net: &Arc<RoadNetwork>, shard: &NetClusShard) -> InProcessShard {
    InProcessShard::new(SnapshotStore::with_shared_net(
        Arc::clone(net),
        shard.trajs.clone(),
        shard.index.clone(),
    ))
}

/// A router whose shard `s` replica `r` transport is `make(s, r, store)`.
fn router_with(
    replicas: usize,
    cfg: ShardRouterConfig,
    mut make: impl FnMut(usize, usize, InProcessShard) -> Box<dyn ShardTransport>,
) -> ShardRouter {
    let (net, partition, shards, replication, next_id) = sharded();
    let transports = shards
        .iter()
        .enumerate()
        .map(|(s, shard)| {
            (0..replicas)
                .map(|r| make(s, r, in_process(&net, shard)))
                .collect()
        })
        .collect();
    ShardRouter::start_with_replica_transports(
        net,
        partition,
        transports,
        next_id,
        0,
        replication,
        cfg,
    )
    .expect("start router")
}

/// The uncached single-replica reference router.
fn uncached_twin() -> ShardRouter {
    router_with(1, ShardRouterConfig::uncached(), |_, _, t| Box::new(t))
}

/// What an answer must agree on bit for bit.
fn fingerprint(a: &ShardedServiceAnswer) -> (Vec<NodeId>, u64, usize) {
    (a.sites.clone(), a.utility.to_bits(), a.covered)
}

/// A gate a stage can be held at.
#[derive(Default)]
struct Gate {
    /// `(closed, stages waiting)`.
    state: Mutex<(bool, usize)>,
    cv: Condvar,
}

impl Gate {
    fn set_closed(&self, closed: bool) {
        self.state.lock().unwrap().0 = closed;
        self.cv.notify_all();
    }

    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.1 += 1;
        self.cv.notify_all();
        while st.0 {
            st = self.cv.wait(st).unwrap();
        }
        st.1 -= 1;
    }

    fn await_waiting(&self) {
        let mut st = self.state.lock().unwrap();
        while st.1 == 0 {
            st = self.cv.wait(st).unwrap();
        }
    }
}

/// An in-process replica whose `stage` first passes a gate (and can be
/// switched to fail), then delegates.
struct GatedStage {
    inner: Arc<InProcessShard>,
    gate: Arc<Gate>,
    fail: Arc<AtomicBool>,
}

impl ShardTransport for GatedStage {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn round1(&self, query: &TopsQuery, ctx: &mut Round1Ctx<'_>) -> Result<Round1Ok, ShardFailure> {
        self.inner.round1(query, ctx)
    }
    fn apply(&self, ops: &[RoutedOp]) -> Result<ShardApplyOutcome, ShardFailure> {
        self.inner.apply(ops)
    }
    fn stage(&self, ops: &[RoutedOp]) -> Result<StagedApply, ShardFailure> {
        self.gate.pass();
        if self.fail.load(Ordering::Acquire) {
            return Err(ShardFailure::Unreachable);
        }
        self.inner.stage(ops)
    }
    fn commit(&self, staged: StagedApply) -> Result<ShardApplyOutcome, ShardFailure> {
        self.inner.commit(staged)
    }
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
    fn local_store(&self) -> Option<&SnapshotStore> {
        self.inner.local_store()
    }
    fn fetch_resync(&self) -> Result<ResyncSnapshot, ShardFailure> {
        self.inner.fetch_resync()
    }
    fn install_resync(&self, snap: &ResyncSnapshot) -> Result<(), ShardFailure> {
        self.inner.install_resync(snap)
    }
}

/// Shares one in-process replica between the router and the test.
struct Shared(Arc<InProcessShard>);

impl ShardTransport for Shared {
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
    fn round1(&self, query: &TopsQuery, ctx: &mut Round1Ctx<'_>) -> Result<Round1Ok, ShardFailure> {
        self.0.round1(query, ctx)
    }
    fn apply(&self, ops: &[RoutedOp]) -> Result<ShardApplyOutcome, ShardFailure> {
        self.0.apply(ops)
    }
    fn stage(&self, ops: &[RoutedOp]) -> Result<StagedApply, ShardFailure> {
        self.0.stage(ops)
    }
    fn commit(&self, staged: StagedApply) -> Result<ShardApplyOutcome, ShardFailure> {
        self.0.commit(staged)
    }
    fn epoch(&self) -> u64 {
        self.0.epoch()
    }
    fn local_store(&self) -> Option<&SnapshotStore> {
        self.0.local_store()
    }
    fn fetch_resync(&self) -> Result<ResyncSnapshot, ShardFailure> {
        self.0.fetch_resync()
    }
    fn install_resync(&self, snap: &ResyncSnapshot) -> Result<(), ShardFailure> {
        self.0.install_resync(snap)
    }
}

/// Runs `query` on its own thread and fails the test if it does not
/// answer within a few seconds (a read blocked behind a staged publish
/// would otherwise hang the test).
fn query_promptly(router: &Arc<ShardRouter>, q: TopsQuery) -> Arc<ShardedServiceAnswer> {
    let (tx, rx) = channel();
    let router = Arc::clone(router);
    std::thread::spawn(move || {
        let _ = tx.send(router.query_blocking(q));
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the query waited on a staged publish")
        .expect("query failed")
}

#[test]
fn reads_answer_at_the_old_epoch_while_a_publish_is_staged() {
    let gate = Arc::new(Gate::default());
    let router = Arc::new(router_with(1, ShardRouterConfig::default(), |s, _, t| {
        if s == 0 {
            Box::new(GatedStage {
                inner: Arc::new(t),
                gate: Arc::clone(&gate),
                fail: Arc::default(),
            })
        } else {
            Box::new(t)
        }
    }));
    let twin = uncached_twin();
    let q = TopsQuery::binary(3, 800.0);
    let before = router.query_blocking(q).unwrap();
    assert_eq!(before.epoch, 0);

    gate.set_closed(true);
    let publisher = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || router.apply_updates(batch(0)))
    };
    gate.await_waiting();
    // The publisher sits inside shard 0's stage: reads go on at epoch 0.
    for _ in 0..3 {
        let during = query_promptly(&router, q);
        assert_eq!(during.epoch, 0);
        assert!(!during.degraded && !during.stale);
        assert_eq!(fingerprint(&during), fingerprint(&before));
    }
    assert_eq!(router.epoch(), 0);

    gate.set_closed(false);
    let receipt = publisher.join().expect("publisher panicked");
    assert_eq!(receipt.epoch, 1);
    assert_eq!(router.epoch(), 1);
    let after = router.query_blocking(q).unwrap();
    assert_eq!(after.epoch, 1);
    twin.apply_updates(batch(0));
    let reference = twin.query_blocking(q).unwrap();
    assert_eq!(fingerprint(&after), fingerprint(&reference));
    assert_ne!(
        fingerprint(&after),
        fingerprint(&before),
        "batch 0 moves the answer"
    );
    router.shutdown();
    twin.shutdown();
}

#[test]
fn concurrent_router_reads_and_writes_never_tear() {
    const BATCHES: u32 = 10;
    let queries: Vec<TopsQuery> = [1usize, 2, 3]
        .iter()
        .flat_map(|&k| [400.0, 800.0, 1500.0].map(|tau| TopsQuery::binary(k, tau)))
        .collect();
    let router = router_with(2, ShardRouterConfig::default(), |_, _, t| Box::new(t));
    let writer_done = AtomicBool::new(false);

    let answers: Vec<Vec<(usize, Arc<ShardedServiceAnswer>)>> = std::thread::scope(|scope| {
        scope.spawn(|| {
            for r in 0..BATCHES {
                let receipt = router.apply_updates(batch(r));
                assert_eq!(receipt.epoch, u64::from(r) + 1);
                std::thread::sleep(Duration::from_millis(2));
            }
            writer_done.store(true, Ordering::Release);
        });
        let clients: Vec<_> = (0..2usize)
            .map(|c| {
                let (router, writer_done, queries) = (&router, &writer_done, &queries);
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    let mut i = c;
                    while !writer_done.load(Ordering::Acquire) || seen.len() < 20 {
                        let qi = i % queries.len();
                        i += 1;
                        seen.push((qi, router.query_blocking(queries[qi]).unwrap()));
                        if seen.len() > 20_000 {
                            break; // safety valve
                        }
                    }
                    seen
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });

    let faults = router.fault_report();
    assert_eq!(faults.degraded_answers, 0);
    assert_eq!(faults.stale_answers, 0);
    assert_eq!(faults.shard_failures, 0, "no epoch skew or failed apply");
    assert_eq!(router.epoch(), u64::from(BATCHES));
    assert_eq!(router.replica_lag_max(), 0);

    // The reference: an uncached twin answering every query at every
    // epoch of the same batch prefix.
    let twin = uncached_twin();
    let mut reference: HashMap<(u64, usize), _> = HashMap::new();
    for epoch in 0..=u64::from(BATCHES) {
        if epoch > 0 {
            twin.apply_updates(batch(epoch as u32 - 1));
        }
        for (qi, q) in queries.iter().enumerate() {
            let a = twin.query_blocking(*q).unwrap();
            assert_eq!(a.epoch, epoch);
            reference.insert((epoch, qi), fingerprint(&a));
        }
    }
    let mut epochs_seen = std::collections::BTreeSet::new();
    for seen in &answers {
        let mut last = 0;
        for (qi, a) in seen {
            assert!(a.epoch >= last, "epoch went back: {} after {last}", a.epoch);
            last = a.epoch;
            assert!(!a.degraded && !a.stale && a.shards_missing.is_empty());
            assert_eq!(
                fingerprint(a),
                reference[&(a.epoch, *qi)],
                "query {qi} at epoch {}",
                a.epoch
            );
            epochs_seen.insert(a.epoch);
        }
    }
    assert!(epochs_seen.len() > 1, "the readers never saw a publish");
    router.shutdown();
    twin.shutdown();
}

#[test]
fn resync_waits_for_a_staged_publish_to_commit() {
    let gate = Arc::new(Gate::default());
    let fail = Arc::new(AtomicBool::new(false));
    let mut replicas: Vec<Arc<InProcessShard>> = Vec::new();
    let router = Arc::new(router_with(2, ShardRouterConfig::default(), |s, r, t| {
        let t = Arc::new(t);
        if s == 0 {
            replicas.push(Arc::clone(&t));
        }
        if (s, r) == (0, 1) {
            Box::new(GatedStage {
                inner: t,
                gate: Arc::clone(&gate),
                fail: Arc::clone(&fail),
            })
        } else {
            Box::new(Shared(t))
        }
    }));

    // Replica (0, 1) misses batch 0 and lags the lockstep epoch.
    fail.store(true, Ordering::Release);
    assert_eq!(router.apply_updates(batch(0)).epoch, 1);
    fail.store(false, Ordering::Release);
    assert_eq!(router.replica_lag_max(), 1);

    // Hold batch 1 inside the lagging replica's stage, then ask for the
    // resync: it must wait for the commit, not slip in before it.
    gate.set_closed(true);
    let publisher = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || router.apply_updates(batch(1)))
    };
    gate.await_waiting();
    let resynced = Arc::new(AtomicBool::new(false));
    let resync = {
        let (router, resynced) = (Arc::clone(&router), Arc::clone(&resynced));
        std::thread::spawn(move || {
            let out = router.resync_replica(0, 1);
            resynced.store(true, Ordering::Release);
            out
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !resynced.load(Ordering::Acquire),
        "resync ran inside a publish"
    );
    let during = query_promptly(&router, TopsQuery::binary(2, 800.0));
    assert_eq!(during.epoch, 1);
    assert!(!during.degraded);

    gate.set_closed(false);
    assert_eq!(publisher.join().unwrap().epoch, 2);
    assert_eq!(resync.join().unwrap(), Ok(2));
    assert_eq!(router.epoch(), 2);
    assert_eq!(router.replica_lag_max(), 0);

    let twin = uncached_twin();
    twin.apply_updates(batch(0));
    twin.apply_updates(batch(1));
    for q in [TopsQuery::binary(2, 800.0), TopsQuery::binary(3, 1500.0)] {
        let [a, b] = [&replicas[0], &replicas[1]].map(|t| {
            let snap = t.local_store().unwrap().load();
            assert_eq!(snap.epoch(), 2);
            let ans = snap.index().query(snap.trajs(), &q).solution;
            (ans.sites, ans.utility.to_bits())
        });
        assert_eq!(a, b, "replicas disagree");
        let served = router.query_blocking(q).unwrap();
        let reference = twin.query_blocking(q).unwrap();
        assert!(!served.degraded);
        assert_eq!(fingerprint(&served), fingerprint(&reference));
    }
    router.shutdown();
    twin.shutdown();
}
