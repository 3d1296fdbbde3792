//! Epoch-based snapshot store: readers never block, writers publish
//! atomically.
//!
//! The paper's dynamic-update machinery (Sec. 6) mutates the index in
//! place, which is fine for a single-threaded harness but unusable under
//! concurrent queries. Here the index and corpus are immutable behind an
//! [`Arc`]. A writer publishes the next epoch in two phases:
//!
//! 1. **Stage** ([`SnapshotStore::stage`], [`SnapshotStore::stage_routed`]):
//!    clone the current corpus and index and apply a whole batch to the
//!    private copy (one `netclus::update::IndexBatch`). The road network
//!    is fixed (as in the paper) and shared by `Arc`; the index clone
//!    copies cluster headers only, and the staged index shares every list
//!    the batch does not touch with the published one (see
//!    `netclus::cluster`). Nothing is visible yet.
//! 2. **Publish** ([`SnapshotStore::publish`]): swap the staged snapshot in
//!    with a single pointer store — refused if another snapshot was
//!    published since the stage was built, so a stage can never overwrite
//!    an epoch it did not see.
//!
//! [`SnapshotStore::apply`] runs both phases under the store's writer
//! lock; the shard router stages every shard outside its update lock and
//! publishes them together inside it. Readers pin a snapshot with one
//! `Arc` clone and keep answering from it even while newer epochs are
//! staged and published — every answer is therefore internally consistent
//! with exactly one epoch, never a torn mix of two.

use std::sync::{Arc, Mutex, RwLock};

use netclus::NetClusIndex;
use netclus_roadnet::NodeId;
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};

/// One immutable published state of the service: the road network, the
/// trajectory corpus and the NetClus index, all as of one epoch.
#[derive(Clone, Debug)]
pub struct Snapshot {
    epoch: u64,
    net: Arc<netclus_roadnet::RoadNetwork>,
    trajs: Arc<TrajectorySet>,
    index: Arc<NetClusIndex>,
}

impl Snapshot {
    /// The epoch this snapshot was published under (0 = initial state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The (fixed) road network.
    pub fn net(&self) -> &netclus_roadnet::RoadNetwork {
        &self.net
    }

    /// A shared handle to the (fixed) road network. The network never
    /// changes across epochs, so long-lived holders (e.g. the ingest
    /// pipeline's map-match workers) can keep this without pinning a whole
    /// snapshot — and with it an old trajectory corpus — alive.
    pub fn net_shared(&self) -> Arc<netclus_roadnet::RoadNetwork> {
        Arc::clone(&self.net)
    }

    /// The trajectory corpus as of this epoch.
    pub fn trajs(&self) -> &TrajectorySet {
        &self.trajs
    }

    /// The NetClus index as of this epoch.
    pub fn index(&self) -> &NetClusIndex {
        &self.index
    }
}

/// One mutation of the served state.
#[derive(Clone, Debug)]
pub enum UpdateOp {
    /// Adds a trajectory to the corpus and indexes it (paper Sec. 6.1).
    AddTrajectory(Trajectory),
    /// Removes a trajectory by id; a no-op if the id is dead or unknown.
    RemoveTrajectory(TrajId),
    /// Flags an existing network vertex as a candidate site (Sec. 6.2).
    AddSite(NodeId),
    /// Unflags a candidate site; a no-op if it was not one.
    RemoveSite(NodeId),
}

/// A batch of updates applied and published as one epoch.
pub type UpdateBatch = Vec<UpdateOp>;

/// A shard-routed update operation: like [`UpdateOp`], but trajectory
/// additions carry an explicit, router-assigned **global** id. A shard
/// only receives the trajectories that touch it, so its local id sequence
/// has gaps — the explicit id (applied via
/// [`TrajectorySet::insert_at`]) keeps every shard's id space aligned
/// with the global one, which is what lets round-2 merges mix coverage
/// rows from different shards.
#[derive(Clone, Debug, PartialEq)]
pub enum RoutedOp {
    /// Adds a trajectory under a pre-assigned global id.
    AddTrajectoryAt(TrajId, Trajectory),
    /// Removes a trajectory by id; a no-op if dead or unknown.
    RemoveTrajectory(TrajId),
    /// Flags an existing network vertex as a candidate site.
    AddSite(NodeId),
    /// Unflags a candidate site.
    RemoveSite(NodeId),
}

/// What a published batch did.
#[derive(Clone, Copy, Debug)]
pub struct UpdateReceipt {
    /// The epoch the batch was published under.
    pub epoch: u64,
    /// Operations that changed state.
    pub applied: usize,
    /// Operations rejected or no-ops (out-of-network site, dead id,
    /// double add/remove).
    pub rejected: usize,
}

/// The next epoch of a [`SnapshotStore`], built by
/// [`SnapshotStore::stage`] or [`SnapshotStore::stage_routed`] and not yet
/// visible to readers until [`SnapshotStore::publish`] swaps it in.
#[derive(Debug)]
pub struct StagedSnapshot {
    /// The published snapshot the batch was applied to.
    base: Arc<Snapshot>,
    next: Snapshot,
    receipt: UpdateReceipt,
    results: Vec<bool>,
}

impl StagedSnapshot {
    /// The epoch the stage was built on.
    pub fn base_epoch(&self) -> u64 {
        self.base.epoch
    }

    /// Per-op outcome (`true` = applied) in batch order.
    pub fn results(&self) -> &[bool] {
        &self.results
    }
}

/// [`SnapshotStore::publish`] refused a stage: another snapshot was
/// published (or installed) after the stage was built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaleStage {
    /// The epoch the refused stage was built on.
    pub base_epoch: u64,
    /// The epoch published now.
    pub current_epoch: u64,
}

impl std::fmt::Display for StaleStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stage built on epoch {} but epoch {} is published",
            self.base_epoch, self.current_epoch
        )
    }
}

impl std::error::Error for StaleStage {}

/// The `Arc`-swapped store. `load` is wait-free for practical purposes (a
/// read-lock held only for one `Arc` clone); writers stage without any
/// lock readers take, and publish with one pointer swap.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
    /// Serializes [`SnapshotStore::apply`]-style writers and
    /// [`SnapshotStore::install`], so batches publish in a total epoch
    /// order.
    writer: Mutex<()>,
}

impl SnapshotStore {
    /// Creates a store publishing `(net, trajs, index)` as epoch 0.
    pub fn new(
        net: netclus_roadnet::RoadNetwork,
        trajs: TrajectorySet,
        index: NetClusIndex,
    ) -> Self {
        Self::with_shared_net(Arc::new(net), trajs, index)
    }

    /// [`SnapshotStore::new`] over an already-shared road network — the
    /// sharded-serving constructor, where every per-shard store serves the
    /// same full network without duplicating it.
    pub fn with_shared_net(
        net: Arc<netclus_roadnet::RoadNetwork>,
        trajs: TrajectorySet,
        index: NetClusIndex,
    ) -> Self {
        let snapshot = Snapshot {
            epoch: 0,
            net,
            trajs: Arc::new(trajs),
            index: Arc::new(index),
        };
        SnapshotStore {
            current: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(()),
        }
    }

    /// Pins the current snapshot. The returned `Arc` stays valid (and
    /// internally consistent) however many epochs are published after it.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("snapshot lock poisoned").epoch
    }

    /// Applies `batch` to a private copy of the current state and publishes
    /// it as the next epoch: [`SnapshotStore::stage`] then
    /// [`SnapshotStore::publish`], under the writer lock. Readers keep
    /// answering from older pinned snapshots until they next call
    /// [`SnapshotStore::load`].
    ///
    /// An empty batch still publishes a new (identical) epoch, which can be
    /// used to force cache invalidation.
    pub fn apply(&self, batch: &[UpdateOp]) -> UpdateReceipt {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        self.publish_staged(self.stage(batch)).0
    }

    /// The shard-routed variant of [`SnapshotStore::apply`]: trajectory
    /// additions land under their pre-assigned global ids. An empty batch
    /// still publishes a new epoch — the shard router leans on this to
    /// keep every shard store's epoch in lockstep even when a batch
    /// touches only some shards.
    pub fn apply_routed(&self, ops: &[RoutedOp]) -> UpdateReceipt {
        self.apply_routed_results(ops).0
    }

    /// Like [`SnapshotStore::apply_routed`], additionally returning the
    /// per-op outcome (`true` = applied) in batch order. The shard-server
    /// protocol ships these acks back so a remote router can reconstruct
    /// exact receipts and replication bookkeeping without a second round
    /// trip.
    pub fn apply_routed_results(&self, ops: &[RoutedOp]) -> (UpdateReceipt, Vec<bool>) {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        self.publish_staged(self.stage_routed(ops))
    }

    /// Builds the next epoch from `batch` without publishing it: the
    /// current snapshot is cloned copy-on-write and the batch applied to
    /// the copy. [`SnapshotStore::load`] keeps returning the current
    /// snapshot until [`SnapshotStore::publish`].
    pub fn stage(&self, batch: &[UpdateOp]) -> StagedSnapshot {
        self.stage_with(batch.iter().map(|op| match op {
            UpdateOp::AddTrajectory(t) => GenericOp::AddTrajectory(None, t),
            UpdateOp::RemoveTrajectory(id) => GenericOp::RemoveTrajectory(*id),
            UpdateOp::AddSite(v) => GenericOp::AddSite(*v),
            UpdateOp::RemoveSite(v) => GenericOp::RemoveSite(*v),
        }))
    }

    /// The shard-routed variant of [`SnapshotStore::stage`] (see
    /// [`SnapshotStore::apply_routed`]).
    pub fn stage_routed(&self, ops: &[RoutedOp]) -> StagedSnapshot {
        self.stage_with(ops.iter().map(|op| match op {
            RoutedOp::AddTrajectoryAt(id, t) => GenericOp::AddTrajectory(Some(*id), t),
            RoutedOp::RemoveTrajectory(id) => GenericOp::RemoveTrajectory(*id),
            RoutedOp::AddSite(v) => GenericOp::AddSite(*v),
            RoutedOp::RemoveSite(v) => GenericOp::RemoveSite(*v),
        }))
    }

    /// Publishes a stage as the next epoch and returns its receipt and
    /// per-op outcomes.
    ///
    /// # Errors
    /// [`StaleStage`] (and nothing changes) when the snapshot the stage
    /// was built on is no longer the published one.
    pub fn publish(
        &self,
        staged: StagedSnapshot,
    ) -> Result<(UpdateReceipt, Vec<bool>), StaleStage> {
        let StagedSnapshot {
            base,
            next,
            receipt,
            results,
        } = staged;
        let mut current = self.current.write().expect("snapshot lock poisoned");
        if !Arc::ptr_eq(&current, &base) {
            return Err(StaleStage {
                base_epoch: base.epoch,
                current_epoch: current.epoch,
            });
        }
        *current = Arc::new(next);
        Ok((receipt, results))
    }

    /// [`SnapshotStore::publish`] for a stage built under the writer lock,
    /// which no other publish can have overtaken.
    fn publish_staged(&self, staged: StagedSnapshot) -> (UpdateReceipt, Vec<bool>) {
        self.publish(staged)
            .expect("the writer lock keeps the stage base current")
    }

    /// Replaces the published state wholesale with `(trajs, index)` at
    /// exactly `epoch` — the resync catch-up path, where a lagging or
    /// restarted replica installs a snapshot transferred from a healthy
    /// sibling instead of replaying the update batches it missed. The
    /// road network is fixed across epochs and is carried over from the
    /// current snapshot. Readers holding older pinned snapshots are
    /// unaffected; the next [`SnapshotStore::load`] sees the new state.
    pub fn install(&self, epoch: u64, trajs: TrajectorySet, index: NetClusIndex) {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.load();
        let next = Snapshot {
            epoch,
            net: Arc::clone(&base.net),
            trajs: Arc::new(trajs),
            index: Arc::new(index),
        };
        *self.current.write().expect("snapshot lock poisoned") = Arc::new(next);
    }

    /// The single stage path behind every writer: copy-on-write clone of
    /// the current snapshot and sequential op application to the copy.
    fn stage_with<'a, I>(&self, ops: I) -> StagedSnapshot
    where
        I: Iterator<Item = GenericOp<'a>>,
    {
        let base = self.load();
        // Private copies; the network is fixed and shared.
        let mut trajs = (*base.trajs).clone();
        let mut index = (*base.index).clone();
        let mut applied = 0usize;
        let mut rejected = 0usize;
        let mut results = Vec::new();
        let mut edits = index.batch();
        for op in ops {
            let ok = match op {
                GenericOp::AddTrajectory(id, t) => {
                    if t.nodes().iter().any(|v| v.index() >= base.net.node_count()) {
                        false
                    } else {
                        match id {
                            // Router-assigned global id: refuse occupied
                            // slots instead of silently relabeling.
                            Some(id) => {
                                if trajs.insert_at(id, t.clone()) {
                                    edits.add_trajectory(id, t);
                                    true
                                } else {
                                    false
                                }
                            }
                            None => {
                                let id = trajs.add(t.clone());
                                edits.add_trajectory(id, t);
                                true
                            }
                        }
                    }
                }
                GenericOp::RemoveTrajectory(id) => match trajs.remove(id) {
                    Some(t) => {
                        edits.remove_trajectory(id, &t);
                        true
                    }
                    None => false,
                },
                GenericOp::AddSite(v) => {
                    v.index() < base.net.node_count() && edits.add_site(&trajs, v)
                }
                GenericOp::RemoveSite(v) => {
                    v.index() < base.net.node_count() && edits.remove_site(&trajs, v)
                }
            };
            results.push(ok);
            if ok {
                applied += 1;
            } else {
                rejected += 1;
            }
        }
        drop(edits);
        let next = Snapshot {
            epoch: base.epoch + 1,
            net: Arc::clone(&base.net),
            trajs: Arc::new(trajs),
            index: Arc::new(index),
        };
        StagedSnapshot {
            receipt: UpdateReceipt {
                epoch: next.epoch,
                applied,
                rejected,
            },
            base,
            next,
            results,
        }
    }
}

/// Where an update publisher (the ingest pipeline) lands its batches: a
/// monolithic [`SnapshotStore`] or a replicated
/// [`crate::shard_router::ShardRouter`] fanning every batch out to every
/// replica of every shard. The publisher's contract is identical over
/// both: batches publish sequential epochs, trajectory ids are dense and
/// predictable from `traj_id_bound`, and the road network is fixed.
pub trait UpdateSink: Send + Sync {
    /// The currently published (for a router: lockstep) epoch.
    fn sink_epoch(&self) -> u64;
    /// The shared, epoch-invariant road network new batches are matched
    /// and validated against.
    fn sink_net(&self) -> Arc<netclus_roadnet::RoadNetwork>;
    /// The current trajectory id bound — the next dense id a publisher's
    /// id prediction will assign.
    fn sink_traj_id_bound(&self) -> usize;
    /// Applies `ops` as one batch publishing the next epoch.
    fn apply_batch(&self, ops: &[UpdateOp]) -> UpdateReceipt;
}

impl UpdateSink for SnapshotStore {
    fn sink_epoch(&self) -> u64 {
        self.epoch()
    }

    fn sink_net(&self) -> Arc<netclus_roadnet::RoadNetwork> {
        self.load().net_shared()
    }

    fn sink_traj_id_bound(&self) -> usize {
        self.load().trajs().id_bound()
    }

    fn apply_batch(&self, ops: &[UpdateOp]) -> UpdateReceipt {
        self.apply(ops)
    }
}

/// The union of [`UpdateOp`] and [`RoutedOp`] the single writer path works
/// on: a trajectory add either predicts the next dense id (`None`) or
/// carries a router-assigned one (`Some`).
enum GenericOp<'a> {
    AddTrajectory(Option<TrajId>, &'a Trajectory),
    RemoveTrajectory(TrajId),
    AddSite(NodeId),
    RemoveSite(NodeId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus::prelude::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};

    fn fixture() -> SnapshotStore {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..10 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..9u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        trajs.add(Trajectory::new((0..5).map(NodeId).collect()));
        let sites: Vec<NodeId> = net.nodes().collect();
        let index = NetClusIndex::build(
            &net,
            &trajs,
            &sites,
            NetClusConfig {
                tau_min: 200.0,
                tau_max: 2_000.0,
                threads: 1,
                ..Default::default()
            },
        );
        SnapshotStore::new(net, trajs, index)
    }

    #[test]
    fn epochs_advance_and_old_snapshots_stay_pinned() {
        let store = fixture();
        let pinned = store.load();
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.trajs().len(), 1);

        let r = store.apply(&[UpdateOp::AddTrajectory(Trajectory::new(
            (5..9).map(NodeId).collect(),
        ))]);
        assert_eq!(r.epoch, 1);
        assert_eq!((r.applied, r.rejected), (1, 0));

        // The pinned snapshot is untouched; a fresh load sees the new epoch.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.trajs().len(), 1);
        let fresh = store.load();
        assert_eq!(fresh.epoch(), 1);
        assert_eq!(fresh.trajs().len(), 2);
    }

    #[test]
    fn rejected_ops_are_counted_not_applied() {
        let store = fixture();
        let r = store.apply(&[
            UpdateOp::AddTrajectory(Trajectory::new(vec![NodeId(99)])), // off-network
            UpdateOp::RemoveTrajectory(TrajId(7)),                      // never existed
            UpdateOp::AddSite(NodeId(3)),                               // already a site
            UpdateOp::RemoveSite(NodeId(2)),                            // fine
        ]);
        assert_eq!((r.applied, r.rejected), (1, 3));
        let snap = store.load();
        assert!(!snap.index().is_site(NodeId(2)));
        assert_eq!(snap.trajs().len(), 1);
    }

    #[test]
    fn updated_snapshot_answers_match_a_fresh_rebuild() {
        let store = fixture();
        store.apply(&[
            UpdateOp::AddTrajectory(Trajectory::new((5..9).map(NodeId).collect())),
            UpdateOp::AddTrajectory(Trajectory::new((6..9).map(NodeId).collect())),
        ]);
        let snap = store.load();
        let q = TopsQuery::binary(2, 600.0);
        let served = snap.index().query(snap.trajs(), &q);

        let rebuilt = NetClusIndex::build(
            snap.net(),
            snap.trajs(),
            &snap.net().nodes().collect::<Vec<_>>(),
            *snap.index().config(),
        );
        let fresh = rebuilt.query(snap.trajs(), &q);
        assert_eq!(served.solution.sites, fresh.solution.sites);
        assert!((served.solution.utility - fresh.solution.utility).abs() < 1e-9);
    }

    #[test]
    fn apply_routed_preserves_explicit_ids() {
        let store = fixture();
        // Pretend trajectory ids 1 and 2 were assigned elsewhere; this
        // shard only receives id 2 — the id space must stay aligned.
        let r = store.apply_routed(&[RoutedOp::AddTrajectoryAt(
            TrajId(2),
            Trajectory::new((5..9).map(NodeId).collect()),
        )]);
        assert_eq!((r.applied, r.rejected), (1, 0));
        let snap = store.load();
        assert_eq!(snap.trajs().id_bound(), 3);
        assert!(snap.trajs().get(TrajId(1)).is_none());
        assert!(snap.trajs().get(TrajId(2)).is_some());
        // Occupied slot and off-network nodes are rejected.
        let r = store.apply_routed(&[
            RoutedOp::AddTrajectoryAt(TrajId(2), Trajectory::new(vec![NodeId(0)])),
            RoutedOp::AddTrajectoryAt(TrajId(5), Trajectory::new(vec![NodeId(99)])),
            RoutedOp::RemoveTrajectory(TrajId(2)),
        ]);
        assert_eq!((r.applied, r.rejected), (1, 2));
        // An empty routed batch still advances the epoch (lockstep).
        let r = store.apply_routed(&[]);
        assert_eq!(r.epoch, 3);
    }

    #[test]
    fn stage_is_invisible_until_published() {
        let store = fixture();
        let staged = store.stage(&[
            UpdateOp::AddTrajectory(Trajectory::new((5..9).map(NodeId).collect())),
            UpdateOp::RemoveSite(NodeId(2)),
        ]);
        assert_eq!(staged.base_epoch(), 0);
        assert_eq!(staged.results(), &[true, true]);
        // Staging changes nothing a reader can see.
        let pinned = store.load();
        assert_eq!((pinned.epoch(), pinned.trajs().len()), (0, 1));
        assert!(pinned.index().is_site(NodeId(2)));
        assert_eq!(store.epoch(), 0);

        let (receipt, results) = store.publish(staged).expect("base is current");
        assert_eq!(
            (receipt.epoch, receipt.applied, receipt.rejected),
            (1, 2, 0)
        );
        assert_eq!(results, vec![true, true]);
        let fresh = store.load();
        assert_eq!((fresh.epoch(), fresh.trajs().len()), (1, 2));
        assert!(!fresh.index().is_site(NodeId(2)));
        // The pinned snapshot is untouched.
        assert_eq!((pinned.epoch(), pinned.trajs().len()), (0, 1));
        assert!(pinned.index().is_site(NodeId(2)));
    }

    #[test]
    fn publish_refuses_a_stale_base() {
        let store = fixture();
        let early = store.stage(&[UpdateOp::RemoveSite(NodeId(1))]);
        let late = store.stage_routed(&[RoutedOp::RemoveSite(NodeId(2))]);
        store.publish(late).expect("base is current");
        let err = store.publish(early).unwrap_err();
        assert_eq!(
            err,
            StaleStage {
                base_epoch: 0,
                current_epoch: 1
            }
        );
        let snap = store.load();
        assert_eq!(snap.epoch(), 1);
        assert!(snap.index().is_site(NodeId(1)), "the stale stage leaked");
        // An install replaces the base even at the same epoch number.
        let stage = store.stage(&[]);
        store.install(1, (*snap.trajs()).clone(), (*snap.index()).clone());
        assert_eq!(
            store.publish(stage).unwrap_err(),
            StaleStage {
                base_epoch: 1,
                current_epoch: 1
            }
        );
        // A fresh apply still goes through.
        assert_eq!(store.apply(&[]).epoch, 2);
    }

    #[test]
    fn empty_batch_publishes_identical_epoch() {
        let store = fixture();
        let r = store.apply(&[]);
        assert_eq!(r.epoch, 1);
        assert_eq!((r.applied, r.rejected), (0, 0));
        assert_eq!(store.load().trajs().len(), 1);
    }
}
