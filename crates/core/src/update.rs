//! Dynamic updates of the NetClus index (paper Sec. 6).
//!
//! The index absorbs additions/removals of candidate sites and trajectories
//! without rebuilding — the road network itself is assumed fixed, as in the
//! paper. Every operation is applied to **all** index instances:
//!
//! * **Site added** — flag the node, and re-elect the representative of its
//!   cluster if the new site wins under the configured strategy.
//! * **Site removed** — unflag; if it was a cluster representative, elect a
//!   replacement among the remaining member sites.
//! * **Trajectory added** — map the node sequence to its compressed cluster
//!   sequence per instance (`CC`), append to the affected `T L(g)` lists.
//! * **Trajectory removed** — recompute `CC` from the removed trajectory
//!   (a pure function of its nodes and the instance's fixed node maps, so
//!   the index keeps no inverse map) and drop it from the `T L(g)` of every
//!   cluster in it.
//!
//! The caller keeps the companion [`TrajectorySet`] in sync: add there
//! first to obtain the id, and remove there first to obtain the trajectory
//! that [`NetClusIndex::remove_trajectory`] takes. `tests/` verify that an
//! updated index is observationally identical to a fresh rebuild.
//!
//! Trajectory lists are frozen `Arc<[..]>` slices shared by every clone
//! of an index. An [`IndexBatch`] thaws each list it edits into a private
//! vector on first touch and freezes it back when the batch ends, so a
//! batch copies only the lists it touches (twice, however many of its
//! edits land in one), and on a clone of a published index every other
//! list stays shared with the original (see [`crate::cluster`]). The
//! single-edit methods on [`NetClusIndex`] are batches of one: a loop of
//! them copies a list once per edit that touches it.

use std::collections::HashMap;

use netclus_roadnet::NodeId;
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};

use crate::cluster::{choose_representative, map_trajectory};
use crate::index::NetClusIndex;

impl NetClusIndex {
    /// Registers `v` (an existing network vertex) as a candidate site.
    /// Returns false if it was already a site.
    ///
    /// `trajs` is consulted only for the
    /// [`MostFrequented`](crate::cluster::RepresentativeStrategy::MostFrequented)
    /// representative strategy.
    pub fn add_site(&mut self, trajs: &TrajectorySet, v: NodeId) -> bool {
        assert!(
            v.index() < self.is_site.len(),
            "site {v:?} beyond network size; extend the network offline (Sec. 2 augmentation)"
        );
        if self.is_site[v.index()] {
            return false;
        }
        self.is_site[v.index()] = true;
        let strategy = self.config.representative;
        for inst in &mut self.instances {
            let ci = inst.node_cluster[v.index()] as usize;
            choose_representative(&mut inst.clusters[ci], trajs, &self.is_site, strategy);
        }
        true
    }

    /// Removes `v` from the candidate sites. Returns false if it was not a
    /// site.
    pub fn remove_site(&mut self, trajs: &TrajectorySet, v: NodeId) -> bool {
        assert!(v.index() < self.is_site.len(), "unknown node {v:?}");
        if !self.is_site[v.index()] {
            return false;
        }
        self.is_site[v.index()] = false;
        let strategy = self.config.representative;
        for inst in &mut self.instances {
            let ci = inst.node_cluster[v.index()] as usize;
            let cluster = &mut inst.clusters[ci];
            if cluster.representative == Some(v) {
                choose_representative(cluster, trajs, &self.is_site, strategy);
            }
        }
        true
    }

    /// Starts a batch of trajectory edits; see [`IndexBatch`].
    pub fn batch(&mut self) -> IndexBatch<'_> {
        IndexBatch {
            index: self,
            thawed: HashMap::new(),
        }
    }

    /// Indexes a newly added trajectory (a batch of one, see
    /// [`IndexBatch::add_trajectory`]).
    pub fn add_trajectory(&mut self, id: TrajId, traj: &Trajectory) {
        self.batch().add_trajectory(id, traj);
    }

    /// Un-indexes a removed trajectory (a batch of one, see
    /// [`IndexBatch::remove_trajectory`]).
    pub fn remove_trajectory(&mut self, id: TrajId, traj: &Trajectory) {
        self.batch().remove_trajectory(id, traj);
    }

    /// Applies a batch of trajectory additions as one [`IndexBatch`].
    pub fn add_trajectories<'a, I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (TrajId, &'a Trajectory)>,
    {
        let mut edits = self.batch();
        for (id, traj) in batch {
            edits.add_trajectory(id, traj);
        }
    }
}

/// Trajectory edits to a [`NetClusIndex`] applied as one batch (paper
/// Sec. 6 notes batches are more efficient). Every `T L(g)` the batch
/// edits is thawed into a private vector on first touch and frozen back
/// into a shared list when the batch is dropped; the index is not
/// readable in between (the batch borrows it mutably).
pub struct IndexBatch<'a> {
    index: &'a mut NetClusIndex,
    /// Thawed lists by `(instance, cluster)`.
    thawed: HashMap<(usize, u32), Vec<(TrajId, f64)>>,
}

impl IndexBatch<'_> {
    /// Indexes a newly added trajectory. `id` must be the id returned by
    /// the companion [`TrajectorySet::add`] call.
    pub fn add_trajectory(&mut self, id: TrajId, traj: &Trajectory) {
        for (p, inst) in self.index.instances.iter().enumerate() {
            for (ci, d) in map_trajectory(traj, &inst.node_cluster, &inst.node_center_dist) {
                self.thawed
                    .entry((p, ci))
                    .or_insert_with(|| inst.clusters[ci as usize].traj_list.to_vec())
                    .push((id, d));
            }
        }
    }

    /// Un-indexes a removed trajectory. `traj` must be the trajectory the
    /// companion [`TrajectorySet::remove`] call returned for `id`: its
    /// `CC` names the lists to edit. Safe to call for ids that were never
    /// indexed (no-op).
    pub fn remove_trajectory(&mut self, id: TrajId, traj: &Trajectory) {
        for (p, inst) in self.index.instances.iter().enumerate() {
            for (ci, _) in map_trajectory(traj, &inst.node_cluster, &inst.node_center_dist) {
                let frozen = &inst.clusters[ci as usize].traj_list;
                let list = self.thawed.get(&(p, ci)).map_or(&frozen[..], Vec::as_slice);
                // Find before thawing: a list without `id` stays shared.
                if let Some(pos) = list.iter().position(|&(t, _)| t == id) {
                    self.thawed
                        .entry((p, ci))
                        .or_insert_with(|| frozen.to_vec())
                        .swap_remove(pos);
                }
            }
        }
    }
}

impl IndexBatch<'_> {
    /// [`NetClusIndex::add_site`] inside the batch (a site flip edits no
    /// trajectory list).
    pub fn add_site(&mut self, trajs: &TrajectorySet, v: NodeId) -> bool {
        self.index.add_site(trajs, v)
    }

    /// [`NetClusIndex::remove_site`] inside the batch.
    pub fn remove_site(&mut self, trajs: &TrajectorySet, v: NodeId) -> bool {
        self.index.remove_site(trajs, v)
    }
}

impl Drop for IndexBatch<'_> {
    fn drop(&mut self) {
        for ((p, ci), list) in self.thawed.drain() {
            self.index.instances[p].clusters[ci as usize].traj_list = list.into();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::index::{NetClusConfig, NetClusIndex};
    use crate::query::TopsQuery;
    use netclus_roadnet::{Point, RoadNetwork, RoadNetworkBuilder};

    fn fixture() -> (RoadNetwork, TrajectorySet) {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..16 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..15u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        for s in [0u32, 4, 9] {
            trajs.add(Trajectory::new((s..s + 5).map(NodeId).collect()));
        }
        (net, trajs)
    }

    fn config() -> NetClusConfig {
        NetClusConfig {
            tau_min: 200.0,
            tau_max: 2_000.0,
            threads: 1,
            ..Default::default()
        }
    }

    /// Updated index must equal a fresh rebuild, observationally: same
    /// trajectory lists (as sets) and same representatives.
    fn assert_equivalent(updated: &NetClusIndex, rebuilt: &NetClusIndex) {
        assert_eq!(updated.instances().len(), rebuilt.instances().len());
        for (a, b) in updated.instances().iter().zip(rebuilt.instances()) {
            assert_eq!(a.cluster_count(), b.cluster_count());
            for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
                assert_eq!(ca.center, cb.center);
                assert_eq!(ca.representative, cb.representative);
                assert_eq!(ca.rep_distance, cb.rep_distance);
                let mut la: Vec<_> = ca
                    .traj_list
                    .iter()
                    .map(|&(t, d)| (t, d.to_bits()))
                    .collect();
                let mut lb: Vec<_> = cb
                    .traj_list
                    .iter()
                    .map(|&(t, d)| (t, d.to_bits()))
                    .collect();
                la.sort_unstable();
                lb.sort_unstable();
                assert_eq!(la, lb, "TL mismatch at center {:?}", ca.center);
            }
        }
    }

    #[test]
    fn add_trajectory_equals_rebuild() {
        let (net, mut trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        let t_new = Trajectory::new((11..16).map(NodeId).collect());
        let id = trajs.add(t_new.clone());
        idx.add_trajectory(id, &t_new);
        let rebuilt = NetClusIndex::build(&net, &trajs, &sites, config());
        assert_equivalent(&idx, &rebuilt);
    }

    #[test]
    fn remove_trajectory_equals_rebuild() {
        let (net, mut trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        let removed = trajs.remove(TrajId(1)).unwrap();
        idx.remove_trajectory(TrajId(1), &removed);
        let rebuilt = NetClusIndex::build(&net, &trajs, &sites, config());
        assert_equivalent(&idx, &rebuilt);
        // Removing again is a no-op.
        idx.remove_trajectory(TrajId(1), &removed);
        assert_equivalent(&idx, &rebuilt);
    }

    #[test]
    fn add_site_equals_rebuild() {
        let (net, trajs) = fixture();
        let initial = vec![NodeId(3)];
        let mut idx = NetClusIndex::build(&net, &trajs, &initial, config());
        assert!(idx.add_site(&trajs, NodeId(8)));
        assert!(!idx.add_site(&trajs, NodeId(8)), "double add must be no-op");
        let rebuilt = NetClusIndex::build(&net, &trajs, &[NodeId(3), NodeId(8)], config());
        assert_equivalent(&idx, &rebuilt);
        assert_eq!(idx.site_count(), 2);
    }

    #[test]
    fn remove_site_reelects_representative() {
        let (net, trajs) = fixture();
        let sites = vec![NodeId(3), NodeId(4)];
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        assert!(idx.remove_site(&trajs, NodeId(3)));
        assert!(!idx.remove_site(&trajs, NodeId(3)));
        let rebuilt = NetClusIndex::build(&net, &trajs, &[NodeId(4)], config());
        assert_equivalent(&idx, &rebuilt);
    }

    #[test]
    fn removing_last_site_leaves_clusters_without_rep() {
        let (net, trajs) = fixture();
        let sites = vec![NodeId(5)];
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        idx.remove_site(&trajs, NodeId(5));
        assert_eq!(idx.site_count(), 0);
        for inst in idx.instances() {
            assert!(inst.clusters.iter().all(|c| c.representative.is_none()));
        }
    }

    #[test]
    fn updates_affect_query_results() {
        let (net, mut trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        let q = TopsQuery::binary(1, 400.0);
        let before = idx.query(&trajs, &q);
        // Flood one far corner with trajectories: the best site must move.
        let mut batch = Vec::new();
        for _ in 0..10 {
            let t = Trajectory::new(vec![NodeId(14), NodeId(15)]);
            let id = trajs.add(t.clone());
            batch.push((id, t));
        }
        idx.add_trajectories(batch.iter().map(|(id, t)| (*id, t)));
        let after = idx.query(&trajs, &q);
        assert!(after.solution.utility > before.solution.utility);
        let best = after.solution.sites[0];
        assert!(best.0 >= 12, "best site {best:?} ignores the new demand");
    }

    #[test]
    fn batch_add_equals_sequential_adds() {
        let (net, mut trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut idx_batch = NetClusIndex::build(&net, &trajs, &sites, config());
        let mut idx_seq = idx_batch.clone();
        let mut batch = Vec::new();
        for s in [1u32, 6, 10] {
            let t = Trajectory::new((s..s + 4).map(NodeId).collect());
            let id = trajs.add(t.clone());
            batch.push((id, t));
        }
        for (id, t) in &batch {
            idx_seq.add_trajectory(*id, t);
        }
        idx_batch.add_trajectories(batch.iter().map(|(id, t)| (*id, t)));
        assert_equivalent(&idx_batch, &idx_seq);
    }

    /// Everything an index answers from, materialized: per instance and
    /// cluster the center, representative and the three lists, plus the
    /// site flags.
    type Materialized = (
        Vec<
            Vec<(
                NodeId,
                Option<NodeId>,
                u64,
                Vec<(NodeId, u64)>,
                Vec<(TrajId, u64)>,
                Vec<(u32, u64)>,
            )>,
        >,
        Vec<bool>,
    );

    fn materialize(idx: &NetClusIndex) -> Materialized {
        let instances = idx
            .instances()
            .iter()
            .map(|inst| {
                inst.clusters
                    .iter()
                    .map(|c| {
                        (
                            c.center,
                            c.representative,
                            c.rep_distance.to_bits(),
                            c.nodes.iter().map(|&(v, d)| (v, d.to_bits())).collect(),
                            c.traj_list.iter().map(|&(t, d)| (t, d.to_bits())).collect(),
                            c.neighbors.iter().map(|&(j, d)| (j, d.to_bits())).collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        (instances, idx.is_site.clone())
    }

    #[test]
    fn updates_on_a_clone_share_untouched_lists_and_leave_the_original_intact() {
        let (net, mut trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let original = NetClusIndex::build(&net, &trajs, &sites, config());
        let before = materialize(&original);

        let mut updated = original.clone();
        let added = Trajectory::new((12..16).map(NodeId).collect());
        let added_id = trajs.add(added.clone());
        let removed = trajs.remove(TrajId(0)).unwrap();
        // One batch: a trajectory added and removed again inside it edits
        // lists the batch has already thawed.
        let transient = Trajectory::new((11..14).map(NodeId).collect());
        let transient_id = trajs.add(transient.clone());
        trajs.remove(transient_id);
        {
            let mut edits = updated.batch();
            edits.add_trajectory(added_id, &added);
            edits.add_trajectory(transient_id, &transient);
            edits.remove_trajectory(TrajId(0), &removed);
            assert!(edits.remove_site(&trajs, NodeId(7)));
            edits.remove_trajectory(transient_id, &transient);
        }
        assert!(updated.remove_site(&trajs, NodeId(1)));
        assert!(updated.add_site(&trajs, NodeId(1)));

        assert_eq!(materialize(&original), before, "the original changed");
        let remaining: Vec<NodeId> = sites.iter().copied().filter(|&v| v != NodeId(7)).collect();
        assert_equivalent(
            &updated,
            &NetClusIndex::build(&net, &trajs, &remaining, config()),
        );
        let mut shared = 0;
        for (a, b) in original.instances().iter().zip(updated.instances()) {
            assert!(Arc::ptr_eq(&a.node_cluster, &b.node_cluster));
            assert!(Arc::ptr_eq(&a.node_center_dist, &b.node_center_dist));
            let mut touched = vec![false; a.cluster_count()];
            for t in [&added, &removed, &transient] {
                for (ci, _) in map_trajectory(t, &a.node_cluster, &a.node_center_dist) {
                    touched[ci as usize] = true;
                }
            }
            assert!(touched.contains(&true));
            shared += touched.iter().filter(|&&t| !t).count();
            for ((ca, cb), touched) in a.clusters.iter().zip(&b.clusters).zip(touched) {
                assert!(Arc::ptr_eq(&ca.nodes, &cb.nodes));
                assert!(Arc::ptr_eq(&ca.neighbors, &cb.neighbors));
                assert_eq!(
                    Arc::ptr_eq(&ca.traj_list, &cb.traj_list),
                    !touched,
                    "cluster at {:?} (touched: {touched})",
                    ca.center
                );
            }
        }
        assert!(shared > 0, "the fixture must leave some list untouched");
    }

    #[test]
    #[should_panic(expected = "beyond network size")]
    fn add_site_outside_network_panics() {
        let (net, trajs) = fixture();
        let sites: Vec<NodeId> = net.nodes().collect();
        let mut idx = NetClusIndex::build(&net, &trajs, &sites, config());
        idx.add_site(&trajs, NodeId(99));
    }
}
