//! Cluster index instances (paper Sec. 4.2–4.3).
//!
//! A [`ClusterInstance`] is one resolution of the NetClus index: the
//! Greedy-GDSP clusters of radius `R_p`, enriched with everything the online
//! phase needs —
//!
//! 1. cluster center `c_i`,
//! 2. cluster representative `r_i` (a candidate site; Sec. 4.2),
//! 3. the trajectory list `T L(g_i)` with round-trip distances to `c_i`,
//! 4. the neighbor list `CL(g_i)`: clusters whose centers are within
//!    round-trip `4R_p(1 + γ)` (the exact bound Sec. 5.1 requires),
//! 5. member nodes with their distances to `c_i`.
//!
//! Trajectories are stored in compressed form: consecutive nodes falling in
//! the same cluster collapse into `CC(T_j)` (the cluster sequence, with one
//! entry per distinct visited cluster holding the minimal distance), the
//! compression that gives NetClus its small footprint. `CC(T_j)` is a pure
//! function of the trajectory and the instance's fixed node maps
//! (`map_trajectory`), so the update path (Sec. 6) recomputes it instead
//! of storing an inverse map.
//!
//! Every list is a frozen `Arc<[..]>` (one indirection, like a `Vec`, on
//! the query path): member and neighbor lists never change after the
//! build, and an update batch replaces only the trajectory lists it edits
//! (see [`crate::update`]). Cloning an instance — what a snapshot writer
//! does before applying a batch — therefore copies cluster headers, not
//! lists, and the next epoch shares every list the batch did not touch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus_roadnet::{NodeId, RoadNetwork, RoundTripEngine};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};

use crate::gdsp::GdspResult;

/// How to pick the cluster representative among the cluster's candidate
/// sites (paper Sec. 4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RepresentativeStrategy {
    /// The candidate site closest (round-trip) to the cluster center — the
    /// option the paper adopts ("the second alternative is marginally
    /// better").
    #[default]
    ClosestToCenter,
    /// The candidate site traversed by the most trajectories (the paper's
    /// first alternative; kept for the ablation benchmark).
    MostFrequented,
}

/// One cluster of an index instance.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Cluster center `c_i` (a GDSP-selected vertex).
    pub center: NodeId,
    /// Cluster representative `r_i`: the designated candidate site, if the
    /// cluster contains any site.
    pub representative: Option<NodeId>,
    /// `dr(c_i, r_i)`; 0 when there is no representative.
    pub rep_distance: f64,
    /// Member vertices with `dr(v, c_i)`, ascending (center first).
    /// Fixed after the build, so shared by every clone.
    pub nodes: Arc<[(NodeId, f64)]>,
    /// `T L(g_i)`: trajectories passing through the cluster with
    /// `dr(T_j, c_i)` (minimum over their member nodes). Shared by clones;
    /// an update batch that edits it installs a new list.
    pub traj_list: Arc<[(TrajId, f64)]>,
    /// `CL(g_i)`: neighbor clusters `(index, dr(c_i, c_j))`, ascending by
    /// distance; includes the cluster itself at distance 0. Fixed after
    /// the build, so shared by every clone.
    pub neighbors: Arc<[(u32, f64)]>,
}

impl Cluster {
    /// Round-trip distance from member `v` to the center, if `v` belongs to
    /// this cluster.
    pub fn member_distance(&self, v: NodeId) -> Option<f64> {
        self.nodes.iter().find(|&&(u, _)| u == v).map(|&(_, d)| d)
    }
}

/// Build statistics of one instance (paper Table 11 row).
#[derive(Clone, Debug, Default)]
pub struct InstanceStats {
    /// Mean dominance-ball size over all vertices.
    pub mean_ball_size: f64,
    /// Mean `|T L(g)|`.
    pub mean_traj_list: f64,
    /// Mean `|CL(g)|` (excluding the self entry, to match the paper).
    pub mean_neighbors: f64,
    /// Wall-clock build time (clustering + enrichment).
    pub build_time: Duration,
}

/// One resolution of the NetClus index.
#[derive(Clone, Debug)]
pub struct ClusterInstance {
    /// Cluster radius `R_p`.
    pub radius: f64,
    /// Neighbor threshold `4·R_p·(1 + γ)` used to build `CL`.
    pub neighbor_limit: f64,
    /// The clusters.
    pub clusters: Vec<Cluster>,
    /// Node → cluster index. Fixed after the build, so shared by every
    /// clone.
    pub node_cluster: Arc<[u32]>,
    /// Node → round-trip distance to its cluster center (parallel to
    /// `node_cluster`; maps added and removed trajectories to `CC(T)`,
    /// Sec. 6). Fixed after the build, so shared by every clone.
    pub node_center_dist: Arc<[f64]>,
    /// Build statistics.
    pub stats: InstanceStats,
}

impl ClusterInstance {
    /// Builds an instance from a GDSP clustering.
    ///
    /// `is_site[v]` flags candidate sites; `gamma` fixes the neighbor
    /// threshold; `strategy` picks representatives.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        net: &RoadNetwork,
        trajs: &TrajectorySet,
        is_site: &[bool],
        gdsp: &GdspResult,
        radius: f64,
        gamma: f64,
        strategy: RepresentativeStrategy,
        threads: usize,
    ) -> ClusterInstance {
        assert!(gamma > 0.0, "γ must be positive, got {gamma}");
        let start = Instant::now();
        let n = net.node_count();
        let neighbor_limit = 4.0 * radius * (1.0 + gamma);

        // Skeleton clusters with members and representatives.
        let mut clusters: Vec<Cluster> = gdsp
            .clusters
            .iter()
            .map(|rc| {
                let mut c = Cluster {
                    center: rc.center,
                    representative: None,
                    rep_distance: 0.0,
                    nodes: rc.members.as_slice().into(),
                    traj_list: Arc::new([]),
                    neighbors: Arc::new([]),
                };
                choose_representative(&mut c, trajs, is_site, strategy);
                c
            })
            .collect();

        // Node → cluster map.
        let mut node_cluster = vec![u32::MAX; n];
        for (ci, c) in clusters.iter().enumerate() {
            for &(v, _) in c.nodes.iter() {
                node_cluster[v.index()] = ci as u32;
            }
        }
        debug_assert!(node_cluster.iter().all(|&c| c != u32::MAX));

        // Per-node distance to its center (for trajectory mapping).
        let mut node_center_dist = vec![0.0f64; n];
        for c in &clusters {
            for &(v, d) in c.nodes.iter() {
                node_center_dist[v.index()] = d;
            }
        }

        // Trajectory lists, in ascending trajectory id.
        let mut traj_lists: Vec<Vec<(TrajId, f64)>> = vec![Vec::new(); clusters.len()];
        for (tj, traj) in trajs.iter() {
            for (ci, d) in map_trajectory(traj, &node_cluster, &node_center_dist) {
                traj_lists[ci as usize].push((tj, d));
            }
        }
        for (c, list) in clusters.iter_mut().zip(traj_lists) {
            c.traj_list = list.into();
        }

        // Neighbor lists: centers within round-trip `neighbor_limit`.
        let centers: Vec<NodeId> = clusters.iter().map(|c| c.center).collect();
        let mut center_of: Vec<u32> = vec![u32::MAX; n];
        for (ci, &c) in centers.iter().enumerate() {
            center_of[c.index()] = ci as u32;
        }
        let neighbor_lists = compute_neighbors(net, &centers, &center_of, neighbor_limit, threads);
        for (c, nb) in clusters.iter_mut().zip(neighbor_lists) {
            c.neighbors = nb.into();
        }

        let eta = clusters.len().max(1);
        let mean_traj_list =
            clusters.iter().map(|c| c.traj_list.len()).sum::<usize>() as f64 / eta as f64;
        let mean_neighbors = clusters
            .iter()
            .map(|c| c.neighbors.len().saturating_sub(1))
            .sum::<usize>() as f64
            / eta as f64;

        ClusterInstance {
            radius,
            neighbor_limit,
            clusters,
            node_cluster: node_cluster.into(),
            node_center_dist: node_center_dist.into(),
            stats: InstanceStats {
                mean_ball_size: gdsp.mean_ball_size,
                mean_traj_list,
                mean_neighbors,
                build_time: start.elapsed() + gdsp.elapsed,
            },
        }
    }

    /// Number of clusters `η_p`.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Approximate heap footprint in bytes of everything this instance
    /// reaches (node maps, member, trajectory and neighbor lists). Lists
    /// shared with other clones are counted in full: this is the size of
    /// one snapshot on its own, not its share of the heap.
    pub fn heap_size_bytes(&self) -> usize {
        let pair8 = std::mem::size_of::<(NodeId, f64)>();
        // Strong and weak counts in front of every `Arc` allocation.
        let arc = 2 * std::mem::size_of::<usize>();
        let mut total = self.clusters.capacity() * std::mem::size_of::<Cluster>()
            + 2 * arc
            + self.node_cluster.len() * 4
            + self.node_center_dist.len() * 8;
        for c in &self.clusters {
            total += 3 * arc;
            total += c.nodes.len() * pair8;
            total += c.traj_list.len() * pair8;
            total += c.neighbors.len() * pair8;
        }
        total
    }
}

/// Maps a trajectory to its compressed cluster sequence, keeping the
/// minimal center distance per distinct cluster.
pub(crate) fn map_trajectory(
    traj: &Trajectory,
    node_cluster: &[u32],
    node_center_dist: &[f64],
) -> Vec<(u32, f64)> {
    let mut out: Vec<(u32, f64)> = Vec::new();
    for &v in traj.nodes() {
        let ci = node_cluster[v.index()];
        let d = node_center_dist[v.index()];
        match out.iter_mut().find(|(c, _)| *c == ci) {
            Some((_, best)) => {
                if d < *best {
                    *best = d;
                }
            }
            None => out.push((ci, d)),
        }
    }
    out
}

/// Picks the cluster representative per the chosen strategy.
pub(crate) fn choose_representative(
    cluster: &mut Cluster,
    trajs: &TrajectorySet,
    is_site: &[bool],
    strategy: RepresentativeStrategy,
) {
    cluster.representative = None;
    cluster.rep_distance = 0.0;
    match strategy {
        RepresentativeStrategy::ClosestToCenter => {
            // Members are sorted ascending by distance: first site wins.
            for &(v, d) in cluster.nodes.iter() {
                if is_site[v.index()] {
                    cluster.representative = Some(v);
                    cluster.rep_distance = d;
                    break;
                }
            }
        }
        RepresentativeStrategy::MostFrequented => {
            let mut best: Option<(usize, f64, NodeId)> = None;
            for &(v, d) in cluster.nodes.iter() {
                if !is_site[v.index()] {
                    continue;
                }
                let count = trajs.trajectories_through(v).len();
                let better = match best {
                    None => true,
                    // More trajectories; ties → closer to center.
                    Some((bc, bd, _)) => count > bc || (count == bc && d < bd),
                };
                if better {
                    best = Some((count, d, v));
                }
            }
            if let Some((_, d, v)) = best {
                cluster.representative = Some(v);
                cluster.rep_distance = d;
            }
        }
    }
}

/// Round-trip balls from every center, filtered to other centers.
fn compute_neighbors(
    net: &RoadNetwork,
    centers: &[NodeId],
    center_of: &[u32],
    limit: f64,
    threads: usize,
) -> Vec<Vec<(u32, f64)>> {
    let eta = centers.len();
    let mut lists: Vec<Vec<(u32, f64)>> = vec![Vec::new(); eta];
    let workers = threads.max(1).min(eta.max(1));
    let compute = |center: NodeId, rt: &mut RoundTripEngine| -> Vec<(u32, f64)> {
        rt.ball(net, center, limit)
            .into_iter()
            .filter_map(|(v, d)| {
                let ci = center_of[v.index()];
                (ci != u32::MAX).then_some((ci, d))
            })
            .collect()
    };
    if workers <= 1 {
        let mut rt = RoundTripEngine::for_network(net);
        for (i, &c) in centers.iter().enumerate() {
            lists[i] = compute(c, &mut rt);
        }
    } else {
        let chunk = eta.div_ceil(workers);
        let center_chunks: Vec<&[NodeId]> = centers.chunks(chunk).collect();
        let mut list_chunks: Vec<&mut [Vec<(u32, f64)>]> = lists.chunks_mut(chunk).collect();
        std::thread::scope(|scope| {
            for (cs, ls) in center_chunks.iter().zip(list_chunks.iter_mut()) {
                scope.spawn(move || {
                    let mut rt = RoundTripEngine::for_network(net);
                    for (slot, &c) in ls.iter_mut().zip(cs.iter()) {
                        *slot = compute(c, &mut rt);
                    }
                });
            }
        });
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gdsp::{greedy_gdsp, GdspConfig, GdspMode};
    use netclus_roadnet::{Point, RoadNetworkBuilder};

    /// Two-way line with 100 m edges and trajectories along it.
    fn fixture() -> (RoadNetwork, TrajectorySet) {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..12 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..11u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        for r in [
            &[0u32, 1, 2, 3][..],
            &[4, 5, 6],
            &[8, 9, 10, 11],
            &[2, 3, 4, 5],
        ] {
            trajs.add(Trajectory::new(r.iter().map(|&i| NodeId(i)).collect()));
        }
        (net, trajs)
    }

    fn build_instance(
        net: &RoadNetwork,
        trajs: &TrajectorySet,
        radius: f64,
        strategy: RepresentativeStrategy,
    ) -> ClusterInstance {
        let is_site = vec![true; net.node_count()];
        let gdsp = greedy_gdsp(
            net,
            &GdspConfig {
                radius,
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
        ClusterInstance::build(net, trajs, &is_site, &gdsp, radius, 0.75, strategy, 1)
    }

    #[test]
    fn instance_invariants() {
        let (net, trajs) = fixture();
        let inst = build_instance(&net, &trajs, 200.0, RepresentativeStrategy::default());
        // Every node mapped; every cluster has a representative (all nodes
        // are sites).
        assert!(inst
            .node_cluster
            .iter()
            .all(|&c| (c as usize) < inst.cluster_count()));
        for c in &inst.clusters {
            assert!(c.representative.is_some());
            // With every node a site, the closest site is the center itself.
            assert_eq!(c.representative, Some(c.center));
            assert_eq!(c.rep_distance, 0.0);
            // Self must be the first neighbor at distance 0.
            assert_eq!(c.neighbors[0], (inst.node_cluster[c.center.index()], 0.0));
            // Neighbor distances are within the limit and sorted.
            assert!(c.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
            assert!(c
                .neighbors
                .iter()
                .all(|&(_, d)| d <= inst.neighbor_limit + 1e-9));
        }
    }

    #[test]
    fn trajectory_lists_partition_trajectories() {
        let (net, trajs) = fixture();
        let inst = build_instance(&net, &trajs, 200.0, RepresentativeStrategy::default());
        // Each trajectory appears in TL(g) for exactly the clusters in its
        // CC list, with matching distances.
        let mut total_cc = 0;
        for (tj, traj) in trajs.iter() {
            let cc = map_trajectory(traj, &inst.node_cluster, &inst.node_center_dist);
            total_cc += cc.len();
            for (ci, d) in cc {
                assert!(
                    inst.clusters[ci as usize]
                        .traj_list
                        .iter()
                        .any(|&(t, td)| t == tj && td == d),
                    "TL missing {tj:?} in cluster {ci}"
                );
            }
        }
        let total_tl: usize = inst.clusters.iter().map(|c| c.traj_list.len()).sum();
        assert_eq!(total_tl, total_cc);
    }

    #[test]
    fn traj_distance_is_min_over_member_nodes() {
        let (net, trajs) = fixture();
        let inst = build_instance(&net, &trajs, 200.0, RepresentativeStrategy::default());
        for (tj, traj) in trajs.iter() {
            for (ci, d) in map_trajectory(traj, &inst.node_cluster, &inst.node_center_dist) {
                let c = &inst.clusters[ci as usize];
                let want = traj
                    .nodes()
                    .iter()
                    .filter_map(|&v| c.member_distance(v))
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(d, want, "cluster {ci} traj {tj:?}");
            }
        }
    }

    #[test]
    fn sparse_sites_leave_clusters_without_reps() {
        let (net, trajs) = fixture();
        let mut is_site = vec![false; net.node_count()];
        is_site[0] = true; // single candidate site at node 0
        let gdsp = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 100.0,
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
        let inst = ClusterInstance::build(
            &net,
            &trajs,
            &is_site,
            &gdsp,
            100.0,
            0.75,
            RepresentativeStrategy::ClosestToCenter,
            1,
        );
        let with_rep = inst
            .clusters
            .iter()
            .filter(|c| c.representative.is_some())
            .count();
        assert_eq!(with_rep, 1);
        let rep_cluster = inst
            .clusters
            .iter()
            .find(|c| c.representative.is_some())
            .unwrap();
        assert_eq!(rep_cluster.representative, Some(NodeId(0)));
    }

    #[test]
    fn most_frequented_picks_busy_site() {
        let (net, trajs) = fixture();
        // Nodes 2..5 carry two trajectories each in the fixture.
        let inst = build_instance(&net, &trajs, 600.0, RepresentativeStrategy::MostFrequented);
        // Find the cluster containing node 3 (on two trajectories).
        let ci = inst.node_cluster[3] as usize;
        let rep = inst.clusters[ci].representative.unwrap();
        let rep_count = trajs.trajectories_through(rep).len();
        for &(v, _) in inst.clusters[ci].nodes.iter() {
            assert!(
                trajs.trajectories_through(v).len() <= rep_count,
                "rep {rep:?} not the most frequented (node {v:?} busier)"
            );
        }
    }

    #[test]
    fn parallel_neighbors_match_sequential() {
        let (net, trajs) = fixture();
        let is_site = vec![true; net.node_count()];
        let gdsp = greedy_gdsp(
            &net,
            &GdspConfig {
                radius: 150.0,
                mode: GdspMode::Exact,
                threads: 1,
            },
        );
        let seq = ClusterInstance::build(
            &net,
            &trajs,
            &is_site,
            &gdsp,
            150.0,
            0.75,
            RepresentativeStrategy::ClosestToCenter,
            1,
        );
        let par = ClusterInstance::build(
            &net,
            &trajs,
            &is_site,
            &gdsp,
            150.0,
            0.75,
            RepresentativeStrategy::ClosestToCenter,
            4,
        );
        for (a, b) in seq.clusters.iter().zip(par.clusters.iter()) {
            assert_eq!(a.neighbors, b.neighbors);
        }
    }

    #[test]
    fn compressed_mapping_collapses_consecutive() {
        let node_cluster = vec![0u32, 0, 1, 1, 0];
        let dist = vec![5.0, 1.0, 2.0, 0.0, 3.0];
        let traj = Trajectory::new((0..5).map(NodeId).collect());
        let cc = map_trajectory(&traj, &node_cluster, &dist);
        // Clusters 0 and 1, min distances 1.0 and 0.0; cluster 0 revisited
        // keeps a single entry.
        assert_eq!(cc, vec![(0, 1.0), (1, 0.0)]);
    }

    #[test]
    fn heap_size_positive_and_grows_with_data() {
        let (net, trajs) = fixture();
        let small = build_instance(&net, &trajs, 600.0, RepresentativeStrategy::default());
        let large = build_instance(&net, &trajs, 100.0, RepresentativeStrategy::default());
        assert!(small.heap_size_bytes() > 0);
        // More clusters → more per-cluster overhead.
        assert!(large.heap_size_bytes() >= small.heap_size_bytes());
    }
}
