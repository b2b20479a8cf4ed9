//! Mesh topology: node placement, unit-disk adjacency, shortest paths.
//!
//! The DES testbed is a multi-floor wireless mesh; we model placements as
//! points in a plane with a unit-disk radio range. Generators cover the
//! shapes used in the experiments: chains (hop-distance sweeps), grids
//! (the dense office mesh) and random geometric graphs (irregular
//! deployments). Hop counts between participants are the paper's
//! "rudimentary topology measurement" (§IV-B4); full adjacency snapshots
//! implement the anticipated "more advanced topology recording".

use crate::sim::NodeId;
use excovery_rng::Rng;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// A static mesh topology over `n` nodes.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<(f64, f64)>,
    range: f64,
    adjacency: Vec<Vec<NodeId>>,
}

impl Topology {
    /// Builds a topology from explicit positions and a radio range.
    ///
    /// Adjacency is built with a uniform grid of `range`-sized buckets —
    /// each node only checks the 9 surrounding cells — so construction is
    /// `O(n)` for bounded-density deployments instead of `O(n²)`. The
    /// result (including per-node neighbor order, ascending by id) is
    /// identical to the exhaustive pairwise scan, which remains as the
    /// fallback for degenerate ranges.
    pub fn from_positions(positions: Vec<(f64, f64)>, range: f64) -> Self {
        let n = positions.len();
        let mut adjacency = vec![Vec::new(); n];
        if range.is_finite() && range > 0.0 && n > 1 {
            let cell_of = |p: (f64, f64)| -> (i64, i64) {
                ((p.0 / range).floor() as i64, (p.1 / range).floor() as i64)
            };
            let mut buckets: crate::fasthash::FastHashMap<(i64, i64), Vec<u32>> =
                crate::fasthash::FastHashMap::default();
            for (i, &p) in positions.iter().enumerate() {
                buckets.entry(cell_of(p)).or_default().push(i as u32);
            }
            for (i, &p) in positions.iter().enumerate() {
                let (cx, cy) = cell_of(p);
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let Some(cell) = buckets.get(&(cx + dx, cy + dy)) else {
                            continue;
                        };
                        for &j in cell {
                            let j = j as usize;
                            if j != i && dist(p, positions[j]) <= range {
                                adjacency[i].push(NodeId(j as u16));
                            }
                        }
                    }
                }
                // Bucket visit order is hash-dependent; the contract
                // (ascending node id, matching the pairwise scan) is not.
                adjacency[i].sort_unstable();
            }
        } else {
            for i in 0..n {
                for j in (i + 1)..n {
                    if dist(positions[i], positions[j]) <= range {
                        adjacency[i].push(NodeId(j as u16));
                        adjacency[j].push(NodeId(i as u16));
                    }
                }
            }
        }
        Self {
            positions,
            range,
            adjacency,
        }
    }

    /// A chain of `n` nodes spaced exactly one radio range apart: node `i`
    /// reaches only `i±1`. Used for hop-distance sweeps (CS-3).
    pub fn chain(n: usize) -> Self {
        let positions = (0..n).map(|i| (i as f64, 0.0)).collect();
        Self::from_positions(positions, 1.01)
    }

    /// A `w × h` grid with unit spacing and a radio range of 1.01, so each
    /// node reaches its 4-neighbourhood. Approximates the dense office mesh
    /// of the DES testbed.
    pub fn grid(w: usize, h: usize) -> Self {
        let mut positions = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                positions.push((x as f64, y as f64));
            }
        }
        Self::from_positions(positions, 1.01)
    }

    /// A random geometric graph: `n` nodes uniform in a `side × side` square
    /// with the given radio `range`, positions drawn from `rng`.
    pub fn random_geometric(n: usize, side: f64, range: f64, rng: &mut impl Rng) -> Self {
        let positions = (0..n)
            .map(|_| (rng.gen::<f64>() * side, rng.gen::<f64>() * side))
            .collect();
        Self::from_positions(positions, range)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u16).map(NodeId)
    }

    /// Radio range used to build adjacency.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Position of a node.
    pub fn position(&self, node: NodeId) -> (f64, f64) {
        self.positions[node.0 as usize]
    }

    /// Direct radio neighbours of a node.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.0 as usize]
    }

    /// Euclidean distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        dist(self.position(a), self.position(b))
    }

    /// BFS hop distances from `src` to every node; `None` = unreachable.
    pub fn hop_counts_from(&self, src: NodeId) -> Vec<Option<u32>> {
        let n = self.len();
        let mut dist = vec![None; n];
        let mut queue = VecDeque::new();
        dist[src.0 as usize] = Some(0);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.0 as usize].unwrap();
            for &v in self.neighbors(u) {
                if dist[v.0 as usize].is_none() {
                    dist[v.0 as usize] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Hop count between two nodes; `None` if disconnected.
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> Option<u32> {
        self.hop_counts_from(a)[b.0 as usize]
    }

    /// Shortest path from `a` to `b` (inclusive of both); `None` if
    /// disconnected. Ties broken deterministically by lowest node id.
    pub fn shortest_path(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        if a == b {
            return Some(vec![a]);
        }
        let n = self.len();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[a.0 as usize] = true;
        queue.push_back(a);
        while let Some(u) = queue.pop_front() {
            // adjacency lists are built in increasing id order already
            for &v in self.neighbors(u) {
                if !seen[v.0 as usize] {
                    seen[v.0 as usize] = true;
                    parent[v.0 as usize] = Some(u);
                    if v == b {
                        let mut path = vec![b];
                        let mut cur = b;
                        while let Some(p) = parent[cur.0 as usize] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.hop_counts_from(NodeId(0)).iter().all(Option::is_some)
    }

    /// Full hop-count matrix between a set of participants — the topology
    /// measurement ExCovery takes before and after each experiment (§IV-B4).
    pub fn hop_matrix(&self, participants: &[NodeId]) -> Vec<Vec<Option<u32>>> {
        participants
            .iter()
            .map(|&a| {
                let d = self.hop_counts_from(a);
                participants.iter().map(|&b| d[b.0 as usize]).collect()
            })
            .collect()
    }

    /// Adjacency snapshot as edge list (advanced topology recording).
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for i in 0..self.len() {
            for &j in &self.adjacency[i] {
                if (i as u16) < j.0 {
                    out.push((NodeId(i as u16), j));
                }
            }
        }
        out
    }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Lazily precomputed all-pairs routing for a static [`Topology`].
///
/// The simulator used to run a BFS per unicast send and clone neighbor
/// `Vec`s per flood fan-out. A topology never changes during an experiment,
/// so both are cached here: every shortest path and every adjacency list is
/// materialized as a shared `Arc<[NodeId]>` slice. In-flight packets hold an
/// `Arc` clone of their route — forwarding advances an index into the shared
/// slice and never allocates.
///
/// Rows are built *on first use*, one source node at a time, behind a
/// [`OnceLock`]: a flood-only experiment on a 100×100 grid never pays for
/// (or stores) 10⁸ unicast paths, while a unicast sweep amortizes each BFS
/// across every packet from that source. `OnceLock` keeps lookups `&self`,
/// so concurrent shard workers share the table without coordination beyond
/// the first builder of a row winning the publish.
///
/// Paths are bit-identical to [`Topology::shortest_path`]: both derive from
/// a FIFO BFS that scans neighbors in increasing id order, so the parent
/// pointers (and therefore the reconstructed routes) match exactly. The
/// early exit in `shortest_path` only prunes exploration *after* the
/// destination's parent has been fixed, which cannot change the result.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    n: usize,
    /// One lazily-built row per source node: `rows[src][dst]`.
    rows: Vec<OnceLock<RouteRow>>,
    /// Shared adjacency lists, same order as [`Topology::neighbors`].
    neighbors: Vec<Arc<[NodeId]>>,
}

/// The routes from one source: `row[dst]` is the path, `None` if
/// unreachable.
type RouteRow = Box<[Option<Arc<[NodeId]>>]>;

impl RoutingTable {
    /// Builds the table shell; per-source BFS rows are computed on demand.
    pub fn new(topology: &Topology) -> Self {
        let n = topology.len();
        let neighbors = (0..n)
            .map(|i| Arc::from(topology.neighbors(NodeId(i as u16))))
            .collect();
        Self {
            n,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            neighbors,
        }
    }

    /// One full BFS from `src`, reconstructing the path to every node.
    fn build_row(&self, src: NodeId) -> RouteRow {
        let n = self.n;
        let s = src.0 as usize;
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[s] = true;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors[u.0 as usize].iter() {
                if !seen[v.0 as usize] {
                    seen[v.0 as usize] = true;
                    parent[v.0 as usize] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        let mut row: Vec<Option<Arc<[NodeId]>>> = vec![None; n];
        let mut scratch: Vec<NodeId> = Vec::new();
        for d in 0..n {
            if d == s {
                row[d] = Some(Arc::from([src] as [NodeId; 1]));
                continue;
            }
            if !seen[d] {
                continue; // unreachable
            }
            scratch.clear();
            let mut cur = NodeId(d as u16);
            scratch.push(cur);
            while let Some(p) = parent[cur.0 as usize] {
                scratch.push(p);
                cur = p;
            }
            scratch.reverse();
            row[d] = Some(Arc::from(scratch.as_slice()));
        }
        row.into_boxed_slice()
    }

    /// Cached shortest path from `a` to `b` (inclusive); `None` if
    /// disconnected. Identical to [`Topology::shortest_path`].
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<&Arc<[NodeId]>> {
        let row = self.rows[a.0 as usize].get_or_init(|| self.build_row(a));
        row[b.0 as usize].as_ref()
    }

    /// Shared adjacency list of `node`, same order as
    /// [`Topology::neighbors`].
    pub fn neighbors(&self, node: NodeId) -> &Arc<[NodeId]> {
        &self.neighbors[node.0 as usize]
    }

    /// Hop count along the cached path; `None` if disconnected.
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> Option<u32> {
        self.path(a, b).map(|p| p.len() as u32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_hop_counts_are_index_distance() {
        let t = Topology::chain(6);
        assert_eq!(t.hop_count(NodeId(0), NodeId(5)), Some(5));
        assert_eq!(t.hop_count(NodeId(2), NodeId(4)), Some(2));
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.neighbors(NodeId(3)), &[NodeId(2), NodeId(4)]);
    }

    #[test]
    fn grid_adjacency_is_4_neighbourhood() {
        let t = Topology::grid(3, 3);
        // Center node (1,1) = id 4 has 4 neighbours.
        assert_eq!(t.neighbors(NodeId(4)).len(), 4);
        // Corner has 2.
        assert_eq!(t.neighbors(NodeId(0)).len(), 2);
        assert_eq!(t.hop_count(NodeId(0), NodeId(8)), Some(4));
        assert!(t.is_connected());
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let t = Topology::grid(4, 4);
        let p = t.shortest_path(NodeId(0), NodeId(15)).unwrap();
        assert_eq!(p.first(), Some(&NodeId(0)));
        assert_eq!(p.last(), Some(&NodeId(15)));
        assert_eq!(
            p.len() as u32 - 1,
            t.hop_count(NodeId(0), NodeId(15)).unwrap()
        );
        // Consecutive nodes are adjacent.
        for w in p.windows(2) {
            assert!(t.neighbors(w[0]).contains(&w[1]));
        }
    }

    #[test]
    fn self_path_is_singleton() {
        let t = Topology::chain(3);
        assert_eq!(t.shortest_path(NodeId(1), NodeId(1)), Some(vec![NodeId(1)]));
        assert_eq!(t.hop_count(NodeId(1), NodeId(1)), Some(0));
    }

    #[test]
    fn disconnected_components_detected() {
        let t = Topology::from_positions(vec![(0.0, 0.0), (0.5, 0.0), (10.0, 0.0)], 1.0);
        assert!(!t.is_connected());
        assert_eq!(t.hop_count(NodeId(0), NodeId(2)), None);
        assert_eq!(t.shortest_path(NodeId(0), NodeId(2)), None);
        assert_eq!(t.hop_count(NodeId(0), NodeId(1)), Some(1));
    }

    #[test]
    fn hop_matrix_is_symmetric_with_zero_diagonal() {
        let t = Topology::grid(3, 2);
        let participants: Vec<NodeId> = t.nodes().collect();
        let m = t.hop_matrix(&participants);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], Some(0));
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(*cell, m[j][i]);
            }
        }
    }

    #[test]
    fn random_geometric_is_reproducible() {
        let mut r1 = excovery_rng::StdRng::seed_from_u64(9);
        let mut r2 = excovery_rng::StdRng::seed_from_u64(9);
        let t1 = Topology::random_geometric(20, 5.0, 1.5, &mut r1);
        let t2 = Topology::random_geometric(20, 5.0, 1.5, &mut r2);
        assert_eq!(t1.edges(), t2.edges());
        for n in t1.nodes() {
            assert_eq!(t1.position(n), t2.position(n));
        }
    }

    #[test]
    fn edges_unique_and_ordered() {
        let t = Topology::grid(3, 3);
        let edges = t.edges();
        // 2*w*h - w - h edges in a grid: 2*9-3-3 = 12.
        assert_eq!(edges.len(), 12);
        for (a, b) in &edges {
            assert!(a.0 < b.0);
        }
    }

    #[test]
    fn routing_table_matches_per_packet_bfs() {
        let mut rng = excovery_rng::StdRng::seed_from_u64(7);
        for topo in [
            Topology::chain(6),
            Topology::grid(5, 5),
            Topology::from_positions(vec![(0.0, 0.0), (0.5, 0.0), (10.0, 0.0)], 1.0),
            Topology::random_geometric(24, 5.0, 1.7, &mut rng),
        ] {
            let table = RoutingTable::new(&topo);
            for a in topo.nodes() {
                for b in topo.nodes() {
                    let bfs = topo.shortest_path(a, b);
                    let cached = table.path(a, b).map(|p| p.to_vec());
                    assert_eq!(bfs, cached, "path {a:?}->{b:?} diverged");
                    assert_eq!(table.hop_count(a, b), topo.hop_count(a, b));
                }
                assert_eq!(&table.neighbors(a)[..], topo.neighbors(a));
            }
        }
    }

    #[test]
    fn empty_topology() {
        let t = Topology::from_positions(vec![], 1.0);
        assert!(t.is_empty());
        assert!(t.is_connected());
        assert!(t.edges().is_empty());
    }
}
