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

    /// Position of a node.
    pub(crate) fn position(&self, node: NodeId) -> (f64, f64) {
        self.positions[node.0 as usize]
    }

    /// Direct radio neighbours of a node.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.0 as usize]
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
/// A topology never changes during an experiment, so routes and adjacency
/// are computed once here. Each source's routes are kept as its BFS parent
/// tree: one `u16` per node, n × 2 bytes per source that is used (32 MiB
/// for every source of a 4096-node grid). A path is rebuilt by walking the
/// parents back from the destination — one `Arc<[NodeId]>` allocation per
/// unicast send. In-flight packets hold that `Arc`; forwarding advances an
/// index into it and never allocates. Adjacency lists are shared
/// `Arc<[NodeId]>` slices, so a flood fan-out copies nothing.
///
/// Rows are built *on first use*, one source node at a time, behind a
/// [`OnceLock`]: a flood-only experiment on a 100×100 grid never runs (or
/// stores) a routing BFS, while a unicast sweep amortizes each BFS across
/// every packet from that source. `OnceLock` keeps lookups `&self`, so
/// concurrent shard workers share the table without coordination beyond
/// the first builder of a row winning the publish.
///
/// Paths are bit-identical to [`Topology::shortest_path`]: both derive from
/// a FIFO BFS that scans neighbors in increasing id order, so the parent
/// pointers (and therefore the reconstructed routes) match exactly. The
/// early exit in `shortest_path` only prunes exploration *after* the
/// destination's parent has been fixed, which cannot change the result.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// One lazily-built parent row per source node: `rows[src][dst]`.
    rows: Vec<OnceLock<ParentRow>>,
    /// Shared adjacency lists, same order as [`Topology::neighbors`].
    neighbors: Vec<Arc<[NodeId]>>,
}

/// The BFS tree of one source: `row[dst]` is the node before `dst` on the
/// route from the source, or [`NO_PARENT`] for the source itself and for
/// unreachable nodes.
type ParentRow = Box<[u16]>;

/// Parent sentinel. [`RoutingTable::new`] refuses topologies of more than
/// `u16::MAX` nodes, so ids run up to `u16::MAX - 1` and no real node
/// carries this one.
const NO_PARENT: u16 = u16::MAX;

impl RoutingTable {
    /// Builds the table shell; per-source BFS rows are computed on demand.
    ///
    /// # Panics
    /// If the topology has more than `u16::MAX` nodes: the last id would
    /// collide with the parent sentinel.
    pub fn new(topology: &Topology) -> Self {
        let n = topology.len();
        assert!(
            n <= u16::MAX as usize,
            "routing supports at most {} nodes, topology has {n}",
            u16::MAX
        );
        let neighbors = (0..n)
            .map(|i| Arc::from(topology.neighbors(NodeId(i as u16))))
            .collect();
        Self {
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            neighbors,
        }
    }

    /// One full BFS from `src`, recording every reached node's parent.
    fn build_row(&self, src: NodeId) -> ParentRow {
        let s = src.0 as usize;
        let mut parent = vec![NO_PARENT; self.neighbors.len()];
        // The source is its own parent while the BFS runs, which marks it
        // seen; it gets the sentinel once the tree is complete.
        parent[s] = src.0;
        let mut queue = Vec::with_capacity(parent.len());
        queue.push(src);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in self.neighbors[u.0 as usize].iter() {
                if parent[v.0 as usize] == NO_PARENT {
                    parent[v.0 as usize] = u.0;
                    queue.push(v);
                }
            }
        }
        parent[s] = NO_PARENT;
        parent.into_boxed_slice()
    }

    fn row(&self, src: NodeId) -> &[u16] {
        self.rows[src.0 as usize].get_or_init(|| self.build_row(src))
    }

    /// Shortest path from `a` to `b` (inclusive), rebuilt from `a`'s cached
    /// BFS tree; `None` if disconnected. Identical to
    /// [`Topology::shortest_path`].
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<Arc<[NodeId]>> {
        let hops = self.hop_count(a, b)? as usize;
        let row = self.row(a);
        // `repeat_n` has an exact length, so the `Arc` is allocated once
        // and then filled in place from the destination back.
        let mut path: Arc<[NodeId]> = std::iter::repeat_n(b, hops + 1).collect();
        let slots = Arc::get_mut(&mut path).expect("a fresh Arc is unique");
        let mut cur = b.0;
        for slot in slots[..hops].iter_mut().rev() {
            cur = row[cur as usize];
            *slot = NodeId(cur);
        }
        Some(path)
    }

    /// Shared adjacency list of `node`, same order as
    /// [`Topology::neighbors`].
    pub fn neighbors(&self, node: NodeId) -> &Arc<[NodeId]> {
        &self.neighbors[node.0 as usize]
    }

    /// Hop count along the cached BFS tree (parent steps from `b` back to
    /// `a`); `None` if disconnected.
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        let row = self.row(a);
        let mut hops = 0;
        let mut cur = b.0;
        while cur != a.0 {
            cur = row[cur as usize];
            if cur == NO_PARENT {
                return None;
            }
            hops += 1;
        }
        Some(hops)
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
    fn routing_table_reaches_the_largest_node_id() {
        // 65535 nodes: the last id is `u16::MAX - 1`, one below the sentinel.
        let topo = Topology::chain(u16::MAX as usize);
        let table = RoutingTable::new(&topo);
        let last = NodeId(u16::MAX - 1);
        assert_eq!(
            table.hop_count(NodeId(0), last),
            Some(u32::from(u16::MAX) - 1)
        );
        assert_eq!(
            table.hop_count(last, NodeId(0)),
            Some(u32::from(u16::MAX) - 1)
        );
        let path = table.path(last, NodeId(0)).unwrap();
        assert_eq!(path.len(), u16::MAX as usize);
        assert_eq!((path[0], path[path.len() - 1]), (last, NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "routing supports at most 65535 nodes, topology has 65536")]
    fn routing_table_rejects_a_node_id_equal_to_the_sentinel() {
        RoutingTable::new(&Topology::grid(256, 256));
    }

    #[test]
    fn empty_topology() {
        let t = Topology::from_positions(vec![], 1.0);
        assert!(t.is_empty());
        assert!(t.is_connected());
        assert!(t.edges().is_empty());
    }
}
