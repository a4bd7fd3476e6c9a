//! Address clustering: the core contribution of DATE 2003 1B.1
//! (*"Improving the Efficiency of Memory Partitioning by Address
//! Clustering"*, A. Macii, E. Macii, M. Poncino).
//!
//! Memory partitioning exploits *spatial* locality of the address profile:
//! it can only isolate hot traffic into a small bank when the hot blocks are
//! **contiguous**. Real applications scatter their hot blocks (a hot loop
//! table here, a hot stack page there), so the partitioner is forced to
//! either build large banks around the scatter or burn banks on isolated
//! blocks. Address clustering fixes the profile before partitioning: it
//! computes a **bijective block remapping** that packs hot, temporally
//! correlated blocks next to each other, at the cost of a small relocation
//! table in the address path.
//!
//! The pipeline ([`cluster_blocks`]):
//!
//! 1. per-block heat from the [`BlockProfile`];
//! 2. optional co-access **affinity graph** from the trace
//!    ([`AffinityGraph`]): blocks touched within a sliding window attract;
//! 3. greedy agglomerative merging of the strongest affinity edges
//!    (bounded cluster size);
//! 4. clusters ordered by aggregate heat; blocks *within* a cluster laid
//!    out as a greedy affinity chain (hottest first, then strongest
//!    co-access to the previous block), falling back to heat order when no
//!    trace is available;
//! 5. the resulting [`AddressMap`] is applied to the profile and handed to
//!    `lpmem_partition::optimal_partition`.
//!
//! # Example
//!
//! ```
//! use lpmem_cluster::{cluster_blocks, ClusterConfig};
//! use lpmem_trace::BlockProfile;
//!
//! // Hot blocks 0 and 5 are maximally scattered.
//! let profile = BlockProfile::from_counts(0, 1024, vec![900, 1, 1, 1, 1, 950])?;
//! let map = cluster_blocks(&profile, None, &ClusterConfig::default());
//! let remapped = map.apply(&profile)?;
//! // After clustering the two hot blocks are adjacent at the front.
//! assert_eq!(&remapped.counts()[0..2], &[950, 900]);
//! # Ok::<(), lpmem_trace::TraceError>(())
//! ```

#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};

use lpmem_energy::{Energy, Technology};
use lpmem_trace::{BlockProfile, Trace, TraceError};

/// Clustering objective (ablation **A1** in `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Sort blocks by access frequency only.
    FrequencyOnly,
    /// Merge temporally correlated blocks first, then order by frequency
    /// (the full 1B.1 scheme).
    #[default]
    FrequencyAffinity,
}

/// Parameters of [`cluster_blocks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Sliding co-access window (in events) used to build the affinity
    /// graph.
    pub window: usize,
    /// Maximum blocks per cluster (bounds the agglomeration).
    pub max_cluster_blocks: usize,
    /// The clustering objective.
    pub objective: Objective,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            window: 16,
            max_cluster_blocks: 8,
            objective: Objective::default(),
        }
    }
}

/// A bijective remapping of profile blocks: the output of clustering and
/// the model of the relocation table inserted in the address path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMap {
    /// `forward[old_block] = new_block`.
    forward: Vec<usize>,
    /// `inverse[new_block] = old_block`.
    inverse: Vec<usize>,
    base: u64,
    block_size: u64,
}

impl AddressMap {
    /// Builds a map from a forward permutation (`forward[old] = new`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] when `forward` is not a
    /// permutation or `block_size` is not a power of two.
    pub fn new(forward: Vec<usize>, base: u64, block_size: u64) -> Result<Self, TraceError> {
        if block_size == 0 || !block_size.is_power_of_two() {
            return Err(TraceError::InvalidBlockSize(block_size));
        }
        let n = forward.len();
        let mut inverse = vec![usize::MAX; n];
        for (old, &new) in forward.iter().enumerate() {
            if new >= n || inverse[new] != usize::MAX {
                return Err(TraceError::InvalidParameter(
                    "forward map is not a permutation",
                ));
            }
            inverse[new] = old;
        }
        Ok(AddressMap {
            forward,
            inverse,
            base,
            block_size,
        })
    }

    /// The identity map over `n` blocks.
    pub fn identity(n: usize, base: u64, block_size: u64) -> Self {
        AddressMap {
            forward: (0..n).collect(),
            inverse: (0..n).collect(),
            base,
            block_size,
        }
    }

    /// Number of mapped blocks.
    pub fn num_blocks(&self) -> usize {
        self.forward.len()
    }

    /// `forward[old] = new` view.
    pub fn forward(&self) -> &[usize] {
        &self.forward
    }

    /// `inverse[new] = old` view.
    pub fn inverse(&self) -> &[usize] {
        &self.inverse
    }

    /// Remaps one address; addresses outside the mapped range pass through
    /// unchanged (the relocation table only covers the profiled region).
    pub fn remap_addr(&self, addr: u64) -> u64 {
        let shift = self.block_size.trailing_zeros();
        if addr < self.base {
            return addr;
        }
        let block = ((addr - self.base) >> shift) as usize;
        if block >= self.forward.len() {
            return addr;
        }
        let offset = addr & (self.block_size - 1);
        self.base + ((self.forward[block] as u64) << shift) + offset
    }

    /// Applies the map to a profile (`new[new_idx] = old[inverse[new_idx]]`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] when the profile's block
    /// count differs from the map's.
    pub fn apply(&self, profile: &BlockProfile) -> Result<BlockProfile, TraceError> {
        profile.permuted(&self.inverse)
    }

    /// `true` when the map moves no block.
    pub fn is_identity(&self) -> bool {
        self.forward.iter().enumerate().all(|(i, &f)| i == f)
    }

    /// Size of the hardware relocation table in bits: one entry per block,
    /// `ceil(log2(n))` bits each.
    pub fn table_bits(&self) -> u64 {
        let n = self.num_blocks() as u64;
        if n <= 1 {
            return 0;
        }
        let entry_bits = 64 - (n - 1).leading_zeros() as u64;
        n * entry_bits
    }

    /// Silicon area of the relocation table in mm²: its bits at SRAM cell
    /// density, with a 50% control/routing overhead.
    pub fn table_area_mm2(&self, tech: &Technology) -> f64 {
        if self.is_identity() {
            0.0
        } else {
            self.table_bits() as f64 * tech.sram_cell_um2 * 1.5 * 1e-6
        }
    }

    /// Energy overhead of performing `accesses` relocation-table lookups.
    ///
    /// An identity map needs no table, so its overhead is zero.
    pub fn lookup_energy(&self, accesses: u64, tech: &Technology) -> Energy {
        if self.is_identity() {
            Energy::ZERO
        } else {
            Energy::from_pj(tech.relocation_lookup_pj * accesses as f64)
        }
    }
}

/// Co-access affinity graph over profile blocks.
///
/// Edge weight `w(a, b)` counts how often blocks `a` and `b` were accessed
/// within [`ClusterConfig::window`] events of each other.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AffinityGraph {
    weights: HashMap<(usize, usize), u64>,
}

impl AffinityGraph {
    /// Builds the graph from a trace at the profile's block granularity.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidBlockSize`] for a bad block size or
    /// [`TraceError::InvalidParameter`] for a zero window.
    pub fn from_trace(
        trace: &Trace,
        base: u64,
        block_size: u64,
        num_blocks: usize,
        window: usize,
    ) -> Result<Self, TraceError> {
        if window == 0 {
            return Err(TraceError::InvalidParameter("window must be positive"));
        }
        if block_size == 0 || !block_size.is_power_of_two() {
            return Err(TraceError::InvalidBlockSize(block_size));
        }
        let shift = block_size.trailing_zeros();
        let mut weights: HashMap<(usize, usize), u64> = HashMap::new();
        let mut recent: VecDeque<usize> = VecDeque::with_capacity(window);
        for ev in trace {
            if ev.addr < base {
                continue;
            }
            let block = ((ev.addr - base) >> shift) as usize;
            if block >= num_blocks {
                continue;
            }
            for &other in &recent {
                if other != block {
                    let key = (block.min(other), block.max(other));
                    *weights.entry(key).or_insert(0) += 1;
                }
            }
            if recent.len() == window {
                recent.pop_front();
            }
            recent.push_back(block);
        }
        Ok(AffinityGraph { weights })
    }

    /// Edge weight between two blocks (symmetric).
    pub fn weight(&self, a: usize, b: usize) -> u64 {
        self.weights
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or(0)
    }

    /// Edges sorted by descending weight.
    pub fn edges_by_weight(&self) -> Vec<(usize, usize, u64)> {
        let mut edges: Vec<(usize, usize, u64)> =
            self.weights.iter().map(|(&(a, b), &w)| (a, b, w)).collect();
        edges.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        edges
    }
}

/// Union-find with cluster-size tracking.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    /// Merges unless the combined size would exceed `max_size`; returns
    /// whether the merge happened.
    fn union_bounded(&mut self, a: usize, b: usize, max_size: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] + self.size[rb] > max_size {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        true
    }
}

/// Runs the full clustering pipeline, producing the block remap.
///
/// `trace` supplies the co-access affinity; pass `None` (or use
/// [`Objective::FrequencyOnly`]) to cluster on frequency alone.
pub fn cluster_blocks(
    profile: &BlockProfile,
    trace: Option<&Trace>,
    cfg: &ClusterConfig,
) -> AddressMap {
    let n = profile.num_blocks();
    let counts = profile.counts();

    // 1. Group blocks into clusters.
    let mut uf = UnionFind::new(n);
    let mut graph = None;
    if cfg.objective == Objective::FrequencyAffinity {
        if let Some(trace) = trace {
            if let Ok(g) = AffinityGraph::from_trace(
                trace,
                profile.base(),
                profile.block_size(),
                n,
                cfg.window,
            ) {
                for (a, b, _w) in g.edges_by_weight() {
                    uf.union_bounded(a, b, cfg.max_cluster_blocks.max(1));
                }
                graph = Some(g);
            }
        }
    }

    // 2. Collect clusters and their aggregate heat.
    let mut clusters: HashMap<usize, Vec<usize>> = HashMap::new();
    for block in 0..n {
        clusters.entry(uf.find(block)).or_default().push(block);
    }
    let mut ordered: Vec<(u64, Vec<usize>)> = clusters
        .into_values()
        .map(|mut blocks| {
            match &graph {
                // With affinity information, order blocks inside the
                // cluster as a greedy nearest-neighbour chain: start from
                // the hottest block and repeatedly append the unplaced
                // block most strongly co-accessed with the last placed
                // one. This keeps strongly-correlated sub-groups adjacent
                // even when heat is uniform, so a later bank cut can
                // separate them and let each sub-group's bank sleep.
                Some(g) if blocks.len() > 2 => {
                    blocks.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
                    let mut chain = vec![blocks[0]];
                    let mut rest: Vec<usize> = blocks[1..].to_vec();
                    while !rest.is_empty() {
                        let last = *chain.last().expect("chain starts non-empty");
                        let (pos, _) = rest
                            .iter()
                            .enumerate()
                            .max_by_key(|&(_, &b)| {
                                (g.weight(last, b), counts[b], std::cmp::Reverse(b))
                            })
                            .expect("rest is non-empty");
                        chain.push(rest.swap_remove(pos));
                    }
                    blocks = chain;
                }
                // Frequency objective: hottest first (tiebreak on index).
                _ => blocks.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b))),
            }
            let heat: u64 = blocks.iter().map(|&b| counts[b]).sum();
            (heat, blocks)
        })
        .collect();
    // Hottest cluster first; deterministic tiebreak on first block index.
    ordered.sort_by(|x, y| y.0.cmp(&x.0).then(x.1[0].cmp(&y.1[0])));

    // 3. Lay clusters out contiguously from address zero.
    let mut forward = vec![0usize; n];
    let mut next = 0usize;
    for (_, blocks) in ordered {
        for block in blocks {
            forward[block] = next;
            next += 1;
        }
    }
    debug_assert_eq!(next, n);
    AddressMap::new(forward, profile.base(), profile.block_size())
        .expect("construction yields a permutation by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_trace::MemEvent;

    fn profile(counts: Vec<u64>) -> BlockProfile {
        BlockProfile::from_counts(0, 1024, counts).unwrap()
    }

    #[test]
    fn identity_map_properties() {
        let m = AddressMap::identity(8, 0, 1024);
        assert!(m.is_identity());
        assert_eq!(m.remap_addr(0x1234), 0x1234);
        assert_eq!(m.lookup_energy(1000, &Technology::tech180()), Energy::ZERO);
    }

    #[test]
    fn map_validates_permutation() {
        assert!(AddressMap::new(vec![0, 0, 1], 0, 1024).is_err());
        assert!(AddressMap::new(vec![0, 3, 1], 0, 1024).is_err());
        assert!(AddressMap::new(vec![2, 0, 1], 0, 1000).is_err());
        assert!(AddressMap::new(vec![2, 0, 1], 0, 1024).is_ok());
    }

    #[test]
    fn remap_addr_moves_blocks_keeps_offsets() {
        let m = AddressMap::new(vec![1, 0], 0x1000, 0x100).unwrap();
        assert_eq!(m.remap_addr(0x1004), 0x1104); // block 0 -> slot 1
        assert_eq!(m.remap_addr(0x11F0), 0x10F0); // block 1 -> slot 0
        assert_eq!(m.remap_addr(0x0FFF), 0x0FFF); // below base: untouched
        assert_eq!(m.remap_addr(0x2000), 0x2000); // beyond range: untouched
    }

    #[test]
    fn apply_matches_remap_semantics() {
        // forward = [2, 0, 1]: old0 -> slot2, old1 -> slot0, old2 -> slot1.
        let m = AddressMap::new(vec![2, 0, 1], 0, 1024).unwrap();
        let p = profile(vec![10, 20, 30]);
        let q = m.apply(&p).unwrap();
        assert_eq!(q.counts(), &[20, 30, 10]);
        assert_eq!(q.total_accesses(), p.total_accesses());
    }

    #[test]
    fn frequency_only_sorts_by_heat() {
        let p = profile(vec![5, 100, 1, 50]);
        let cfg = ClusterConfig {
            objective: Objective::FrequencyOnly,
            ..Default::default()
        };
        let map = cluster_blocks(&p, None, &cfg);
        let q = map.apply(&p).unwrap();
        assert_eq!(q.counts(), &[100, 50, 5, 1]);
    }

    #[test]
    fn clustering_concentrates_scattered_hot_blocks() {
        let p = profile(vec![900, 1, 1, 1, 1, 950]);
        let map = cluster_blocks(&p, None, &ClusterConfig::default());
        let q = map.apply(&p).unwrap();
        assert_eq!(&q.counts()[0..2], &[950, 900]);
        assert!(q.scatter() < p.scatter());
    }

    #[test]
    fn affinity_graph_counts_co_accesses() {
        // Alternating blocks 0 and 2 within a window of 2.
        let t: Trace = vec![
            MemEvent::read(0),
            MemEvent::read(2048),
            MemEvent::read(0),
            MemEvent::read(2048),
        ]
        .into();
        let g = AffinityGraph::from_trace(&t, 0, 1024, 3, 2).unwrap();
        assert_eq!(g.weight(0, 2), 3);
        assert_eq!(g.weight(0, 1), 0);
    }

    #[test]
    fn affinity_keeps_correlated_blocks_together() {
        // Blocks 0 and 4 are hot AND co-accessed; blocks 2 is hot but
        // independent. Affinity clustering should pack {0,4} adjacent.
        let mut evs = Vec::new();
        for _ in 0..200 {
            evs.push(MemEvent::read(0)); // block 0
            evs.push(MemEvent::read(4 * 1024)); // block 4
        }
        for _ in 0..150 {
            evs.push(MemEvent::read(2 * 1024)); // block 2
        }
        let t: Trace = evs.into();
        let p = BlockProfile::from_trace(&t, 1024).unwrap();
        let map = cluster_blocks(&p, Some(&t), &ClusterConfig::default());
        let new0 = map.forward()[0];
        let new4 = map.forward()[4];
        assert_eq!(
            new0.abs_diff(new4),
            1,
            "co-accessed blocks must be adjacent"
        );
    }

    #[test]
    fn cluster_size_bound_is_respected() {
        // All five blocks co-accessed; bound clusters to 2.
        let mut evs = Vec::new();
        for i in 0..500u64 {
            evs.push(MemEvent::read((i % 5) * 1024));
        }
        let t: Trace = evs.into();
        let p = BlockProfile::from_trace(&t, 1024).unwrap();
        let cfg = ClusterConfig {
            max_cluster_blocks: 2,
            ..Default::default()
        };
        let map = cluster_blocks(&p, Some(&t), &cfg);
        // The map must still be a permutation over all 5 blocks.
        let mut seen = [false; 5];
        for &f in map.forward() {
            assert!(!seen[f]);
            seen[f] = true;
        }
    }

    #[test]
    fn table_bits_scale_with_blocks() {
        assert_eq!(AddressMap::identity(1, 0, 1024).table_bits(), 0);
        assert_eq!(AddressMap::identity(2, 0, 1024).table_bits(), 2); // 2 × 1 bit
        assert_eq!(AddressMap::identity(64, 0, 1024).table_bits(), 64 * 6);
    }

    #[test]
    fn table_area_is_zero_for_identity_small_otherwise() {
        let tech = Technology::tech180();
        assert_eq!(AddressMap::identity(64, 0, 1024).table_area_mm2(&tech), 0.0);
        let m = AddressMap::new(vec![1, 0], 0, 1024).unwrap();
        let a = m.table_area_mm2(&tech);
        assert!(a > 0.0 && a < 0.001, "relocation tables are tiny: {a}");
    }

    #[test]
    fn non_identity_map_charges_lookup_energy() {
        let m = AddressMap::new(vec![1, 0], 0, 1024).unwrap();
        let tech = Technology::tech180();
        let e = m.lookup_energy(100, &tech);
        assert!((e.as_pj() - 100.0 * tech.relocation_lookup_pj).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_clustering_beats_plain_partitioning() {
        use lpmem_partition::{optimal_partition, PartitionCost};
        // Scattered hot set: the headline scenario of T1.
        let counts: Vec<u64> = (0..32)
            .map(|i| if i % 7 == 0 { 5_000 } else { 10 })
            .collect();
        let p = BlockProfile::from_counts(0, 4096, counts).unwrap();
        let tech = Technology::tech180();
        let cost = PartitionCost::new(&tech);
        let (_, plain) = optimal_partition(&p, 8, &cost);
        let map = cluster_blocks(&p, None, &ClusterConfig::default());
        let q = map.apply(&p).unwrap();
        let (_, clustered) = optimal_partition(&q, 8, &cost);
        let overhead = map.lookup_energy(p.total_accesses(), &tech);
        assert!(
            clustered.total() + overhead < plain.total(),
            "clustered {} + {} vs plain {}",
            clustered.total(),
            overhead,
            plain.total()
        );
    }
}
