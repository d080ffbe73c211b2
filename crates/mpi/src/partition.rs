//! Mesh partitioners.
//!
//! The paper: "OP-PIC supports partitioning the mesh with ParMETIS,
//! however, in this paper we use a custom partitioning routine where
//! partitions are created along the 'principal direction of motion of
//! particles', as in PUMIPic. This significantly minimizes
//! communication between partitions."
//!
//! Provided here:
//! * [`directional_partition`] — the paper's custom scheme: sort cells
//!   by centroid coordinate along the given axis, cut into equal
//!   contiguous blocks;
//! * [`PartitionStats`] — edge cut, imbalance and halo-size metrics
//!   (fig13 projects halo traffic from the halo size).

use oppic_mesh::Vec3;

/// Quality metrics of a partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionStats {
    pub n_ranks: usize,
    /// c2c edges whose endpoints live on different ranks.
    pub edge_cut: usize,
    /// max part size / mean part size.
    pub imbalance: f64,
    /// Total number of (cell, neighbour-rank) ghost pairs — the halo
    /// volume the exchange pays per step.
    pub halo_cells: usize,
}

/// The paper's custom partitioner: equal contiguous blocks along one
/// axis (the principal direction of particle motion).
pub fn directional_partition(centroids: &[Vec3], axis: usize, n_ranks: usize) -> Vec<u32> {
    assert!(n_ranks > 0);
    assert!(axis < 3);
    let n = centroids.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        centroids[a][axis]
            .partial_cmp(&centroids[b][axis])
            .expect("centroid coordinates must not be NaN")
    });
    let mut rank = vec![0u32; n];
    for (pos, &cell) in order.iter().enumerate() {
        // Equal-count blocks: cell `pos` of the sorted order goes to
        // floor(pos * R / n).
        rank[cell] = ((pos * n_ranks) / n.max(1)) as u32;
    }
    rank
}

/// Compute partition quality metrics from a fixed-arity c2c map
/// (entries < 0 are boundaries).
pub fn partition_stats(c2c: &[impl AsRef<[i32]>], rank: &[u32], n_ranks: usize) -> PartitionStats {
    let n = c2c.len();
    let mut edge_cut = 0usize;
    let mut sizes = vec![0usize; n_ranks];
    let mut halo_pairs = std::collections::HashSet::new();
    for (c, nbs) in c2c.iter().enumerate() {
        sizes[rank[c] as usize] += 1;
        for &nb in nbs.as_ref() {
            if nb >= 0 {
                let nb = nb as usize;
                if rank[nb] != rank[c] {
                    edge_cut += 1;
                    // Cell nb is a ghost on rank[c].
                    halo_pairs.insert((nb, rank[c]));
                }
            }
        }
    }
    edge_cut /= 2; // counted from both sides
    let mean = n as f64 / n_ranks as f64;
    let imbalance = sizes.iter().copied().max().unwrap_or(0) as f64 / mean.max(1e-300);
    PartitionStats {
        n_ranks,
        edge_cut,
        imbalance,
        halo_cells: halo_pairs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_mesh::TetMesh;

    fn centroids(m: &TetMesh) -> Vec<Vec3> {
        (0..m.n_cells()).map(|c| m.cell_centroid(c)).collect()
    }

    fn check_cover(rank: &[u32], n_ranks: usize) {
        // Every cell assigned, every rank in range, every rank nonempty.
        let mut seen = vec![0usize; n_ranks];
        for &r in rank {
            assert!((r as usize) < n_ranks);
            seen[r as usize] += 1;
        }
        assert!(seen.iter().all(|&s| s > 0), "empty rank: {seen:?}");
    }

    #[test]
    fn directional_is_balanced_and_ordered() {
        let m = TetMesh::duct(8, 2, 2, 8.0, 1.0, 1.0);
        let cen = centroids(&m);
        let rank = directional_partition(&cen, 0, 4);
        check_cover(&rank, 4);
        // Exactly balanced.
        let mut sizes = [0usize; 4];
        for &r in &rank {
            sizes[r as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s == m.n_cells() / 4));
        // Monotone along x: lower-x cells get lower ranks.
        for c in 0..m.n_cells() {
            for d in 0..m.n_cells() {
                if cen[c].x < cen[d].x - 1e-9 {
                    assert!(rank[c] <= rank[d]);
                }
            }
        }
    }

    #[test]
    fn directional_minimises_cut_on_a_duct() {
        // On a long duct, slicing across the long axis must beat
        // slicing across a short axis — the paper's rationale.
        let m = TetMesh::duct(16, 2, 2, 16.0, 1.0, 1.0);
        let cen = centroids(&m);
        let along = partition_stats(&m.c2c, &directional_partition(&cen, 0, 4), 4);
        let across = partition_stats(&m.c2c, &directional_partition(&cen, 1, 4), 4);
        assert!(
            along.edge_cut < across.edge_cut,
            "along {} vs across {}",
            along.edge_cut,
            across.edge_cut
        );
    }

    #[test]
    fn single_rank_partitions_are_trivial() {
        let m = TetMesh::duct(2, 2, 2, 1.0, 1.0, 1.0);
        let cen = centroids(&m);
        assert!(directional_partition(&cen, 0, 1).iter().all(|&r| r == 0));
    }

    #[test]
    fn stats_on_hand_built_graph() {
        // 4 cells in a row, ranks [0,0,1,1]: one cut edge (1-2), one
        // ghost pair each side.
        let c2c: Vec<[i32; 2]> = vec![[-1, 1], [0, 2], [1, 3], [2, -1]];
        let stats = partition_stats(&c2c, &[0, 0, 1, 1], 2);
        assert_eq!(stats.edge_cut, 1);
        assert_eq!(stats.halo_cells, 2);
        assert_eq!(stats.imbalance, 1.0);
    }
}
