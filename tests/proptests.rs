//! Property-based tests (proptest) over the cross-crate invariants
//! listed in DESIGN.md §7.

use op_pic::core::{
    deposit_loop, move_loop, DepositMethod, ExecPolicy, Fixed, MoveConfig, ParticleDats,
};
use op_pic::linalg::{cg_solve, CgConfig, CsrBuilder};
use op_pic::mesh::geometry::{bary_inside, barycentric, sample_tet};
use op_pic::mesh::{StructuredOverlay, TetMesh, Vec3};
use op_pic::mpi::comm::world_run;
use op_pic::mpi::exchange::migrate_particles;
use op_pic::mpi::partition::directional_partition;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Barycentric weights of an interior point are in [0,1], sum to 1,
    /// and reconstruct the point.
    #[test]
    fn barycentric_reconstructs(
        r in prop::array::uniform4(0.0f64..1.0),
        verts in prop::array::uniform4(prop::array::uniform3(-5.0f64..5.0)),
    ) {
        let v = [
            Vec3::new(verts[0][0], verts[0][1], verts[0][2]),
            Vec3::new(verts[1][0], verts[1][1], verts[1][2]),
            Vec3::new(verts[2][0], verts[2][1], verts[2][2]),
            Vec3::new(verts[3][0], verts[3][1], verts[3][2]),
        ];
        // Skip degenerate tets.
        let vol = op_pic::mesh::geometry::tet_signed_volume(v[0], v[1], v[2], v[3]);
        prop_assume!(vol.abs() > 1e-3);
        let p = sample_tet(&v, r);
        let l = barycentric(p, &v);
        let sum: f64 = l.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(bary_inside(&l, 1e-9));
        // Reconstruction.
        let mut q = Vec3::ZERO;
        for k in 0..4 {
            q = q + v[k].scale(l[k]);
        }
        prop_assert!((q - p).norm() < 1e-8 * (1.0 + p.norm()));
    }

    /// Hole filling preserves exactly the multiset of survivors.
    #[test]
    fn holefill_preserves_survivors(
        n in 1usize..200,
        holes_seed in prop::collection::vec(0usize..1000, 0..120),
    ) {
        let mut ps = ParticleDats::new();
        let tag = ps.decl_dat("tag", 1);
        ps.inject(n, 0);
        for i in 0..n {
            ps.el_mut(tag, i)[0] = i as f64;
        }
        let mut holes: Vec<usize> = holes_seed.into_iter().map(|h| h % n).collect();
        holes.sort_unstable();
        holes.dedup();
        let expect: HashSet<usize> = (0..n).filter(|i| !holes.contains(i)).collect();
        ps.remove_fill(&holes);
        prop_assert_eq!(ps.len(), expect.len());
        let got: HashSet<usize> = (0..ps.len()).map(|i| ps.el(tag, i)[0] as usize).collect();
        prop_assert_eq!(got, expect);
    }

    /// All deposit strategies compute the same sums.
    #[test]
    fn deposit_strategies_equivalent(
        n in 1usize..2000,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let kernel = |i: usize| {
            let h = (i as u64).wrapping_mul(seed | 1);
            ([(h % len as u64) as usize], [1.0 + (h % 13) as f64 * 0.5])
        };
        let mut reference = vec![0.0; len];
        deposit_loop(&ExecPolicy::Seq, DepositMethod::Serial, n, &mut reference, kernel);
        for method in [DepositMethod::ScatterArrays, DepositMethod::Atomics, DepositMethod::SegmentedReduction] {
            let mut got = vec![0.0; len];
            deposit_loop(&ExecPolicy::Par, method, n, &mut got, kernel);
            for (a, b) in got.iter().zip(&reference) {
                prop_assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
            }
        }
    }

    /// The directional partitioner, cutting along any axis, covers all
    /// cells with ranks in range.
    #[test]
    fn partitioners_cover(n in 2usize..5, ranks in 1usize..7) {
        let mesh = TetMesh::duct(n, n, n, 1.0, 1.0, 1.0);
        let cen: Vec<Vec3> = (0..mesh.n_cells()).map(|c| mesh.cell_centroid(c)).collect();
        for axis in 0..3 {
            let part = directional_partition(&cen, axis, ranks);
            prop_assert_eq!(part.len(), mesh.n_cells());
            prop_assert!(part.iter().all(|&r| (r as usize) < ranks));
            // Non-empty ranks when ranks <= cells.
            let used: HashSet<u32> = part.iter().copied().collect();
            prop_assert_eq!(used.len(), ranks.min(mesh.n_cells()));
        }
    }

    /// CG solves random SPD (diagonally dominant) systems.
    #[test]
    fn cg_solves_spd(
        n in 2usize..24,
        seed in any::<u64>(),
    ) {
        let mut b = CsrBuilder::new(n, n);
        let mut h = seed | 1;
        let mut rnd = move || {
            h ^= h << 13; h ^= h >> 7; h ^= h << 17;
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        // Symmetric off-diagonals, dominant diagonal.
        let mut row_sums = vec![0.0; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if rnd() < 0.3 {
                    let v = rnd() - 0.5;
                    b.add(i, j, v);
                    b.add(j, i, v);
                    row_sums[i] += v.abs();
                    row_sums[j] += v.abs();
                }
            }
        }
        for (i, &rs) in row_sums.iter().enumerate() {
            b.add(i, i, rs + 1.0 + rnd());
        }
        let a = b.build();
        let x_true: Vec<f64> = (0..n).map(|_| rnd() * 2.0 - 1.0).collect();
        let mut rhs = vec![0.0; n];
        a.spmv(&x_true, &mut rhs);
        let mut x = vec![0.0; n];
        let out = cg_solve(&a, &rhs, &mut x, CgConfig::default());
        prop_assert!(out.converged, "{:?}", out);
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-6, "{xi} vs {ti}");
        }
    }

    /// Overlay seeds always reach the true containing cell via
    /// multi-hop, from any interior point.
    #[test]
    fn overlay_seed_plus_multihop_terminates(
        pt in prop::array::uniform3(0.001f64..0.999),
    ) {
        let mesh = TetMesh::duct(3, 3, 3, 1.0, 1.0, 1.0);
        let overlay = StructuredOverlay::build(&mesh, [8, 8, 8]);
        let p = Vec3::new(pt[0], pt[1], pt[2]);
        let mut cells = vec![overlay.locate(p) as i32];
        let pos = [p.x, p.y, p.z];
        let r = move_loop(
            &ExecPolicy::Seq,
            MoveConfig::default(),
            &mut cells,
            None,
            Fixed::<4>(&mut [0.0; 4]),
            |_, cell, l| {
                *l = barycentric(Vec3::from_slice(&pos), &mesh.cell_vertices(cell));
                bary_inside(l, 1e-10)
            },
            |_, cell, l| match mesh.c2c[cell][op_pic::mesh::geometry::bary_min_index(l)] {
                -1 => None,
                next => Some(next as usize),
            },
        );
        prop_assert!(r.removed.is_empty(), "interior point must be found");
        prop_assert!(r.max_chain < 30, "overlay seed must be near");
        let l = barycentric(p, &mesh.cell_vertices(cells[0] as usize));
        prop_assert!(bary_inside(&l, 1e-8));
    }
}

proptest! {
    // Migration is thread-heavy; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Particle migration conserves the global count and payloads for
    /// arbitrary destination assignments.
    #[test]
    fn migration_conserves_everything(
        per_rank in 1usize..30,
        dest_seed in any::<u64>(),
    ) {
        let n_ranks = 3;
        let out = world_run(n_ranks, |ctx| {
            let mut ps = ParticleDats::new();
            let tag = ps.decl_dat("tag", 2);
            ps.inject(per_rank, 0);
            for i in 0..per_rank {
                let e = ps.el_mut(tag, i);
                e[0] = (ctx.rank * 1000 + i) as f64;
                e[1] = e[0] * 0.5;
            }
            let leavers: Vec<(usize, u32, i32)> = (0..per_rank)
                .filter_map(|i| {
                    let h = dest_seed
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add((ctx.rank * per_rank + i) as u64);
                    let dst = (h % n_ranks as u64) as u32;
                    (dst as usize != ctx.rank).then_some((i, dst, 42))
                })
                .collect();
            migrate_particles(ctx, &mut ps, &leavers);
            let mut tags: Vec<(u64, u64)> = (0..ps.len())
                .map(|i| {
                    let e = ps.el(tag, i);
                    (e[0] as u64, (e[1] * 2.0) as u64)
                })
                .collect();
            tags.sort_unstable();
            tags
        });
        let total: usize = out.iter().map(Vec::len).sum();
        prop_assert_eq!(total, n_ranks * per_rank);
        // Payload coherence: e1 == e0/2 survived packing.
        for tags in &out {
            for &(a, b) in tags {
                prop_assert_eq!(a, b);
            }
        }
        // No duplicates globally.
        let all: HashSet<u64> = out.iter().flatten().map(|&(a, _)| a).collect();
        prop_assert_eq!(all.len(), total);
    }
}
