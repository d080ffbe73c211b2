//! Distributed Jacobi-PCG — the field solve the paper delegates to
//! (distributed) PETSc KSP, implemented over the in-process rank
//! runtime.
//!
//! Rows of the system are partitioned by owner; each rank holds the
//! CSR rows of its owned unknowns, whose columns may reference ghost
//! unknowns owned by neighbours. Every iteration does exactly what a
//! PETSc `MatMult` + `VecDot` pipeline does: a forward halo exchange of
//! the search direction, a local SpMV, and latency-bound allreduces
//! for the two inner products.

use crate::comm::RankCtx;
use crate::halo::{HaloError, HaloExchangePlan};
use oppic_linalg::{CgConfig, CgOutcome, CgStop, CsrMatrix};

/// One rank's share of a distributed SPD system.
///
/// Local vector layout: owned unknowns first (`n_owned`), ghosts after
/// (`n_local - n_owned`), exactly like [`crate::halo::RankMesh`].
#[derive(Debug, Clone)]
pub struct DistributedSystem {
    /// `n_owned × n_local` matrix: one row per owned unknown, columns
    /// in local numbering (owned + ghost).
    pub matrix: CsrMatrix,
    pub n_owned: usize,
    /// Ghost exchange plan over the unknowns (dim 1).
    pub plan: HaloExchangePlan,
}

impl DistributedSystem {
    pub fn n_local(&self) -> usize {
        self.matrix.n_cols()
    }

    /// Distributed `y = A x`: refresh ghosts of `x`, then local SpMV.
    /// `x` has `n_local` entries; `y` gets `n_owned`.
    fn spmv(&self, ctx: &mut RankCtx, x: &mut [f64], y: &mut [f64]) -> Result<(), HaloError> {
        self.plan.forward(ctx, x, 1)?;
        self.matrix.spmv_serial(x, y);
        Ok(())
    }
}

/// Solve the distributed system with Jacobi-PCG. `rhs` and `x` are the
/// owned parts (`n_owned`); `x` also serves as the warm start.
/// Collective: every rank must call with its own share. Halo failures
/// surface as typed errors rather than panics, so a driver can abort
/// the solve cleanly.
pub fn cg_solve_distributed(
    ctx: &mut RankCtx,
    sys: &DistributedSystem,
    rhs: &[f64],
    x_owned: &mut [f64],
    cfg: CgConfig,
) -> Result<CgOutcome, HaloError> {
    let n = sys.n_owned;
    let nl = sys.n_local();
    assert_eq!(rhs.len(), n);
    assert_eq!(x_owned.len(), n);

    let inv_diag: Vec<f64> = (0..n)
        .map(|r| {
            let d = sys.matrix.get(r, r);
            if d.abs() > 0.0 {
                1.0 / d
            } else {
                1.0
            }
        })
        .collect();

    let dot = |ctx: &mut RankCtx, a: &[f64], b: &[f64]| -> f64 {
        let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        ctx.allreduce_sum(local)
    };

    let norm_b = dot(ctx, rhs, rhs).sqrt();
    let target = (cfg.rtol * norm_b).max(cfg.atol);

    // Work vectors: x and p carry ghosts (SpMV input), r/z/ap are
    // owned-only.
    let mut x = vec![0.0; nl];
    x[..n].copy_from_slice(x_owned);
    let mut ap = vec![0.0; n];
    let mut r = vec![0.0; n];
    sys.spmv(ctx, &mut x, &mut r)?;
    for i in 0..n {
        r[i] = rhs[i] - r[i];
    }
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
    let mut p = vec![0.0; nl];
    p[..n].copy_from_slice(&z);
    let mut rz = dot(ctx, &r, &z);

    let mut res = dot(ctx, &r, &r).sqrt();
    let mut outcome = CgOutcome {
        converged: res <= target,
        stop: if res <= target {
            CgStop::Converged
        } else {
            CgStop::MaxIters
        },
        iterations: 0,
        residual: res,
    };
    if outcome.converged {
        x_owned.copy_from_slice(&x[..n]);
        return Ok(outcome);
    }

    for it in 1..=cfg.max_iters {
        sys.spmv(ctx, &mut p, &mut ap)?;
        let p_ap = dot(ctx, &p[..n], &ap);
        if p_ap <= 0.0 {
            outcome = CgOutcome {
                converged: false,
                stop: CgStop::Breakdown,
                iterations: it,
                residual: res,
            };
            break;
        }
        let alpha = rz / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        res = dot(ctx, &r, &r).sqrt();
        if res <= target {
            outcome = CgOutcome {
                converged: true,
                stop: CgStop::Converged,
                iterations: it,
                residual: res,
            };
            break;
        }
        for i in 0..n {
            z[i] = r[i] * inv_diag[i];
        }
        let rz_new = dot(ctx, &r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
        outcome = CgOutcome {
            converged: false,
            stop: CgStop::MaxIters,
            iterations: it,
            residual: res,
        };
    }

    x_owned.copy_from_slice(&x[..n]);
    Ok(outcome)
}

/// Split a global SPD system into per-rank [`DistributedSystem`]s by a
/// row partition (owner per unknown). Test/driver utility — real
/// applications assemble locally.
pub fn partition_system(
    global: &CsrMatrix,
    owner: &[u32],
    n_ranks: usize,
) -> Vec<DistributedSystem> {
    use std::collections::HashMap;
    let n = global.n_rows();
    assert_eq!(owner.len(), n);
    let mut systems = Vec::with_capacity(n_ranks);
    for r in 0..n_ranks as u32 {
        let owned: Vec<usize> = (0..n).filter(|&i| owner[i] == r).collect();
        // Ghosts: foreign columns referenced by owned rows.
        let mut ghosts: Vec<usize> = owned
            .iter()
            .flat_map(|&i| global.row(i).0.iter().map(|&c| c as usize))
            .filter(|&c| owner[c] != r)
            .collect();
        ghosts.sort_unstable();
        ghosts.dedup();

        let mut g2l: HashMap<usize, usize> = HashMap::new();
        for (l, &g) in owned.iter().enumerate() {
            g2l.insert(g, l);
        }
        for (k, &g) in ghosts.iter().enumerate() {
            g2l.insert(g, owned.len() + k);
        }

        let mut b = oppic_linalg::CsrBuilder::new(owned.len(), owned.len() + ghosts.len());
        for (lr, &gr) in owned.iter().enumerate() {
            let (cols, vals) = global.row(gr);
            for (c, v) in cols.iter().zip(vals) {
                b.add(lr, g2l[&(*c as usize)], *v);
            }
        }

        // Receive plan: ghosts grouped by owner.
        let mut recv: HashMap<u32, Vec<usize>> = HashMap::new();
        for &g in &ghosts {
            recv.entry(owner[g]).or_default().push(g2l[&g]);
        }
        let mut recv: Vec<(u32, Vec<usize>)> = recv.into_iter().collect();
        recv.sort_by_key(|(src, _)| *src);

        systems.push(DistributedSystem {
            matrix: b.build(),
            n_owned: owned.len(),
            plan: HaloExchangePlan {
                send: Vec::new(),
                recv,
            },
        });
    }
    // Mirror the send plans, ascending global id (matching recv order).
    let owned_of = |r: usize| -> Vec<usize> { (0..n).filter(|&i| owner[i] == r as u32).collect() };
    for (r, sys) in systems.iter_mut().enumerate() {
        let my_owned = owned_of(r);
        let index_of: HashMap<usize, usize> =
            my_owned.iter().enumerate().map(|(l, &g)| (g, l)).collect();
        let mut sends: Vec<(u32, Vec<usize>)> = Vec::new();
        for other in 0..n_ranks {
            if other == r {
                continue;
            }
            // Globals that `other` ghosts and `r` owns, ascending.
            let other_owned: Vec<usize> = owned_of(other);
            let mut wanted: Vec<usize> = other_owned
                .iter()
                .flat_map(|&i| global.row(i).0.iter().map(|&c| c as usize))
                .filter(|&c| owner[c] == r as u32)
                .collect();
            wanted.sort_unstable();
            wanted.dedup();
            if !wanted.is_empty() {
                sends.push((other as u32, wanted.iter().map(|g| index_of[g]).collect()));
            }
        }
        sends.sort_by_key(|(dst, _)| *dst);
        sys.plan.send = sends;
    }
    systems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::world_run;
    use oppic_core::ExecPolicy;
    use oppic_linalg::{cg_solve, CsrBuilder};

    /// 1-D Laplacian with unit diagonal shift (SPD, well-conditioned).
    fn laplacian(n: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.5);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    fn block_owner(n: usize, ranks: usize) -> Vec<u32> {
        (0..n).map(|i| ((i * ranks) / n) as u32).collect()
    }

    #[test]
    fn partitioned_system_shapes() {
        let a = laplacian(10);
        let owner = block_owner(10, 3);
        let systems = partition_system(&a, &owner, 3);
        let total_owned: usize = systems.iter().map(|s| s.n_owned).sum();
        assert_eq!(total_owned, 10);
        // Interior ranks ghost one unknown per side.
        assert_eq!(systems[1].n_local() - systems[1].n_owned, 2);
        // Plans are symmetric in size.
        for s in &systems {
            let sent: usize = s.plan.send.iter().map(|(_, v)| v.len()).sum();
            let recv: usize = s.plan.recv.iter().map(|(_, v)| v.len()).sum();
            // A 1-D chain: #sends == #recvs for interior, 1 for ends.
            assert!(sent > 0 && recv > 0);
        }
    }

    #[test]
    fn distributed_cg_matches_serial_cg() {
        let n = 64;
        let ranks = 4;
        let a = laplacian(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.3).sin()).collect();
        let mut rhs = vec![0.0; n];
        a.spmv_serial(&x_true, &mut rhs);

        // Serial reference.
        let mut x_serial = vec![0.0; n];
        let serial = cg_solve(
            &ExecPolicy::Par,
            &a,
            &rhs,
            &mut x_serial,
            CgConfig::default(),
        );
        assert!(serial.converged);

        // Distributed.
        let owner = block_owner(n, ranks);
        let systems = partition_system(&a, &owner, ranks);
        let results = world_run(ranks, |ctx| {
            let sys = &systems[ctx.rank];
            let my_rhs: Vec<f64> = (0..n)
                .filter(|&i| owner[i] == ctx.rank as u32)
                .map(|i| rhs[i])
                .collect();
            let mut x = vec![0.0; sys.n_owned];
            let out = cg_solve_distributed(ctx, sys, &my_rhs, &mut x, CgConfig::default())
                .expect("halo exchange");
            (out, x)
        });

        // Reassemble and compare against the true solution.
        let mut x_dist = vec![0.0; n];
        for (r, (out, x)) in results.iter().enumerate() {
            assert!(out.converged, "rank {r}: {out:?}");
            let mine: Vec<usize> = (0..n).filter(|&i| owner[i] == r as u32).collect();
            for (l, &g) in mine.iter().enumerate() {
                x_dist[g] = x[l];
            }
        }
        for i in 0..n {
            assert!(
                (x_dist[i] - x_true[i]).abs() < 1e-6,
                "i={i}: {} vs {}",
                x_dist[i],
                x_true[i]
            );
        }
        // Iteration counts match the serial solver (same algorithm,
        // same arithmetic up to reduction order).
        let iters = results[0].0.iterations;
        assert!((iters as i64 - serial.iterations as i64).abs() <= 2);
    }

    #[test]
    fn distributed_cg_single_rank_degenerates_to_serial() {
        let n = 16;
        let a = laplacian(n);
        let rhs = vec![1.0; n];
        let systems = partition_system(&a, &vec![0u32; n], 1);
        let out = world_run(1, |ctx| {
            let mut x = vec![0.0; n];
            let o = cg_solve_distributed(ctx, &systems[0], &rhs, &mut x, CgConfig::default())
                .expect("halo exchange");
            (o, x)
        });
        let (o, x_dist) = &out[0];
        assert!(o.converged);
        let mut x_serial = vec![0.0; n];
        cg_solve(
            &ExecPolicy::Par,
            &a,
            &rhs,
            &mut x_serial,
            CgConfig::default(),
        );
        for (a, b) in x_dist.iter().zip(&x_serial) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_works_distributed() {
        let n = 32;
        let ranks = 2;
        let a = laplacian(n);
        let rhs = vec![0.5; n];
        let owner = block_owner(n, ranks);
        let systems = partition_system(&a, &owner, ranks);
        let iters = world_run(ranks, |ctx| {
            let sys = &systems[ctx.rank];
            let my_rhs: Vec<f64> = (0..n)
                .filter(|&i| owner[i] == ctx.rank as u32)
                .map(|i| rhs[i])
                .collect();
            let mut x = vec![0.0; sys.n_owned];
            let cold = cg_solve_distributed(ctx, sys, &my_rhs, &mut x, CgConfig::default())
                .expect("halo exchange");
            // Re-solve from the converged state: ~0 iterations.
            let warm = cg_solve_distributed(ctx, sys, &my_rhs, &mut x, CgConfig::default())
                .expect("halo exchange");
            (cold.iterations, warm.iterations)
        });
        for (cold, warm) in iters {
            assert!(warm <= 1, "warm {warm} vs cold {cold}");
            assert!(cold > warm);
        }
    }
}
