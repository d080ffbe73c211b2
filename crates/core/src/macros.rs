//! The `macro_rules!` front-end — paper-style loop declarations.
//!
//! The executors in [`crate::parloop`], [`crate::deposit`] and
//! [`crate::move_engine`] are the DSL's machinery; these macros are its
//! *syntax*, shaped after the paper's Figure 5/6 API so a loop
//! declaration reads like the C++ original:
//!
//! ```
//! use oppic_core::{opp_par_loop, Dat, ExecPolicy};
//! let policy = ExecPolicy::Par;
//! let mut pos = Dat::zeros("pos", 100, 3);
//! let mut vel = Dat::from_fn("vel", 100, 3, |i, _| i as f64);
//! let dt = 0.5;
//! opp_par_loop!(policy, "CalcPosVel";
//!     write [x: pos, v: vel];
//!     |_i| {
//!         x[0] += dt * v[0];
//!     }
//! );
//! assert_eq!(pos.el(99), &[0.5 * 99.0, 0.0, 0.0]);
//! ```
//!
//! The macros map onto the paper's access-descriptor shapes:
//! one to four `write` (OPP_WRITE/OPP_RW) dats on the iteration set;
//! reads (`OPP_READ`, direct or through maps) are ordinary captures —
//! `&Dat` is `Sync`, so reads need no machinery at all.

/// Declare a parallel loop over the elements of a set, Figure 5 style.
///
/// ```text
/// opp_par_loop!(policy, "name"; write [a: dat_a, b: dat_b]; |i| { ... });
/// ```
///
/// Each binding names the element's mutable window of that dat inside
/// the kernel body. 1–4 written dats are supported (the paper's loops
/// never write more; add reads by capturing).
///
/// Every expansion builds the loop's [`crate::access::LoopDecl`] from
/// the written dats and validates it ([`crate::access::ArgDecl::validate`])
/// before dispatch — the declaration *is* checked, not just recorded.
#[macro_export]
macro_rules! opp_par_loop {
    ($policy:expr, $name:expr; write [$($a:ident: $da:expr),+]; |$i:pat_param| $body:block) => {{
        let __decl = $crate::access::LoopDecl::new(
            $name,
            "<direct>",
            vec![$($crate::access::ArgDecl::direct(
                $da.name(),
                $da.dim(),
                $crate::access::Access::Write,
            )),+],
        );
        $crate::plan::LoopPlan::direct(__decl, &$policy)
            .quick_check()
            .expect("opp_par_loop: incoherent loop declaration");
        // One dat is a bare column and a bare element window; several
        // are tuples of both.
        #[allow(unused_parens)]
        $crate::parloop::par_loop(
            &$policy,
            $crate::parloop::Space::Range,
            ($($da.col_mut()),+),
            |__w| __w.each(|$i, ($($a),+)| $body),
        );
    }};
}

/// Declare a particle-move loop, Figure 6 style. The kernel is two
/// bodies: `probe` evaluates to `true` when `cell` holds particle `i`
/// (`OPP_PARTICLE_MOVE_DONE`), and `exit`, which runs only after a
/// failed probe, to `Some(next)` (`OPP_PARTICLE_NEED_MOVE`) or `None`
/// (`OPP_PARTICLE_NEED_REMOVE`). An optional `seed` makes it
/// direct-hop: each particle probes its current cell and hops once to
/// the neighbour its exit names, and only a miss there too jumps to
/// the seed's overlay cell and walks on; an optional `write` column
/// hands both bodies the particle's item of it on every visit
/// (`&mut` to `probe`, `&` to `exit`), e.g. to leave the final cell's
/// weights behind.
///
/// ```text
/// let result = opp_particle_move!(policy, "Move", cells;
///     probe |i, cell| { inside(i, cell) }
///     exit |i, cell| { next_cell(i, cell) });
/// // direct-hop flavour, writing the dim-4 column `lc` through `l`:
/// let result = opp_particle_move!(policy, "Move", cells; seed |i| overlay_lookup(i);
///     write Fixed::<4>(lc) => l;
///     probe |i, cell| { *l = weights(i, cell); inside(l) }
///     exit |_i, cell| { c2c[cell][exit_face(l)] });
/// ```
#[macro_export]
macro_rules! opp_particle_move {
    (@seed) => { None };
    (@seed |$si:pat_param| $seed:expr) => { Some(&|$si: usize| -> usize { $seed }) };
    (@cols) => { () };
    (@cols $cols:expr) => { $cols };
    (@window) => { _ };
    (@window $w:ident) => { $w };
    ($policy:expr, $name:expr, $cells:expr;
     $(seed |$si:pat_param| $seed:expr;)?
     $(write $cols:expr => $w:ident;)?
     probe |$pi:pat_param, $pcell:pat_param| $probe:block
     exit |$xi:pat_param, $xcell:pat_param| $exit:block) => {{
        let _ = $name;
        $crate::move_engine::move_loop(
            &$policy,
            $crate::move_engine::MoveConfig::default(),
            $cells,
            $crate::opp_particle_move!(@seed $(|$si| $seed)?),
            $crate::opp_particle_move!(@cols $($cols)?),
            |$pi, $pcell, $crate::opp_particle_move!(@window $($w)?)| $probe,
            |$xi, $xcell, $crate::opp_particle_move!(@window $($w)?)| $exit,
        )
    }};
}

/// Declare an indirect-increment loop (the `OPP_INC` pattern of
/// Figure 5, bottom): the kernel body evaluates to iteration `i`'s
/// contributions `([usize; K], [f64; K])` — `K` target indices and the
/// values to add there — and the configured method applies them
/// ([`crate::deposit_loop`]).
///
/// ```text
/// opp_deposit!(policy, DepositMethod::ScatterArrays, "DepositCharge",
///              n_particles => node_charge; |i| { (c2n[cell[i]], [q * w; 4]) });
/// ```
#[macro_export]
macro_rules! opp_deposit {
    ($policy:expr, $method:expr, $name:expr, $n:expr => $target:expr; |$i:pat_param| $body:block) => {{
        let __method = $method;
        // The deposit pattern is by construction a double-indirect INC
        // (particle → cell → target element); record that shape as a
        // plan and run the cheap coherence check before dispatch.
        let __decl = $crate::access::LoopDecl::new(
            $name,
            "particles",
            vec![$crate::access::ArgDecl::double_indirect(
                "<deposit-target>",
                1,
                $crate::access::Access::Inc,
                "<p2c.map>",
            )],
        );
        $crate::plan::LoopPlan::new(
            __decl,
            &$policy,
            $crate::plan::RaceStrategy::Deposit(__method),
        )
        .quick_check()
        .expect("opp_deposit: incoherent deposit plan");
        $crate::deposit::deposit_loop(&$policy, __method, $n, $target, |$i| $body)
    }};
}

#[cfg(test)]
mod tests {
    use crate::{Dat, DepositMethod, ExecPolicy, Fixed};

    #[test]
    fn par_loop_macro_all_arities() {
        let policy = ExecPolicy::Par;
        let mut a = Dat::zeros("a", 20, 1);
        let mut b = Dat::zeros("b", 20, 2);
        let mut c = Dat::zeros("c", 20, 1);
        let mut d = Dat::zeros("d", 20, 1);

        opp_par_loop!(policy, "one"; write [x: a]; |i| {
            x[0] = i as f64;
        });
        assert_eq!(a.get(7), 7.0);

        opp_par_loop!(policy, "two"; write [x: a, y: b]; |i| {
            y[1] = x[0] + i as f64;
        });
        assert_eq!(b.el(7)[1], 14.0);

        opp_par_loop!(policy, "three"; write [x: a, y: b, z: c]; |_i| {
            z[0] = x[0] + y[1];
        });
        assert_eq!(c.get(7), 21.0);

        opp_par_loop!(policy, "four"; write [x: a, y: b, z: c, w: d]; |_i| {
            w[0] = x[0] + y[1] + z[0];
        });
        assert_eq!(d.get(7), 42.0);
    }

    #[test]
    fn particle_move_macro_multi_and_direct_hop() {
        let policy = ExecPolicy::Seq;
        let targets = [5usize, 2, 8];
        let toward = |i: usize, cell: usize| {
            if cell < targets[i] {
                cell + 1
            } else {
                cell - 1
            }
        };
        let mut cells = vec![0i32, 7, 8];
        let r = opp_particle_move!(policy, "Move", &mut cells;
            probe |i, cell| { cell == targets[i] }
            exit |i, cell| { Some(toward(i, cell)) }
        );
        assert_eq!(cells, vec![5, 2, 8]);
        assert!(r.removed.is_empty());

        // Direct-hop: every particle first probes cell 0 and hops to
        // cell 1, misses both, and lands on its perfect seed — three
        // visits each.
        let mut cells = vec![0i32, 0, 0];
        let r = opp_particle_move!(policy, "MoveDH", &mut cells; seed |i| targets[i];
            probe |i, cell| {
                if cell >= 2 {
                    assert_eq!(cell, targets[i]);
                }
                cell >= 2
            }
            exit |_i, cell| { Some(cell + 1) }
        );
        assert_eq!(r.total_visits, 9);
        assert_eq!(r.seeded, 3);
        assert_eq!(cells, vec![5, 2, 8]);

        // A written window: each particle leaves its final cell behind,
        // and the exit sees the cell its failed probe wrote.
        let mut cells = vec![0i32, 7, 8];
        let mut last = vec![0.0; 3];
        let r = opp_particle_move!(policy, "MoveW", &mut cells;
            write Fixed::<1>(&mut last) => w;
            probe |i, cell| {
                w[0] = cell as f64;
                cell == targets[i]
            }
            exit |i, cell| {
                assert_eq!(w[0], cell as f64);
                Some(toward(i, cell))
            }
        );
        assert_eq!(last, vec![5.0, 2.0, 8.0]);
        assert_eq!(r.total_visits, 6 + 6 + 1);

        // A removal: the exit of a boundary cell says `None`.
        let mut cells = vec![0i32, 7, 8];
        let r = opp_particle_move!(policy, "MoveR", &mut cells;
            probe |i, cell| { cell == targets[i] }
            exit |i, cell| { (cell < 6).then(|| toward(i, cell)) }
        );
        assert_eq!(r.removed, vec![1]);
        assert_eq!(r.total_visits, 6 + 1 + 1);
    }

    #[test]
    fn deposit_macro() {
        let policy = ExecPolicy::Par;
        let mut charge = vec![0.0f64; 4];
        opp_deposit!(policy, DepositMethod::SegmentedReduction, "DepositCharge",
        400 => &mut charge; |i| {
            ([i % 4], [0.5])
        });
        assert_eq!(charge, vec![50.0; 4]);
    }

    #[test]
    fn macro_reads_are_plain_captures() {
        // Indirect reads through a map are just captures, as promised.
        let policy = ExecPolicy::Par;
        let map: Vec<usize> = (0..10).map(|i| 9 - i).collect();
        let source = Dat::from_fn("src", 10, 1, |i, _| i as f64 * 2.0);
        let mut dst = Dat::zeros("dst", 10, 1);
        opp_par_loop!(policy, "gather"; write [x: dst]; |i| {
            x[0] = source.get(map[i]);
        });
        assert_eq!(dst.get(0), 18.0);
        assert_eq!(dst.get(9), 0.0);
    }
}
