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

/// Declare a particle-move loop, Figure 6 style. The kernel body
/// evaluates to a [`crate::MoveStatus`] — the `OPP_PARTICLE_MOVE_DONE`
/// / `NEED_MOVE` / `NEED_REMOVE` markers of the paper become ordinary
/// `return`-position expressions.
///
/// ```text
/// let result = opp_particle_move!(policy, "Move", cells; |i, cell| { ...; MoveStatus::Done });
/// // direct-hop flavour:
/// let result = opp_particle_move!(policy, "Move", cells; seed |i| overlay_lookup(i);
///                                 |i, cell| { ...; MoveStatus::Done });
/// ```
#[macro_export]
macro_rules! opp_particle_move {
    ($policy:expr, $name:expr, $cells:expr; |$i:pat_param, $cell:pat_param| $body:block) => {{
        let _ = $name;
        $crate::move_engine::move_loop(
            &$policy,
            $crate::move_engine::MoveConfig::default(),
            $cells,
            |$i, $cell| $body,
        )
    }};
    ($policy:expr, $name:expr, $cells:expr; seed |$si:pat_param| $seed:expr; |$i:pat_param, $cell:pat_param| $body:block) => {{
        let _ = $name;
        $crate::move_engine::move_loop_direct_hop(
            &$policy,
            $crate::move_engine::MoveConfig::default(),
            $cells,
            |$si| $seed,
            |$i, $cell| $body,
        )
    }};
}

/// Declare an indirect-increment loop (the `OPP_INC` pattern of
/// Figure 5, bottom): the kernel receives a
/// [`crate::Depositor`] and emits contributions with `.add(idx, v)`.
///
/// ```text
/// opp_deposit!(policy, DepositMethod::ScatterArrays, "DepositCharge",
///              n_particles => node_charge; |i, dep| { dep.add(nd, q); });
/// ```
#[macro_export]
macro_rules! opp_deposit {
    ($policy:expr, $method:expr, $name:expr, $n:expr => $target:expr; |$i:pat_param, $dep:pat_param| $body:block) => {{
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
        $crate::deposit::deposit_loop(&$policy, __method, $n, $target, |$i, $dep| $body)
    }};
}

#[cfg(test)]
mod tests {
    use crate::{Dat, DepositMethod, ExecPolicy, MoveStatus};

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
        let mut cells = vec![0i32, 7, 8];
        let r = opp_particle_move!(policy, "Move", &mut cells; |i, cell| {
            if cell == targets[i] {
                MoveStatus::Done
            } else if cell < targets[i] {
                MoveStatus::NeedMove(cell + 1)
            } else {
                MoveStatus::NeedMove(cell - 1)
            }
        });
        assert_eq!(cells, vec![5, 2, 8]);
        assert!(r.removed.is_empty());

        // Direct-hop: perfect seeds, one visit each.
        let mut cells = vec![0i32, 0, 0];
        let r = opp_particle_move!(policy, "MoveDH", &mut cells; seed |i| targets[i];
            |i, cell| {
                assert_eq!(cell, targets[i]);
                MoveStatus::Done
            }
        );
        assert_eq!(r.total_visits, 3);
        assert_eq!(cells, vec![5, 2, 8]);
    }

    #[test]
    fn deposit_macro() {
        let policy = ExecPolicy::Par;
        let mut charge = vec![0.0f64; 4];
        opp_deposit!(policy, DepositMethod::SegmentedReduction, "DepositCharge",
        400 => &mut charge; |i, dep| {
            dep.add(i % 4, 0.5);
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
