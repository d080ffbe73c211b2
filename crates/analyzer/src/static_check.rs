//! Pass 1 — static loop-plan validation.
//!
//! Given a [`LoopPlan`] (the declared access descriptors plus the
//! executor and race strategy the application actually chose), reject
//! incoherent pairings *before* any iteration runs. This is the
//! runtime analogue of what OP-PIC's clang translator guarantees by
//! construction: a generated loop can never pair an indirect increment
//! with a race-oblivious executor, so a hand-planned loop must be
//! checked for the same property.
//!
//! With a declaration [`Registry`] available, the pass additionally
//! cross-checks each descriptor against the declared mesh: dat dims,
//! dat home sets, map endpoints, and map-chain composition.

use crate::diag::{Diagnostic, Report};
use oppic_core::access::{Access, ArgDecl, Indirection};
use oppic_core::decl::Registry;
use oppic_core::plan::{has_indirect_inc, LoopPlan, PlanRegistry, RaceStrategy};

/// Check one plan; returns all findings (empty = coherent).
pub fn check_plan(plan: &LoopPlan, reg: Option<&Registry>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let name = plan.name().to_string();

    // Per-argument descriptor coherence (satellite rules: Direct ⇔ no
    // map, Indirect/Double ⇒ map, no double-indirect plain WRITE).
    for a in &plan.decl.args {
        if let Err(e) = a.validate() {
            out.push(Diagnostic::error("arg/invalid", name.clone(), e));
        }
    }

    // Indirect increments under a parallel policy need a strategy.
    if plan.parallel && has_indirect_inc(&plan.decl) && !plan.race_strategy.handles_races() {
        out.push(Diagnostic::error(
            "plan/racy-inc",
            name.clone(),
            "indirect INC under a parallel policy with no race strategy \
             (pick scatter arrays, atomics, segmented reduction, or coloring)",
        ));
    }

    // An indirect WRITE / RW from a particle loop scatters plain
    // stores through a dynamic map — nondeterministic even with a
    // deposit strategy (those only make *increments* safe).
    let from_particles = reg
        .and_then(|r| r.set(&plan.decl.iter_set))
        .map(|s| s.cells_set.is_some());
    for a in &plan.decl.args {
        let scattered_store =
            a.indirection != Indirection::Direct && a.access.writes() && a.access != Access::Inc;
        if scattered_store && (a.indirection == Indirection::Double || from_particles == Some(true))
        {
            out.push(Diagnostic::error(
                "plan/scattered-write",
                name.clone(),
                format!(
                    "{:?} on '{}' through map '{}' from a particle loop is a \
                     nondeterministic scatter; only INC composes through this route",
                    a.access, a.dat, a.map
                ),
            ));
        }
    }

    // A serial deposit under a parallel policy silently serialises the
    // loop: sound, but the parallelism the plan asks for never happens.
    if plan.parallel {
        if let RaceStrategy::Deposit(m) = plan.race_strategy {
            if !m.is_race_safe(true) {
                out.push(Diagnostic::warn(
                    "plan/serialised-deposit",
                    name.clone(),
                    format!(
                        "deposit method {} ignores the parallel policy and runs \
                         sequentially",
                        m.label()
                    ),
                ));
            }
        }
    }

    // A race strategy on a loop with no indirect increment is dead
    // configuration (harmless, worth flagging).
    if plan.race_strategy.handles_races() && !has_indirect_inc(&plan.decl) {
        out.push(Diagnostic::info(
            "plan/unused-strategy",
            name.clone(),
            format!(
                "race strategy '{}' configured but the loop has no indirect INC",
                plan.race_strategy.label()
            ),
        ));
    }

    // Aliasing: two descriptors reaching the same dat through
    // different routes, at least one writing — the executor cannot see
    // that the windows overlap.
    for (i, a) in plan.decl.args.iter().enumerate() {
        for b in plan.decl.args.iter().skip(i + 1) {
            if a.dat != b.dat {
                continue;
            }
            let same_route = a.indirection == b.indirection && a.map == b.map;
            let any_writes = a.access.writes() || b.access.writes();
            if !same_route && any_writes {
                out.push(Diagnostic::error(
                    "plan/alias",
                    name.clone(),
                    format!(
                        "dat '{}' is accessed through two routes ({} and {}) with a \
                         writer; overlapping windows cannot be proven disjoint",
                        a.dat,
                        route_label(a),
                        route_label(b)
                    ),
                ));
            } else if same_route
                && a.access.writes()
                && b.access.writes()
                && (a.access != Access::Inc || b.access != Access::Inc)
            {
                out.push(Diagnostic::error(
                    "plan/alias",
                    name.clone(),
                    format!(
                        "dat '{}' is written twice through the same route with \
                         non-INC access; the two stores are unordered",
                        a.dat
                    ),
                ));
            }
        }
    }

    // Registry cross-checks.
    if let Some(r) = reg {
        if r.set(&plan.decl.iter_set).is_none() && plan.decl.iter_set != "<direct>" {
            out.push(Diagnostic::warn(
                "set/unknown",
                name.clone(),
                format!("iteration set '{}' is not declared", plan.decl.iter_set),
            ));
        }
        for a in &plan.decl.args {
            check_arg_against_registry(&name, plan, a, r, &mut out);
        }
    }

    out
}

fn route_label(a: &ArgDecl) -> String {
    match a.indirection {
        Indirection::Direct => "direct".to_string(),
        Indirection::Indirect => format!("via {}", a.map),
        Indirection::Double => format!("double via {}", a.map),
    }
}

/// Registry-dependent checks for one argument: known dat, matching
/// dim, known map hops, and a map chain that actually composes from
/// the iteration set to the dat's home set.
fn check_arg_against_registry(
    name: &str,
    plan: &LoopPlan,
    a: &ArgDecl,
    r: &Registry,
    out: &mut Vec<Diagnostic>,
) {
    let dat = match r.dat(&a.dat) {
        Some(d) => d,
        None => {
            out.push(Diagnostic::warn(
                "arg/unknown-dat",
                name.to_string(),
                format!("dat '{}' is not declared", a.dat),
            ));
            return;
        }
    };
    if dat.dim != a.dim {
        out.push(Diagnostic::error(
            "arg/dim-mismatch",
            name.to_string(),
            format!(
                "dat '{}' declared dim {} but the loop argument says {}",
                a.dat, dat.dim, a.dim
            ),
        ));
    }

    if a.indirection == Indirection::Direct {
        if r.set(&plan.decl.iter_set).is_some() && dat.set != plan.decl.iter_set {
            out.push(Diagnostic::error(
                "arg/wrong-set",
                name.to_string(),
                format!(
                    "direct arg '{}' lives on set '{}' but the loop iterates '{}'",
                    a.dat, dat.set, plan.decl.iter_set
                ),
            ));
        }
        return;
    }

    // Indirect: the map field may be a dot-joined chain ("p2c.c2n").
    let hops: Vec<&str> = a.map.split('.').filter(|s| !s.is_empty()).collect();
    let expected_hops = match a.indirection {
        Indirection::Indirect => 1,
        Indirection::Double => 2,
        Indirection::Direct => unreachable!(),
    };
    if hops.len() != expected_hops {
        out.push(Diagnostic::warn(
            "map/hop-count",
            name.to_string(),
            format!(
                "arg '{}' declares {:?} indirection but names {} map hop(s) ('{}')",
                a.dat,
                a.indirection,
                hops.len(),
                a.map
            ),
        ));
    }
    let mut cursor = plan.decl.iter_set.clone();
    for hop in &hops {
        match r.map(hop) {
            None => {
                out.push(Diagnostic::warn(
                    "map/unknown",
                    name.to_string(),
                    format!("map '{hop}' is not declared"),
                ));
                return;
            }
            Some(m) => {
                if r.set(&cursor).is_some() && m.from != cursor {
                    out.push(Diagnostic::error(
                        "map/wrong-source",
                        name.to_string(),
                        format!(
                            "map '{}' maps from '{}' but the chain reaches it from '{}'",
                            m.name, m.from, cursor
                        ),
                    ));
                }
                cursor = m.to.clone();
            }
        }
    }
    if cursor != dat.set {
        out.push(Diagnostic::error(
            "map/wrong-target",
            name.to_string(),
            format!(
                "map chain '{}' ends on set '{}' but dat '{}' lives on '{}'",
                a.map, cursor, a.dat, dat.set
            ),
        ));
    }
}

/// Check every registered plan, aggregating findings into one report.
pub fn check_plans(plans: &PlanRegistry, reg: Option<&Registry>) -> Report {
    let mut report = Report::new();
    for p in plans.plans() {
        report.extend(check_plan(p, reg));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_core::access::LoopDecl;
    use oppic_core::deposit::DepositMethod;
    use oppic_core::parloop::ExecPolicy;

    fn fem_registry() -> Registry {
        let mut r = Registry::new();
        r.decl_set("cells", 10).unwrap();
        r.decl_set("nodes", 8).unwrap();
        r.decl_particle_set("particles", "cells", 0).unwrap();
        r.decl_map("c2n", "cells", "nodes", 4, None).unwrap();
        r.decl_map("p2c", "particles", "cells", 1, None).unwrap();
        r.decl_dat("node_charge", "nodes", 1).unwrap();
        r.decl_dat("efield", "cells", 3).unwrap();
        r.decl_dat("lc", "particles", 4).unwrap();
        r
    }

    fn deposit_decl() -> LoopDecl {
        LoopDecl::new(
            "DepositCharge",
            "particles",
            vec![
                ArgDecl::direct("lc", 4, Access::Read),
                ArgDecl::double_indirect("node_charge", 1, Access::Inc, "p2c.c2n"),
            ],
        )
    }

    #[test]
    fn racy_parallel_inc_is_an_error() {
        let plan = LoopPlan::new(deposit_decl(), &ExecPolicy::Par, RaceStrategy::None);
        let diags = check_plan(&plan, None);
        assert!(diags.iter().any(|d| d.code == "plan/racy-inc"), "{diags:?}");
    }

    #[test]
    fn strategies_and_sequential_clear_the_race_error() {
        for (policy, strat) in [
            (ExecPolicy::Seq, RaceStrategy::None),
            (ExecPolicy::Par, RaceStrategy::Colored),
            (
                ExecPolicy::Par,
                RaceStrategy::Deposit(DepositMethod::Atomics),
            ),
        ] {
            let plan = LoopPlan::new(deposit_decl(), &policy, strat);
            let diags = check_plan(&plan, Some(&fem_registry()));
            assert!(
                !diags.iter().any(|d| d.code == "plan/racy-inc"),
                "{strat:?}: {diags:?}"
            );
        }
    }

    #[test]
    fn deposit_plan_with_aliased_target_still_reports_the_alias() {
        // A hand-built plan that reaches the deposit target through a
        // second route: the race strategy makes the increments safe
        // but must not silence the alias rule — exactly one plan/alias
        // Error.
        let decl = LoopDecl::new(
            "DepositCharge",
            "particles",
            vec![
                ArgDecl::direct("lc", 4, Access::Read),
                ArgDecl::double_indirect("node_charge", 1, Access::Inc, "p2c.c2n"),
                ArgDecl::indirect("node_charge", 1, Access::Read, "p2n"),
            ],
        );
        let plan = LoopPlan::new(
            decl,
            &ExecPolicy::Par,
            RaceStrategy::Deposit(DepositMethod::ScatterArrays),
        );
        let diags = check_plan(&plan, None);
        let aliases: Vec<_> = diags.iter().filter(|d| d.code == "plan/alias").collect();
        assert_eq!(aliases.len(), 1, "{diags:?}");
        assert_eq!(aliases[0].severity, crate::diag::Severity::Error);
    }

    #[test]
    fn serial_deposit_under_parallel_policy_warns() {
        let plan = LoopPlan::new(
            deposit_decl(),
            &ExecPolicy::Par,
            RaceStrategy::Deposit(DepositMethod::Serial),
        );
        let diags = check_plan(&plan, None);
        assert!(
            diags.iter().any(|d| d.code == "plan/serialised-deposit"),
            "{diags:?}"
        );
        assert!(
            !diags
                .iter()
                .any(|d| d.severity == crate::diag::Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn unused_strategy_is_only_info() {
        let decl = LoopDecl::new(
            "CalcPosVel",
            "particles",
            vec![ArgDecl::direct("lc", 4, Access::ReadWrite)],
        );
        let plan = LoopPlan::new(decl, &ExecPolicy::Par, RaceStrategy::Colored);
        let diags = check_plan(&plan, None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "plan/unused-strategy");
        assert_eq!(diags[0].severity, crate::diag::Severity::Info);
    }

    #[test]
    fn indirect_write_from_particle_loop_is_rejected() {
        let decl = LoopDecl::new(
            "BadScatter",
            "particles",
            vec![ArgDecl::indirect("efield", 3, Access::Write, "p2c")],
        );
        let plan = LoopPlan::new(decl, &ExecPolicy::Seq, RaceStrategy::None);
        let diags = check_plan(&plan, Some(&fem_registry()));
        assert!(
            diags.iter().any(|d| d.code == "plan/scattered-write"),
            "{diags:?}"
        );
    }

    #[test]
    fn dim_mismatch_and_unknown_names_are_reported() {
        let reg = fem_registry();
        let decl = LoopDecl::new(
            "Weird",
            "particles",
            vec![
                ArgDecl::direct("lc", 3, Access::Read), // declared dim 4
                ArgDecl::indirect("ghost", 1, Access::Read, "p2c"),
                ArgDecl::double_indirect("node_charge", 1, Access::Inc, "p2c.nope"),
            ],
        );
        let plan = LoopPlan::new(
            decl,
            &ExecPolicy::Seq,
            RaceStrategy::Deposit(DepositMethod::Serial),
        );
        let diags = check_plan(&plan, Some(&reg));
        assert!(
            diags.iter().any(|d| d.code == "arg/dim-mismatch"),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.code == "arg/unknown-dat"),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == "map/unknown"), "{diags:?}");
    }

    #[test]
    fn map_chain_composition_is_checked() {
        let reg = fem_registry();
        // c2n.p2c composes the hops in the wrong order.
        let decl = LoopDecl::new(
            "Backwards",
            "particles",
            vec![ArgDecl::double_indirect(
                "node_charge",
                1,
                Access::Inc,
                "c2n.p2c",
            )],
        );
        let plan = LoopPlan::new(decl, &ExecPolicy::Seq, RaceStrategy::None);
        let diags = check_plan(&plan, Some(&reg));
        assert!(
            diags.iter().any(|d| d.code == "map/wrong-source"),
            "{diags:?}"
        );

        // A single hop that lands on the wrong set for the dat.
        let decl = LoopDecl::new(
            "WrongHome",
            "particles",
            vec![ArgDecl::indirect("node_charge", 1, Access::Read, "p2c")],
        );
        let plan = LoopPlan::new(decl, &ExecPolicy::Seq, RaceStrategy::None);
        let diags = check_plan(&plan, Some(&reg));
        assert!(
            diags.iter().any(|d| d.code == "map/wrong-target"),
            "{diags:?}"
        );
    }

    #[test]
    fn aliasing_routes_with_a_writer_are_rejected() {
        let decl = LoopDecl::new(
            "Alias",
            "cells",
            vec![
                ArgDecl::direct("efield", 3, Access::Write),
                ArgDecl::indirect("efield", 3, Access::Read, "c2c"),
            ],
        );
        let plan = LoopPlan::new(decl, &ExecPolicy::Seq, RaceStrategy::None);
        let diags = check_plan(&plan, None);
        assert!(diags.iter().any(|d| d.code == "plan/alias"), "{diags:?}");

        // Two reads through different routes are fine.
        let decl = LoopDecl::new(
            "Gather",
            "cells",
            vec![
                ArgDecl::direct("efield", 3, Access::Read),
                ArgDecl::indirect("efield", 3, Access::Read, "c2c"),
            ],
        );
        let plan = LoopPlan::new(decl, &ExecPolicy::Seq, RaceStrategy::None);
        assert!(check_plan(&plan, None).is_empty());
    }

    #[test]
    fn whole_registry_check_aggregates() {
        let mut plans = PlanRegistry::new();
        plans.register(LoopPlan::new(
            deposit_decl(),
            &ExecPolicy::Par,
            RaceStrategy::None,
        ));
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "CalcPosVel",
                "particles",
                vec![ArgDecl::direct("lc", 4, Access::Write)],
            ),
            &ExecPolicy::Par,
        ));
        let report = check_plans(&plans, Some(&fem_registry()));
        assert!(report.has_errors());
        assert_eq!(report.with_code("plan/racy-inc").len(), 1);
    }
}
