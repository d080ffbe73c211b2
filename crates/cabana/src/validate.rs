//! `--validate` support: CabanaPIC's loop plans and the three analyzer
//! passes bound to a live engine.
//!
//! Works for both versions: the DSL's `c2c` maps and the structured
//! baseline's index arithmetic are materialised through the same
//! [`Topology::neighbor`] calls, so one audit covers both — exactly the
//! equivalence the paper exploits for its 1e-15 validation.

use crate::common::stencil27;
use crate::engine::{CabanaEngine, Topology};
use oppic_analyzer::{
    audit_cell_index, audit_mesh_map, audit_particle_cells, check_plans, shadow_record, Diagnostic,
    RaceOptions, Report, Schedule, ShadowRun,
};
use oppic_core::access::{Access, ArgDecl, LoopDecl};
use oppic_core::decl::Registry;
use oppic_core::plan::{LoopPlan, PlanRegistry, RaceStrategy};
use oppic_core::DepositMethod;

impl<T: Topology> CabanaEngine<T> {
    /// The six per-axis face neighbours of every cell, materialised
    /// through the topology — for the DSL version this is the stored
    /// map itself; for the structured baseline it is the same relation
    /// computed on the fly.
    pub fn materialise_c2c(&self) -> Vec<i32> {
        let nc = self.geom.n_cells();
        let mut data = Vec::with_capacity(nc * 6);
        for c in 0..nc {
            for axis in 0..3 {
                for dir in [-1i32, 1] {
                    data.push(self.topo.neighbor(c, axis, dir) as i32);
                }
            }
        }
        data
    }

    /// The setup-time `c2c27` stencil map, flattened to the analyzer's
    /// `i32` map payload.
    fn c2c27_payload(&self) -> Vec<i32> {
        self.c2c27.iter().flatten().map(|&c| c as i32).collect()
    }

    /// Every `c2c27` entry against the chain of `c2c` hops it stands
    /// for (x, then y, then z). `c2c` must already be in range.
    fn audit_stencil_chains(&self, c2c: &[i32]) -> Vec<Diagnostic> {
        let hop =
            |c: usize, axis: usize, dir: i32| c2c[c * 6 + axis * 2 + usize::from(dir > 0)] as usize;
        let mut out = Vec::new();
        let mut bad = 0usize;
        for (c, row) in self.c2c27.iter().enumerate() {
            let chained = stencil27(c, hop);
            for (slot, (&got, &want)) in row.iter().zip(&chained).enumerate() {
                if got as usize != want {
                    bad += 1;
                    if bad <= 5 {
                        out.push(Diagnostic::error(
                            "map/stencil-mismatch",
                            "c2c27",
                            format!("cell {c} slot {slot} = {got}, chained c2c hops reach {want}"),
                        ));
                    }
                }
            }
        }
        if bad > 5 {
            out.push(Diagnostic::error(
                "map/stencil-mismatch",
                "c2c27",
                format!("...and {} more mismatched entries", bad - 5),
            ));
        }
        if bad == 0 {
            out.push(Diagnostic::info(
                "map/stencil-ok",
                "c2c27",
                format!(
                    "{} entries equal their chained c2c hops",
                    self.c2c27.len() * 27
                ),
            ));
        }
        out
    }

    /// Sets, maps and dats of the CabanaPIC arrangement ("9 DOFs per
    /// cell and 7 DOFs per particle"), as currently sized.
    pub fn decl_registry(&self) -> Registry {
        let mut r = Registry::new();
        let nc = self.geom.n_cells();
        r.decl_set("cells", nc).expect("fresh registry");
        r.decl_particle_set("particles", "cells", self.ps.len())
            .expect("fresh registry");
        let c2c = self.materialise_c2c();
        r.decl_map("c2c", "cells", "cells", 6, Some(&c2c))
            .expect("c2c is in range");
        r.decl_map("c2c27", "cells", "cells", 27, Some(&self.c2c27_payload()))
            .expect("c2c27 is in range");
        r.decl_map("p2c", "particles", "cells", 1, None)
            .expect("fresh registry");
        for name in ["E", "B", "J", "interp E", "interp B", "acc"] {
            r.decl_dat(name, "cells", 3).expect("fresh registry");
        }
        r.decl_dat("pos", "particles", 3).expect("fresh registry");
        r.decl_dat("vel", "particles", 3).expect("fresh registry");
        r.decl_dat("weight", "particles", 1)
            .expect("fresh registry");
        r
    }

    /// Every loop of the Figure 9(b) step, with the executor and race
    /// strategy the engine actually uses.
    pub fn loop_plans(&self) -> PlanRegistry {
        let policy = &self.cfg.policy;
        let mut plans = PlanRegistry::new();
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "Interpolate",
                "cells",
                vec![
                    ArgDecl::direct("E", 3, Access::Read),
                    ArgDecl::direct("B", 3, Access::Read),
                    ArgDecl::direct("interp E", 3, Access::Write),
                    ArgDecl::direct("interp B", 3, Access::Write),
                ],
            ),
            policy,
        ));
        // The fused mover: trilinear gathers read the corner cells
        // through p2c∘c2c27, the current deposit increments the
        // accumulator of every crossed cell (p2c∘c2c) through scatter
        // arrays.
        plans.register(LoopPlan::new(
            LoopDecl::new(
                "Move_Deposit",
                "particles",
                vec![
                    ArgDecl::direct("pos", 3, Access::ReadWrite),
                    ArgDecl::direct("vel", 3, Access::ReadWrite),
                    ArgDecl::direct("weight", 1, Access::Read),
                    ArgDecl::double_indirect("interp E", 3, Access::Read, "p2c.c2c27"),
                    ArgDecl::double_indirect("interp B", 3, Access::Read, "p2c.c2c27"),
                    ArgDecl::double_indirect("acc", 3, Access::Inc, "p2c.c2c"),
                ],
            ),
            policy,
            RaceStrategy::Deposit(DepositMethod::ScatterArrays),
        ));
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "AccumulateCurrent",
                "cells",
                vec![
                    ArgDecl::direct("J", 3, Access::Write),
                    ArgDecl::direct("acc", 3, Access::ReadWrite),
                ],
            ),
            policy,
        ));
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "AdvanceB",
                "cells",
                vec![
                    ArgDecl::direct("B", 3, Access::ReadWrite),
                    ArgDecl::indirect("E", 3, Access::Read, "c2c"),
                ],
            ),
            policy,
        ));
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "AdvanceE",
                "cells",
                vec![
                    ArgDecl::direct("E", 3, Access::ReadWrite),
                    ArgDecl::indirect("B", 3, Access::Read, "c2c"),
                    ArgDecl::direct("J", 3, Access::Read),
                ],
            ),
            policy,
        ));
        plans
    }

    /// Pass 3: periodic topology bounds, the setup-time stencil map,
    /// plus the dynamic particle→cell map.
    pub fn audit_maps(&self) -> Report {
        let nc = self.geom.n_cells();
        let mut report = Report::new();
        let c2c = self.materialise_c2c();
        // Periodic boundaries: every neighbour must resolve in-range,
        // no boundary sentinels allowed.
        report.extend(audit_mesh_map("c2c", &c2c, nc, 6, nc, false));
        report.extend(audit_mesh_map(
            "c2c27",
            &self.c2c27_payload(),
            nc,
            27,
            nc,
            false,
        ));
        // The gather trusts each c2c27 entry to be the corner the
        // chained face hops reach; chains need an in-range c2c.
        if !report.has_errors() {
            report.extend(self.audit_stencil_chains(&c2c));
        }
        report.extend(audit_particle_cells("p2c", self.ps.cells(), nc));
        // Whenever the CSR cell index claims freshness a binding may be
        // cut from it — cross-check it against the live cell column.
        if self.ps.index_is_fresh() {
            report.extend(audit_cell_index(
                "p2c-index",
                self.ps.cell_index_raw().expect("fresh index has offsets"),
                self.ps.cells(),
                nc,
            ));
        }
        report
    }

    /// Pass 2: replay the Move_Deposit footprint (gather from the home
    /// cell, current increment into the accumulator) and check it
    /// under the engine's schedule.
    pub fn shadow_move_deposit(&self) -> Report {
        let mut report = Report::new();
        let cells = self.ps.cells();
        let run = shadow_record(self.ps.len(), |i, ctx| {
            let c = cells[i] as usize;
            ctx.read("interp E", c);
            ctx.read("interp B", c);
            ctx.inc("acc", c);
        });
        let parallel = self.cfg.policy.is_parallel();
        let races = if parallel {
            // Scatter arrays: each worker piece increments a private
            // array, reduced in piece order after the loop, so
            // increment–increment pairs never touch shared memory.
            let opts = RaceOptions {
                inc_is_synchronised: true,
                ..Default::default()
            };
            run.detect_races(Schedule::AllParallel, &opts)
        } else {
            run.detect_races(Schedule::Sequential, &RaceOptions::default())
        };
        report.extend(ShadowRun::races_to_diagnostics("Move_Deposit", &races));
        if parallel && self.ps.len() > 1 {
            let unsafe_races = run.detect_races(Schedule::AllParallel, &RaceOptions::default());
            report.push(Diagnostic::info(
                "race/control",
                "Move_Deposit",
                format!(
                    "shadow replay of {} particles ({} touches): {} conflict(s) with plain \
                     shared increments, {} with privatised (scatter-array) increments",
                    run.n_iters(),
                    run.n_touches(),
                    unsafe_races.len(),
                    races.len()
                ),
            ));
        }
        report
    }

    /// All three passes against the current state.
    pub fn validate_all(&self) -> Report {
        let reg = self.decl_registry();
        let mut report = check_plans(&self.loop_plans(), Some(&reg));
        report.merge(self.audit_maps());
        report.merge(self.shadow_move_deposit());
        report
    }
}

#[cfg(test)]
mod tests {
    use crate::config::CabanaConfig;
    use crate::dsl::CabanaPic;
    use crate::structured::StructuredCabana;
    use oppic_core::ExecPolicy;
    use oppic_mesh::HexMesh;

    #[test]
    fn shipped_configs_validate_cleanly() {
        let mut dsl = CabanaPic::new_dsl(CabanaConfig::tiny());
        dsl.run(3);
        let report = dsl.validate_all();
        assert!(!report.has_errors(), "dsl:\n{report}");

        let mut cfg = CabanaConfig::tiny();
        cfg.policy = ExecPolicy::Par;
        let mut structured = StructuredCabana::new_structured(cfg);
        structured.run(3);
        let report = structured.validate_all();
        assert!(!report.has_errors(), "structured:\n{report}");
    }

    #[test]
    fn both_topologies_materialise_the_same_map() {
        let dsl = CabanaPic::new_dsl(CabanaConfig::tiny());
        let structured = StructuredCabana::new_structured(CabanaConfig::tiny());
        assert_eq!(dsl.materialise_c2c(), structured.materialise_c2c());
    }

    #[test]
    fn both_topologies_build_the_same_stencil_map() {
        let cfg = CabanaConfig::tiny();
        let dsl = CabanaPic::new_dsl(cfg.clone());
        let structured = StructuredCabana::new_structured(cfg.clone());
        assert_eq!(dsl.c2c27, structured.c2c27);
        // ...and the mesh generator's own 3×3×3 map agrees.
        let mesh = HexMesh::periodic_box(cfg.nx, cfg.ny, cfg.nz, cfg.dx, cfg.dy, cfg.dz);
        let from_mesh: Vec<[u32; 27]> = mesh.c2c27.iter().map(|r| r.map(|c| c as u32)).collect();
        assert_eq!(dsl.c2c27, from_mesh);
    }

    #[test]
    fn map_audit_flags_a_corrupted_stencil_entry() {
        let mut sim = StructuredCabana::new_structured(CabanaConfig::tiny());
        let clean = sim.audit_maps();
        assert!(!clean.has_errors(), "{clean}");
        assert_eq!(clean.with_code("map/stencil-ok").len(), 1, "{clean}");
        // An in-range entry pointing at the wrong cell.
        let (c, slot) = (5, 26);
        sim.c2c27[c][slot] = sim.c2c27[c][13];
        let report = sim.audit_maps();
        assert!(report.has_errors());
        let bad = report.with_code("map/stencil-mismatch");
        assert_eq!(bad.len(), 1, "{report}");
        assert!(bad[0].message.contains("cell 5 slot 26"), "{report}");
    }

    #[test]
    fn fresh_cell_index_is_audited_and_clean() {
        let mut sim = StructuredCabana::new_structured(CabanaConfig::tiny());
        sim.run(3);
        let nc = sim.geom.n_cells();
        sim.ps.sort_by_cell(nc);
        let report = sim.validate_all();
        assert!(!report.has_errors(), "{report}");
        assert!(!report.with_code("index/ok").is_empty(), "{report}");
    }

    #[test]
    fn cell_index_audit_catches_a_lying_index() {
        let mut sim = CabanaPic::new_dsl(CabanaConfig::tiny());
        sim.run(2);
        let nc = sim.geom.n_cells();
        sim.ps.sort_by_cell(nc);
        let last = sim.ps.len() - 1;
        assert_ne!(sim.ps.cells()[0], sim.ps.cells()[last]);
        sim.ps.cells_mut().swap(0, last);
        sim.ps.refine_dirty(0); // claim nothing changed
        assert!(sim.ps.index_is_fresh());
        let report = sim.audit_maps();
        assert!(report.has_errors());
        assert!(!report.with_code("index/mismatch").is_empty(), "{report}");
    }

    #[test]
    fn map_audit_flags_corrupted_particle_cells() {
        let mut sim = CabanaPic::new_dsl(CabanaConfig::tiny());
        sim.run(2);
        let nc = sim.geom.n_cells() as i32;
        sim.ps.cells_mut()[0] = nc + 7;
        let report = sim.audit_maps();
        assert!(report.has_errors());
        assert!(
            !report.with_code("pmap/out-of-range").is_empty(),
            "{report}"
        );
    }
}
