//! `--validate` support: Mini-FEM-PIC's loop plans and the three
//! analyzer passes (static plan check, shadow race detection, map
//! audits) bound to the live simulation state.

use crate::sim::FemPic;
use oppic_analyzer::{
    audit_cell_index, audit_coloring, audit_mesh_map, audit_particle_cells, check_plans,
    shadow_record, Diagnostic, RaceOptions, Report, Schedule, ShadowRun,
};
use oppic_core::access::{Access, ArgDecl, LoopDecl};
use oppic_core::decl::Registry;
use oppic_core::plan::{LoopPlan, PlanRegistry, RaceStrategy};
use oppic_core::ExecPolicy;
use oppic_mesh::geometry::{barycentric, barycentric_from_map, tet_centroid};

impl FemPic {
    /// The paper's Figure 4 declarations for this app: sets, maps and
    /// dats as currently sized. Rebuilt on demand (cheap; the map
    /// payloads are borrowed only during construction-time checks).
    pub fn decl_registry(&self) -> Registry {
        let mut r = Registry::new();
        let nc = self.mesh.n_cells();
        let nn = self.mesh.n_nodes();
        r.decl_set("cells", nc).expect("fresh registry");
        r.decl_set("nodes", nn).expect("fresh registry");
        r.decl_particle_set("particles", "cells", self.ps.len())
            .expect("fresh registry");
        let c2n: Vec<i32> = self.mesh.c2n.iter().flatten().map(|&n| n as i32).collect();
        r.decl_map("c2n", "cells", "nodes", 4, Some(&c2n))
            .expect("c2n is in range");
        let c2c: Vec<i32> = self.mesh.c2c.iter().flatten().copied().collect();
        r.decl_map("c2c", "cells", "cells", 4, Some(&c2c))
            .expect("c2c is in range");
        r.decl_map("p2c", "particles", "cells", 1, None)
            .expect("fresh registry");
        r.decl_dat(self.node_charge.name(), "nodes", 1)
            .expect("fresh registry");
        r.decl_dat("potential", "nodes", 1).expect("fresh registry");
        r.decl_dat(self.efield.name(), "cells", 3)
            .expect("fresh registry");
        r.decl_dat(self.cell_det.name(), "cells", 16)
            .expect("fresh registry");
        r.decl_dat("pos", "particles", 3).expect("fresh registry");
        r.decl_dat("vel", "particles", 3).expect("fresh registry");
        r.decl_dat("lc", "particles", 4).expect("fresh registry");
        r
    }

    /// Every loop this app runs, with the executor and race strategy
    /// the configuration actually selects — the analyzer's input.
    pub fn loop_plans(&self) -> PlanRegistry {
        let policy = &self.cfg.policy;
        let deposit_strategy = if self.cfg.coloring {
            RaceStrategy::Colored
        } else {
            RaceStrategy::Deposit(self.active_deposit)
        };
        let mut plans = PlanRegistry::new();
        // Inject fills freshly appended particles from a counter-based
        // stream, so it runs under the configured policy like the push.
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "Inject",
                "particles",
                vec![
                    ArgDecl::direct("pos", 3, Access::Write),
                    ArgDecl::direct("vel", 3, Access::Write),
                ],
            ),
            policy,
        ));
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "CalcPosVel",
                "particles",
                vec![
                    ArgDecl::direct("pos", 3, Access::ReadWrite),
                    ArgDecl::direct("vel", 3, Access::ReadWrite),
                    ArgDecl::indirect(self.efield.name(), 3, Access::Read, "p2c"),
                ],
            ),
            policy,
        ));
        // The move evaluates each visited cell's barycentric map and
        // leaves the final cell's weights in `lc`.
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "Move",
                "particles",
                vec![
                    ArgDecl::direct("pos", 3, Access::Read),
                    ArgDecl::indirect(self.cell_det.name(), 16, Access::Read, "p2c"),
                    ArgDecl::direct("lc", 4, Access::Write),
                ],
            ),
            policy,
        ));
        plans.register(LoopPlan::new(
            LoopDecl::new(
                "DepositCharge",
                "particles",
                vec![
                    ArgDecl::direct("lc", 4, Access::Read),
                    ArgDecl::double_indirect(self.node_charge.name(), 1, Access::Inc, "p2c.c2n"),
                ],
            ),
            policy,
            deposit_strategy,
        ));
        // The field-solve group runs in the FEM solver (factored, sequential sweeps).
        // SolvePotential consumes the deposited charge — the dataflow
        // analyzer's witness that the deposit's reduction must have
        // folded every rank's partial sums before the solve reads them.
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "SolvePotential",
                "nodes",
                vec![
                    ArgDecl::direct(self.node_charge.name(), 1, Access::Read),
                    ArgDecl::direct("potential", 1, Access::Write),
                ],
            ),
            &ExecPolicy::Seq,
        ));
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "ComputeElectricField",
                "cells",
                vec![
                    ArgDecl::indirect("potential", 1, Access::Read, "c2n"),
                    ArgDecl::direct(self.efield.name(), 3, Access::Write),
                ],
            ),
            &ExecPolicy::Seq,
        ));
        plans
    }

    /// Every `cell_det` row against the reference [`barycentric`] at
    /// the cell's four vertices and its centroid.
    fn audit_cell_det(&self) -> Diagnostic {
        const TOL: f64 = 1e-12;
        let bad: Vec<usize> = (0..self.mesh.n_cells())
            .filter(|&c| {
                let v = self.mesh.cell_vertices(c);
                let row = self.cell_det.el(c).try_into().expect("16 coefficients");
                let probes = [v[0], v[1], v[2], v[3], tet_centroid(&v)];
                // `<=` also fails on a NaN coefficient.
                !probes.into_iter().all(|p| {
                    let (got, want) = (barycentric_from_map(row, p), barycentric(p, &v));
                    (0..4).all(|k| (got[k] - want[k]).abs() <= TOL)
                })
            })
            .collect();
        let name = self.cell_det.name();
        if bad.is_empty() {
            Diagnostic::info(
                "geom/cell-det-ok",
                name,
                format!(
                    "{} rows reproduce the reference weights at vertices and centroid",
                    self.mesh.n_cells()
                ),
            )
        } else {
            Diagnostic::error(
                "geom/cell-det-mismatch",
                name,
                format!(
                    "{} row(s) off the reference weights by more than {TOL:e}, cells {:?}",
                    bad.len(),
                    &bad[..bad.len().min(5)]
                ),
            )
        }
    }

    /// Pass 3: audit the static mesh maps and the per-cell barycentric
    /// maps, the dynamic particle→cell map, and (when coloring is
    /// enabled) the deposit coloring.
    pub fn audit_maps(&self) -> Report {
        let nc = self.mesh.n_cells();
        let nn = self.mesh.n_nodes();
        let mut report = Report::new();
        let c2n: Vec<i32> = self.mesh.c2n.iter().flatten().map(|&n| n as i32).collect();
        report.extend(audit_mesh_map("c2n", &c2n, nc, 4, nn, false));
        let c2c: Vec<i32> = self.mesh.c2c.iter().flatten().copied().collect();
        report.extend(audit_mesh_map("c2c", &c2c, nc, 4, nc, true));
        report.push(self.audit_cell_det());
        report.extend(audit_particle_cells("p2c", self.ps.cells(), nc));
        if self.ps.index_is_fresh() {
            // A store claiming a fresh CSR index must actually be
            // partitioned by it — the contract cell-aligned bindings
            // rely on.
            report.extend(audit_cell_index(
                "p2c-index",
                self.ps.cell_index_raw().expect("fresh index has offsets"),
                self.ps.cells(),
                nc,
            ));
        }
        if let Some((colors, n_colors)) = &self.cell_colors {
            let targets: Vec<&[usize]> = self.mesh.c2n.iter().map(|nd| nd.as_slice()).collect();
            report.extend(audit_coloring(
                "cell-coloring",
                &targets,
                nn,
                colors,
                *n_colors,
            ));
        }
        report
    }

    /// Pass 2: replay the deposit kernel's footprint over the current
    /// particle population and check it against the schedule the
    /// configuration would run it with.
    pub fn shadow_deposit(&self) -> Report {
        let mut report = Report::new();
        let cells = self.ps.cells();
        let c2n = &self.mesh.c2n;
        let charge_dat = self.node_charge.name();
        let run = shadow_record(self.ps.len(), |i, ctx| {
            ctx.read("lc", i);
            let c = cells[i] as usize;
            for &node in &c2n[c] {
                ctx.inc(charge_dat, node);
            }
        });

        let parallel = self.cfg.policy.is_parallel();
        let races = match (&self.cell_colors, parallel) {
            (_, false) => run.detect_races(Schedule::Sequential, &RaceOptions::default()),
            (Some((colors, _)), true) => {
                // The colored executor barriers between colors and
                // serialises each cell's particles on one worker; the
                // increments themselves are plain — the coloring alone
                // must prevent every conflict.
                let particle_colors: Vec<u32> = cells.iter().map(|&c| colors[c as usize]).collect();
                let groups: Vec<u32> = cells.iter().map(|&c| c as u32).collect();
                run.detect_races(
                    Schedule::ColoredGroups {
                        colors: &particle_colors,
                        groups: &groups,
                    },
                    &RaceOptions::default(),
                )
            }
            (None, true) => {
                if !self.active_deposit.is_race_safe(true) {
                    // Serial method: the executor ignores the parallel
                    // policy, so the effective schedule is sequential.
                    run.detect_races(Schedule::Sequential, &RaceOptions::default())
                } else {
                    // Scatter/atomics/segmented make increments safe.
                    let opts = RaceOptions {
                        inc_is_synchronised: true,
                        ..Default::default()
                    };
                    run.detect_races(Schedule::AllParallel, &opts)
                }
            }
        };
        report.extend(ShadowRun::races_to_diagnostics("DepositCharge", &races));

        // Sensitivity control: without synchronised increments the same
        // recording must conflict as soon as two particles share a node
        // — proof the detector is actually looking.
        if parallel && self.ps.len() > 1 {
            let unsafe_races = run.detect_races(Schedule::AllParallel, &RaceOptions::default());
            report.push(Diagnostic::info(
                "race/control",
                "DepositCharge",
                format!(
                    "shadow replay of {} particles ({} touches): {} conflict(s) without a \
                     race strategy, {} with the configured one",
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
        report.merge(self.shadow_deposit());
        // Dynamic counterpart of the move plan: the engine's own
        // bounds counter must be clean.
        if self.last_move.out_of_range > 0 {
            report.push(Diagnostic::error(
                "pmap/out-of-range",
                "Move",
                format!(
                    "move engine reported {} final cells outside the mesh",
                    self.last_move.out_of_range
                ),
            ));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FemPicConfig;
    use oppic_core::DepositMethod;

    #[test]
    fn shipped_configs_validate_cleanly() {
        for (coloring, deposit, parallel) in [
            (false, DepositMethod::ScatterArrays, true),
            (false, DepositMethod::Atomics, true),
            (true, DepositMethod::Serial, true),
            (false, DepositMethod::Serial, false),
        ] {
            let mut cfg = FemPicConfig::tiny();
            cfg.coloring = coloring;
            cfg.deposit = deposit;
            cfg.policy = if parallel {
                ExecPolicy::Par
            } else {
                ExecPolicy::Seq
            };
            let mut sim = FemPic::new(cfg);
            sim.run(3);
            let report = sim.validate_all();
            assert!(
                !report.has_errors(),
                "coloring={coloring} deposit={deposit:?} parallel={parallel}:\n{report}"
            );
        }
    }

    #[test]
    fn racy_configuration_is_caught_statically() {
        // Hand-build the incoherent plan the config surface refuses to
        // express: a parallel deposit with no strategy at all.
        let cfg = FemPicConfig::tiny();
        let sim = FemPic::new(cfg);
        let mut plans = PlanRegistry::new();
        plans.register(LoopPlan::new(
            LoopDecl::new(
                "DepositCharge",
                "particles",
                vec![ArgDecl::double_indirect(
                    "node charge",
                    1,
                    Access::Inc,
                    "p2c.c2n",
                )],
            ),
            &ExecPolicy::Par,
            RaceStrategy::None,
        ));
        let report = check_plans(&plans, Some(&sim.decl_registry()));
        assert!(report.has_errors());
        assert_eq!(report.with_code("plan/racy-inc").len(), 1);
    }

    #[test]
    fn cell_index_audit_flags_a_corrupted_index() {
        // The colored deposit sorts right before it runs, so the index
        // is fresh after every step.
        let mut cfg = FemPicConfig::tiny();
        cfg.coloring = true;
        cfg.policy = ExecPolicy::Par;
        let mut sim = FemPic::new(cfg);
        sim.run(2);
        assert!(!sim.audit_maps().has_errors());
        // Swap two particles' cells behind the index's back, then
        // clear the dirtiness the accessor recorded: the store now
        // *claims* freshness the audit must disprove.
        let c0 = sim.ps.cells()[0];
        let last = sim.ps.len() - 1;
        let cl = sim.ps.cells()[last];
        assert_ne!(c0, cl, "tiny run keeps a spread of cells");
        {
            let cells = sim.ps.cells_mut();
            cells[0] = cl;
            cells[last] = c0;
        }
        sim.ps.refine_dirty(0); // lie: "nothing changed"
        assert!(sim.ps.index_is_fresh());
        let report = sim.audit_maps();
        assert!(report.has_errors(), "{report}");
        assert!(!report.with_code("index/mismatch").is_empty(), "{report}");
    }

    #[test]
    fn shadow_pass_flags_a_corrupted_coloring() {
        let mut cfg = FemPicConfig::tiny();
        cfg.coloring = true;
        cfg.policy = ExecPolicy::Par;
        let mut sim = FemPic::new(cfg);
        sim.run(2);
        assert!(!sim.shadow_deposit().has_errors());
        // Collapse all colors onto round 0: same-round cells now share
        // nodes and the detector must notice.
        if let Some((colors, _)) = &mut sim.cell_colors {
            colors.iter_mut().for_each(|c| *c = 0);
        }
        let report = sim.shadow_deposit();
        assert!(report.has_errors(), "{report}");
        assert!(!report.with_code("race/conflict").is_empty(), "{report}");
        // The map audit catches the same corruption independently.
        let audit = sim.audit_maps();
        assert!(!audit.with_code("color/conflict").is_empty(), "{audit}");
    }

    #[test]
    fn map_audit_flags_a_corrupted_cell_det_row() {
        let mut sim = FemPic::new(FemPicConfig::tiny());
        let clean = sim.audit_maps();
        assert!(!clean.has_errors(), "{clean}");
        assert_eq!(clean.with_code("geom/cell-det-ok").len(), 1, "{clean}");
        // Nudge one gradient coefficient of one cell by far more than
        // round-off.
        sim.cell_det.el_mut(7)[5] += 1e-9;
        let report = sim.audit_maps();
        let bad = report.with_code("geom/cell-det-mismatch");
        assert_eq!(bad.len(), 1, "{report}");
        assert!(bad[0].message.contains("cells [7]"), "{report}");
        // A NaN coefficient is flagged too.
        sim.cell_det.el_mut(9)[0] = f64::NAN;
        let report = sim.audit_maps();
        let bad = report.with_code("geom/cell-det-mismatch");
        assert!(bad[0].message.contains("cells [7, 9]"), "{report}");
    }

    #[test]
    fn map_audit_flags_dangling_particles() {
        let cfg = FemPicConfig::tiny();
        let mut sim = FemPic::new(cfg);
        sim.run(2);
        sim.ps.cells_mut()[0] = -1;
        let report = sim.audit_maps();
        assert!(report.has_errors());
        assert!(!report.with_code("pmap/dangling").is_empty(), "{report}");
    }
}
