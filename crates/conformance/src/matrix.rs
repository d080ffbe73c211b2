//! The backend matrix: every axis the paper claims equivalence over,
//! mapped to this repo's analogue execution paths.
//!
//! A [`CellConfig`] names one point of the matrix — application ×
//! execution policy × deposit method × mover × runtime substrate —
//! plus the run size (steps, particles) and seed. The matrix runner
//! executes each cell and compares it against the reference cell of
//! its comparison class (see [`crate::runner`]).

use oppic_core::{DepositMethod, ExecPolicy};
use std::fmt;

/// Which application the cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Mini-FEM-PIC on the tetrahedral duct.
    FemPic,
    /// CabanaPIC two-stream on the structured grid.
    Cabana,
}

impl App {
    pub const ALL: [App; 2] = [App::FemPic, App::Cabana];

    /// The spelling in cell ids and reproducers.
    pub fn name(self) -> &'static str {
        match self {
            App::FemPic => "fempic",
            App::Cabana => "cabana",
        }
    }

    pub fn parse(name: &str) -> Option<App> {
        Self::ALL.into_iter().find(|v| v.name() == name)
    }
}

/// Execution policy axis (the OpenMP-backend analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Seq,
    Pool2,
    Pool4,
}

impl Exec {
    pub const ALL: [Exec; 3] = [Exec::Seq, Exec::Pool2, Exec::Pool4];

    /// The spelling in cell ids and reproducers.
    pub fn name(self) -> &'static str {
        match self {
            Exec::Seq => "seq",
            Exec::Pool2 => "pool2",
            Exec::Pool4 => "pool4",
        }
    }

    pub fn parse(name: &str) -> Option<Exec> {
        Self::ALL.into_iter().find(|v| v.name() == name)
    }

    pub fn policy(self) -> ExecPolicy {
        match self {
            Exec::Seq => ExecPolicy::Seq,
            Exec::Pool2 => ExecPolicy::pool(2),
            Exec::Pool4 => ExecPolicy::pool(4),
        }
    }
}

/// Particle relocation axis (Mini-FEM-PIC only; CabanaPIC's fused
/// `Move_Deposit` has a single mover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mover {
    MultiHop,
    DirectHop,
}

impl Mover {
    pub const ALL: [Mover; 2] = [Mover::MultiHop, Mover::DirectHop];

    /// The spelling in cell ids and reproducers.
    pub fn name(self) -> &'static str {
        match self {
            Mover::MultiHop => "mh",
            Mover::DirectHop => "dh",
        }
    }

    pub fn parse(name: &str) -> Option<Mover> {
        Self::ALL.into_iter().find(|v| v.name() == name)
    }
}

/// Runtime substrate axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Plain host execution.
    Host,
    /// The deposit scatter routed through the `oppic-device` SIMT
    /// model (CAS-exact atomics, divergence/collision accounting).
    DeviceModel,
    /// In-process MPI ranks (`oppic-mpi::world_run`) with particle
    /// migration and replicated-field reductions.
    Mpi(usize),
}

/// Deliberate fault injection for the harness's own mutation smoke
/// tests: proves a deposit bug is caught and shrunk. Never part of the
/// shipped matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// After every step, subtract half of one particle's charge from
    /// node 0 — the lost-update bug class a racy deposit produces.
    DepositLostUpdate,
}

/// One point of the backend matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    pub app: App,
    pub exec: Exec,
    /// Deposit race strategy (Mini-FEM-PIC only; ignored by CabanaPIC,
    /// whose `Move_Deposit` adds the current through `par_loop_scatter`:
    /// one scatter array per piece, reduced in piece order).
    pub deposit: DepositMethod,
    pub mover: Mover,
    pub runtime: Runtime,
    /// Rebuild the CSR cell index every step (the gather-side sort —
    /// permutes the particle array).
    pub sort_always: bool,
    /// Persistent particle-thread binding (DESIGN.md §12): per-worker
    /// cell-block ranges kept across steps. Element writes stay
    /// slot-local, so binding-on is a bit-identity promise against the
    /// same configuration with the binding off.
    pub binding: bool,
    pub steps: usize,
    /// Injection rate per step (Mini-FEM-PIC) or particles per cell
    /// (CabanaPIC).
    pub particles: usize,
    pub seed: u64,
    pub mutation: Option<Mutation>,
}

impl CellConfig {
    /// The sequential/Serial reference configuration every host-class
    /// cell of `app` is compared against.
    pub fn reference(app: App) -> CellConfig {
        CellConfig {
            app,
            exec: Exec::Seq,
            deposit: DepositMethod::Serial,
            mover: Mover::MultiHop,
            runtime: Runtime::Host,
            sort_always: false,
            binding: false,
            steps: 3,
            particles: match app {
                App::FemPic => 40,
                App::Cabana => 8,
            },
            seed: 0xC0FF0,
            mutation: None,
        }
    }

    /// The reference this cell is differenced against: host and
    /// device-model cells share the sequential/Serial host reference;
    /// an MPI cell's reference is the same driver on a single rank
    /// (per-rank injection streams make per-node state incomparable
    /// across rank counts — see DESIGN.md).
    pub fn reference_for(&self) -> CellConfig {
        let mut r = CellConfig::reference(self.app);
        r.steps = self.steps;
        r.particles = self.particles;
        r.seed = self.seed;
        if let Runtime::Mpi(_) = self.runtime {
            r.runtime = Runtime::Mpi(1);
            r.mover = self.mover;
        }
        r
    }

    /// Stable identifier, used for telemetry counters, reporting, and
    /// reproducer file names.
    pub fn id(&self) -> String {
        let runtime = match self.runtime {
            Runtime::Host => "host".to_string(),
            Runtime::DeviceModel => "device".to_string(),
            Runtime::Mpi(r) => format!("mpi{r}"),
        };
        let sort = if self.sort_always { "-sorted" } else { "" };
        let bind = if self.binding { "-bind" } else { "" };
        let mutated = if self.mutation.is_some() {
            "-mutated"
        } else {
            ""
        };
        format!(
            "{}-{}-{}-{}-{runtime}{sort}{bind}{mutated}",
            self.app.name(),
            self.exec.name(),
            self.deposit.label().to_lowercase(),
            self.mover.name()
        )
    }
}

impl fmt::Display for CellConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (steps={}, particles={}, seed={:#x})",
            self.id(),
            self.steps,
            self.particles,
            self.seed
        )
    }
}

/// The CI smoke subset: ≥ 24 cells spanning every axis at least once.
pub fn quick_matrix() -> Vec<CellConfig> {
    let mut cells = Vec::new();
    let fem = CellConfig::reference(App::FemPic);
    let cab = CellConfig::reference(App::Cabana);

    // FEM-PIC host: every deposit method under Seq, both movers.
    for deposit in [
        DepositMethod::Serial,
        DepositMethod::ScatterArrays,
        DepositMethod::Atomics,
    ] {
        for mover in [Mover::MultiHop, Mover::DirectHop] {
            cells.push(CellConfig {
                deposit,
                mover,
                ..fem.clone()
            });
        }
    }
    // FEM-PIC host: parallel pools (multi-hop).
    for deposit in [
        DepositMethod::Serial,
        DepositMethod::ScatterArrays,
        DepositMethod::Atomics,
    ] {
        cells.push(CellConfig {
            exec: Exec::Pool2,
            deposit,
            ..fem.clone()
        });
    }
    cells.push(CellConfig {
        exec: Exec::Pool4,
        deposit: DepositMethod::ScatterArrays,
        ..fem.clone()
    });
    // FEM-PIC on a store sorted every step.
    cells.push(CellConfig {
        exec: Exec::Pool2,
        deposit: DepositMethod::ScatterArrays,
        sort_always: true,
        ..fem.clone()
    });
    // FEM-PIC device model and MPI.
    cells.push(CellConfig {
        runtime: Runtime::DeviceModel,
        ..fem.clone()
    });
    for ranks in [1, 2] {
        cells.push(CellConfig {
            runtime: Runtime::Mpi(ranks),
            ..fem.clone()
        });
    }
    // Persistent binding: once under Seq (bit-identity oracle against
    // the Serial reference) and once under a real pool (the runner's
    // binding-off twin check asserts bit-identity there).
    cells.push(CellConfig {
        binding: true,
        ..fem.clone()
    });
    cells.push(CellConfig {
        exec: Exec::Pool2,
        binding: true,
        ..fem.clone()
    });
    // CabanaPIC host: policies × sort.
    for exec in [Exec::Seq, Exec::Pool2, Exec::Pool4] {
        for sort_always in [false, true] {
            cells.push(CellConfig {
                exec,
                sort_always,
                ..cab.clone()
            });
        }
    }
    // CabanaPIC binding (the bound mover; Seq gets the bit-identity
    // oracle, the pool relies on the field oracle: each pool run is
    // deterministic, but the binding cuts its scatter pieces by worker
    // spans, so its reduced current differs in the last bits from the
    // unbound mover's).
    for exec in [Exec::Seq, Exec::Pool2] {
        cells.push(CellConfig {
            exec,
            binding: true,
            ..cab.clone()
        });
    }
    // CabanaPIC MPI.
    for ranks in [1, 2] {
        cells.push(CellConfig {
            runtime: Runtime::Mpi(ranks),
            ..cab.clone()
        });
    }
    cells
}

/// The full matrix: {Seq, pool(2), pool(4)} × deposit methods ×
/// movers × runtimes for Mini-FEM-PIC, plus the CabanaPIC axes.
pub fn full_matrix() -> Vec<CellConfig> {
    let mut cells = Vec::new();
    let mut fem = CellConfig::reference(App::FemPic);
    fem.steps = 5;
    let mut cab = CellConfig::reference(App::Cabana);
    cab.steps = 5;

    for exec in [Exec::Seq, Exec::Pool2, Exec::Pool4] {
        for deposit in [
            DepositMethod::Serial,
            DepositMethod::ScatterArrays,
            DepositMethod::Atomics,
        ] {
            for mover in [Mover::MultiHop, Mover::DirectHop] {
                cells.push(CellConfig {
                    exec,
                    deposit,
                    mover,
                    ..fem.clone()
                });
            }
        }
    }
    // Persistent binding × sort × deposit: the binding freezes worker
    // ranges while the gather-side sort permutes the store underneath
    // them, so every deposit method must hold up under both.
    for deposit in [
        DepositMethod::Serial,
        DepositMethod::ScatterArrays,
        DepositMethod::Atomics,
    ] {
        for sort_always in [false, true] {
            cells.push(CellConfig {
                exec: Exec::Pool2,
                deposit,
                sort_always,
                binding: true,
                ..fem.clone()
            });
        }
    }
    // Device model (policy is the warp engine's own, movers differ).
    for mover in [Mover::MultiHop, Mover::DirectHop] {
        cells.push(CellConfig {
            runtime: Runtime::DeviceModel,
            mover,
            ..fem.clone()
        });
    }
    // MPI ranks × movers.
    for ranks in [1, 2, 4] {
        for mover in [Mover::MultiHop, Mover::DirectHop] {
            cells.push(CellConfig {
                runtime: Runtime::Mpi(ranks),
                mover,
                ..fem.clone()
            });
        }
    }
    // CabanaPIC: policies × sort (binding-off and binding-on), then
    // MPI.
    for exec in [Exec::Seq, Exec::Pool2, Exec::Pool4] {
        for sort_always in [false, true] {
            for binding in [false, true] {
                cells.push(CellConfig {
                    exec,
                    sort_always,
                    binding,
                    ..cab.clone()
                });
            }
        }
    }
    for ranks in [1, 2, 4] {
        cells.push(CellConfig {
            runtime: Runtime::Mpi(ranks),
            ..cab.clone()
        });
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_covers_at_least_24_cells_and_every_axis() {
        let cells = quick_matrix();
        assert!(cells.len() >= 24, "only {} cells", cells.len());
        assert!(cells.iter().any(|c| c.app == App::Cabana));
        assert!(cells.iter().any(|c| c.exec == Exec::Pool4));
        assert!(cells.iter().any(|c| c.runtime == Runtime::DeviceModel));
        assert!(cells.iter().any(|c| matches!(c.runtime, Runtime::Mpi(2))));
        assert!(cells.iter().any(|c| c.mover == Mover::DirectHop));
        assert!(
            cells.iter().any(|c| c.sort_always && c.app == App::FemPic),
            "the quick matrix must run FemPIC on a sorted store"
        );
        assert!(
            cells.iter().any(|c| c.binding && c.app == App::FemPic),
            "the quick matrix must exercise the persistent-binding axis"
        );
        assert!(
            cells.iter().any(|c| c.binding && c.app == App::Cabana),
            "the quick matrix must exercise the CabanaPIC binding axis"
        );
        // Cell ids are unique (they key telemetry counters and files).
        let mut ids: Vec<String> = cells.iter().map(CellConfig::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn full_matrix_is_a_superset_of_the_axes() {
        let cells = full_matrix();
        assert!(cells.len() > quick_matrix().len());
        assert!(cells
            .iter()
            .any(|c| c.runtime == Runtime::Mpi(4) && c.app == App::FemPic));
        assert!(cells
            .iter()
            .any(|c| c.exec == Exec::Pool4 && c.mover == Mover::DirectHop));
        // The tentpole crossing: binding × sort × every deposit method.
        for deposit in [
            DepositMethod::Serial,
            DepositMethod::ScatterArrays,
            DepositMethod::Atomics,
        ] {
            for sort_always in [false, true] {
                assert!(
                    cells
                        .iter()
                        .any(|c| c.binding && c.sort_always == sort_always && c.deposit == deposit),
                    "full matrix misses binding × sort={sort_always} × {deposit:?}"
                );
            }
        }
    }

    #[test]
    fn binding_axis_names_the_cell_id() {
        let mut cell = CellConfig::reference(App::FemPic);
        cell.binding = true;
        assert!(cell.id().ends_with("-bind"), "{}", cell.id());
        // The reference strips the axis: promise cells difference
        // against the plain unbound run.
        let r = cell.reference_for();
        assert!(!r.binding);
    }

    #[test]
    fn mpi_cells_reference_a_single_rank_run() {
        let mut cell = CellConfig::reference(App::FemPic);
        cell.runtime = Runtime::Mpi(4);
        cell.exec = Exec::Pool2;
        let r = cell.reference_for();
        assert_eq!(r.runtime, Runtime::Mpi(1));
        assert_eq!(r.exec, Exec::Seq);
        // Host cells reference the plain host run.
        let host = CellConfig::reference(App::FemPic).reference_for();
        assert_eq!(host.runtime, Runtime::Host);
    }
}
