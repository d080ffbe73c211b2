//! # oppic-fempic — Mini-FEM-PIC on the OP-PIC DSL
//!
//! A from-scratch Rust implementation of the paper's first application:
//! "a sequential electrostatic 3D unstructured-mesh finite element PIC
//! code ... based on tetrahedral mesh cells, nodes, and faces forming a
//! duct. Faces on one end of the duct are designated as inlet faces and
//! the outer wall is fixed at a higher potential to retain the ions
//! within the duct. Charged particles are injected at a constant rate
//! from the inlet faces ... at a fixed velocity, and the particles move
//! through the duct under the influence of the electric field. The
//! particles are removed when they leave the boundary face."
//!
//! The per-step kernels carry the paper's names, so the benchmark
//! harness reproduces the Figure 9(a) breakdown directly:
//!
//! | routine              | role                                         |
//! |----------------------|----------------------------------------------|
//! | `Inject`             | inlet-face particle injection                |
//! | `CalcPosVel`         | leap-frog position/velocity update           |
//! | `Move`               | barycentric multi-hop / direct-hop relocation |
//! | `DepositCharge`      | particle charge → nodes (double indirection) |
//! | `ComputeNodeChargeDensity` | lumped charge → density              |
//! | `ComputeJMatrix`     | FEM stiffness assembly + Cholesky factor (once) |
//! | `ComputeF1Vector`    | FEM right-hand side                          |
//! | `SolvePotential`     | two triangular sweeps (distributed: Jacobi-PCG) |
//! | `ComputeElectricField` | E = −∇φ per cell                           |

pub mod collisions;
pub mod config;
pub mod conform;
pub mod distributed;
pub mod fields;
pub mod schedule;
pub mod sim;
pub mod validate;

pub use collisions::{collide, CollisionModel, CollisionStats};
pub use config::{FemPicConfig, Integrator, MoveStrategy};
pub use distributed::DistributedSolve;
pub use fields::{FemSolver, SolveError};
pub use schedule::record_schedule;
pub use sim::{FemPic, StepDiagnostics, BARY_TOL};
