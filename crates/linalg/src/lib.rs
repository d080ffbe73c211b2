//! # oppic-linalg — sparse linear algebra substrate
//!
//! Mini-FEM-PIC in the paper assembles a finite-element system
//! (`ComputeJMatrix`, `ComputeF1Vector`) and hands it to a **PETSc KSP**
//! solver. This crate is the PETSc substitute documented in DESIGN.md:
//!
//! * [`csr`] — a compressed-sparse-row matrix with a two-phase
//!   (triplet insert → freeze) builder, parallel SpMV, and Dirichlet
//!   row/column elimination.
//! * [`direct`] — the replicated field solve: reverse Cuthill–McKee
//!   ordering and an envelope Cholesky factor built once at setup, then
//!   a forward and a back sweep per solve (a solve-only KSP with a
//!   Cholesky preconditioner, the usual choice for a small SPD operator
//!   that never changes).
//! * [`cg`] — Jacobi-preconditioned Conjugate Gradient, the building
//!   block of the distributed field solve (`oppic-mpi`'s
//!   `cg_solve_distributed`), where no rank holds the whole matrix.
//! * [`dense`] — small dense helpers used by tests and by element
//!   assembly (4×4 element stiffness blocks).

pub mod cg;
pub mod csr;
pub mod dense;
pub mod direct;

pub use cg::{cg_solve, CgConfig, CgOutcome, CgStop};
pub use csr::{CsrBuilder, CsrMatrix};
pub use direct::{rcm_order, EnvelopeCholesky, FactorError};
