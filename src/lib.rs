//! # OP-PIC (Rust) — an unstructured-mesh particle-in-cell DSL
//!
//! Façade crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of *"OP-PIC — An Unstructured-Mesh Particle-in-Cell
//! DSL for Developing Nuclear Fusion Simulations"* (ICPP 2024).
//!
//! * [`core`] — the DSL: declarations, parallel-loop executors,
//!   deposit strategies, the particle store and move engine.
//! * [`mesh`] — mesh generators, geometry, connectivity, the
//!   direct-hop structured overlay.
//! * [`linalg`] — CSR matrices and the RCM-ordered envelope Cholesky
//!   field solve (the PETSc substitute); Jacobi-PCG is the tests'
//!   oracle.
//! * [`device`] — the SIMT device cost model (the CUDA/HIP substitute).
//! * [`mpi`] — the in-process distributed runtime (the MPI substitute).
//! * [`model`] — machine models, rooflines, scaling/power projections.
//! * [`analyzer`] — the loop-plan checker: static descriptor
//!   validation, shadow race detection, map-invariant audits.
//! * [`obs`] — the live observability plane: flight recorder,
//!   Prometheus-style `/metrics` exporter, merged Chrome-trace
//!   timeline, and the per-step anomaly watchdog.
//! * [`fempic`] / [`cabana`] — the paper's two applications.
//!
//! ```
//! // A miniature end-to-end PIC step through the façade:
//! use op_pic::fempic::{FemPic, FemPicConfig};
//! let mut sim = FemPic::new(FemPicConfig::tiny());
//! let d = sim.step();
//! assert_eq!(d.n_particles, 50);
//! sim.check_invariants().unwrap();
//! ```
pub use oppic_analyzer as analyzer;
pub use oppic_cabana as cabana;
pub use oppic_core as core;
pub use oppic_device as device;
pub use oppic_fempic as fempic;
pub use oppic_linalg as linalg;
pub use oppic_mesh as mesh;
pub use oppic_model as model;
pub use oppic_mpi as mpi;
pub use oppic_obs as obs;
