//! # oppic-mesh — unstructured mesh substrate for OP-PIC
//!
//! This crate provides everything the OP-PIC DSL reproduction needs to
//! stand up an unstructured mesh without external mesh files:
//!
//! * [`geometry`] — small 3-vector algebra, tetrahedron volumes,
//!   barycentric coordinates via signed determinants, bounding boxes.
//! * [`tet`] — a tetrahedral *duct* mesh generator (the Mini-FEM-PIC
//!   domain): a box of hexahedra, each split into six conforming
//!   tetrahedra (Kuhn subdivision), with cell→node and cell→cell
//!   connectivity and classified boundary faces (inlet / outlet / wall).
//! * [`hex`] — a cuboid-cell mesh expressed through *unstructured*
//!   mappings (the CabanaPIC domain): periodic neighbour maps in all
//!   six directions, exactly mirroring what the paper does when it
//!   re-expresses the structured CabanaPIC with OP-PIC maps.
//! * [`connectivity`] — generic builders: shared-face adjacency,
//!   node→cell reverse maps, mesh validation.
//! * [`overlay`] — the structured overlay used by the *direct-hop*
//!   particle move (Section 3.2.2 of the paper): a regular grid mapping
//!   points to the unstructured cell containing them (cell-map). The
//!   paper's rank-map is not built: every rank holds the whole mesh.
//! * [`io`] — a small ASCII mesh format reader/writer standing in for
//!   the paper's HDF5/`.dat` mesh files.

pub mod connectivity;
pub mod entities;
pub mod geometry;
pub mod hex;
pub mod io;
pub mod overlay;
pub mod tet;

pub use entities::{EdgeSet, FaceSet};
pub use geometry::{BoundingBox, Vec3};
pub use hex::HexMesh;
pub use overlay::StructuredOverlay;
pub use tet::{BoundaryKind, TetMesh};
