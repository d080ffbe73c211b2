//! Quickstart: the OP-PIC API tour, mirroring Figure 4/5/6 of the
//! paper on a small tetrahedral duct.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Shows the whole DSL surface: set/map/dat declarations, a direct
//! loop over mesh cells, a particle loop with a double-indirect
//! increment (charge deposit), and the particle-move loop with both
//! multi-hop and direct-hop strategies.

use op_pic::core::decl::Registry;
use op_pic::core::{DepositMethod, ExecPolicy, Fixed, ParticleDats};
use op_pic::mesh::geometry::{bary_inside, bary_min_index, barycentric, sample_tet};
use op_pic::mesh::{StructuredOverlay, TetMesh, Vec3};
use oppic_core::{opp_deposit, opp_par_loop, opp_particle_move};

fn main() {
    // ---------------------------------------------------------------
    // 1. Declare the mesh — opp_decl_set / opp_decl_map (Figure 4).
    // ---------------------------------------------------------------
    let mesh = TetMesh::duct(4, 4, 4, 2.0, 1.0, 1.0);
    println!(
        "duct: {} tet cells, {} nodes",
        mesh.n_cells(),
        mesh.n_nodes()
    );

    // The declaration registry mirrors the paper's API and validates
    // the topology (sizes, arities, map ranges).
    let mut reg = Registry::new();
    reg.decl_set("nodes", mesh.n_nodes()).unwrap();
    reg.decl_set("cells", mesh.n_cells()).unwrap();
    reg.decl_particle_set("particles", "cells", 0).unwrap();
    let c2n_flat: Vec<i32> = mesh.c2n.iter().flatten().map(|&n| n as i32).collect();
    reg.decl_map("cell_to_nodes_map", "cells", "nodes", 4, Some(&c2n_flat))
        .unwrap();
    let c2c_flat: Vec<i32> = mesh.c2c.iter().flatten().copied().collect();
    reg.decl_map("cell_to_cell_map", "cells", "cells", 4, Some(&c2c_flat))
        .unwrap();
    reg.decl_map("particles_to_cells_index", "particles", "cells", 1, None)
        .unwrap();
    reg.decl_dat("node_charge", "nodes", 1).unwrap();
    reg.decl_dat("cell_value", "cells", 1).unwrap();
    reg.decl_dat("pos", "particles", 3).unwrap();
    println!("\ndeclarations:\n{}", reg.summary());

    // ---------------------------------------------------------------
    // 2. A loop over mesh cells with indirect reads (Figure 5, top).
    // ---------------------------------------------------------------
    let policy = ExecPolicy::Par;
    let node_x = op_pic::core::Dat::from_fn("node x", mesh.n_nodes(), 1, |n, _| mesh.node_pos[n].x);
    let mut cell_value = op_pic::core::Dat::zeros("cell value", mesh.n_cells(), 1);
    let c2n = &mesh.c2n;
    // The paper-style macro front-end (Figure 5): indirect reads are
    // plain captures, the written dat is the loop's argument.
    opp_par_loop!(policy, "ComputeCellValue"; write [out: cell_value]; |c| {
        out[0] = c2n[c].iter().map(|&n| node_x.get(n)).sum::<f64>() / 4.0;
    });
    println!("cell 0 mean node-x = {:.3}", cell_value.get(0));

    // ---------------------------------------------------------------
    // 3. Declare particles and seed them (opp_decl_particle_set).
    // ---------------------------------------------------------------
    let mut ps = ParticleDats::new();
    let pos = ps.decl_dat("pos", 3);
    // The move's written column: barycentric weights of the final cell.
    let lc = ps.decl_dat("lc", 4);
    let n_particles = 5000;
    ps.inject(n_particles, 0);
    // Scatter particles uniformly through the duct, assigning correct
    // cells via brute-force location (setup only).
    let mut state = 12345u64;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..n_particles {
        let c = (rnd() * mesh.n_cells() as f64) as usize % mesh.n_cells();
        let p = sample_tet(&mesh.cell_vertices(c), [rnd(), rnd(), rnd(), rnd()]);
        ps.el_mut(pos, i).copy_from_slice(&[p.x, p.y, p.z]);
        ps.cells_mut()[i] = c as i32;
    }

    // ---------------------------------------------------------------
    // 4. The particle-move loop (Figure 6): drift everything +x and
    //    relocate with multi-hop; out-of-domain particles are removed.
    // ---------------------------------------------------------------
    let dt = 0.3;
    for i in 0..ps.len() {
        ps.el_mut(pos, i)[0] += dt; // push
    }
    let (lc_col, pos_col, cells) = ps.cols_mut2_with_cells_mut(lc, pos);
    // Figure 6's opp_particle_move, macro form: `probe` says
    // OPP_PARTICLE_MOVE_DONE with `true`; `exit`, run after a failed
    // probe, says NEED_MOVE with `Some(next)` and NEED_REMOVE with
    // `None`. The probe leaves the weights in `lc`, where the exit
    // reads them.
    let result = opp_particle_move!(policy, "MoveParticles", cells;
        write Fixed::<4>(lc_col) => l;
        probe |i, cell| {
            let p = Vec3::from_slice(&pos_col[i * 3..i * 3 + 3]);
            *l = barycentric(p, &mesh.cell_vertices(cell));
            bary_inside(l, 1e-10)
        }
        exit |_i, cell| { usize::try_from(mesh.c2c[cell][bary_min_index(l)]).ok() }
    );
    println!(
        "\nmove: {:.2} visits/particle, {} removed at the boundary",
        result.mean_visits(n_particles),
        result.removed.len()
    );
    ps.remove_fill(&result.removed); // the paper's hole-filling

    // Direct-hop flavour: seed the search from a structured overlay.
    let overlay = StructuredOverlay::build(&mesh, [16, 16, 16]);
    println!(
        "direct-hop overlay: {} bytes of bookkeeping",
        overlay.memory_bytes()
    );

    // ---------------------------------------------------------------
    // 5. Double-indirect increment (Figure 5, bottom): deposit charge
    //    to nodes through particles→cells→nodes, race-free under every
    //    strategy of Section 3.3. The kernel returns its particle's
    //    four contributions (the cell's nodes and the charge for each);
    //    the chosen strategy applies them.
    // ---------------------------------------------------------------
    let q = 0.125;
    let mut node_charge = vec![0.0f64; mesh.n_nodes()];
    let cells = ps.cells();
    let pos_col = ps.col(pos);
    opp_deposit!(policy, DepositMethod::SegmentedReduction, "DepositCharge",
    ps.len() => &mut node_charge; |i| {
        let c = cells[i] as usize;
        let p = Vec3::from_slice(&pos_col[i * 3..i * 3 + 3]);
        let w = barycentric(p, &mesh.cell_vertices(c));
        (mesh.c2n[c], w.map(|wk| q * wk))
    });
    let total: f64 = node_charge.iter().sum();
    println!(
        "deposit: total node charge {:.4} == {} particles x {q} = {:.4}",
        total,
        ps.len(),
        ps.len() as f64 * q
    );
    assert!((total - ps.len() as f64 * q).abs() < 1e-9);
    println!("\nquickstart OK");
}
