//! Pass 3 — map-invariant audits.
//!
//! Static mesh maps are validated once at declaration time; the
//! dynamic particle→cell map is rewritten by every `move_loop` and
//! compacted by hole filling, so its invariants can silently rot.
//! These audits re-establish them on demand: every map entry in range
//! for its target set, no dangling particles after hole filling, and
//! colorings that actually separate target-sharing cells.

use crate::diag::{Diagnostic, Report};
use oppic_core::deposit::coloring_is_valid;

/// How many offending entries to cite individually before summarising.
const CITE_LIMIT: usize = 5;

/// Audit a static mesh map (`from_size × arity` entries into
/// `0..to_size`). Negative entries are the boundary convention
/// (`-1` = no neighbour) and are accepted iff `allow_negative`.
pub fn audit_mesh_map(
    name: &str,
    data: &[i32],
    from_size: usize,
    arity: usize,
    to_size: usize,
    allow_negative: bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if data.len() != from_size * arity {
        out.push(Diagnostic::error(
            "map/shape",
            name.to_string(),
            format!(
                "payload has {} entries, expected {} elements × arity {arity}",
                data.len(),
                from_size
            ),
        ));
        return out;
    }
    let mut bad = 0usize;
    for (k, &v) in data.iter().enumerate() {
        let out_of_range = if v < 0 {
            !allow_negative
        } else {
            v as usize >= to_size
        };
        if out_of_range {
            bad += 1;
            if bad <= CITE_LIMIT {
                out.push(Diagnostic::error(
                    "map/out-of-range",
                    name.to_string(),
                    format!(
                        "entry {k} (element {}, slot {}) = {v}, target set has size {to_size}",
                        k / arity,
                        k % arity
                    ),
                ));
            }
        }
    }
    if bad > CITE_LIMIT {
        out.push(Diagnostic::error(
            "map/out-of-range",
            name.to_string(),
            format!("...and {} more out-of-range entries", bad - CITE_LIMIT),
        ));
    }
    if out.is_empty() {
        out.push(Diagnostic::info(
            "map/ok",
            name.to_string(),
            format!("{} entries within 0..{to_size}", data.len()),
        ));
    }
    out
}

/// Audit the dynamic particle→cell map after a move/hole-fill cycle:
/// a live particle must sit in a real cell — negative entries mean a
/// removed particle survived hole filling.
pub fn audit_particle_cells(name: &str, cells: &[i32], n_cells: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut dangling = 0usize;
    let mut oob = 0usize;
    for (i, &c) in cells.iter().enumerate() {
        if c < 0 {
            dangling += 1;
            if dangling <= CITE_LIMIT {
                out.push(Diagnostic::error(
                    "pmap/dangling",
                    name.to_string(),
                    format!("particle {i} has cell {c}: removed but not hole-filled"),
                ));
            }
        } else if c as usize >= n_cells {
            oob += 1;
            if oob <= CITE_LIMIT {
                out.push(Diagnostic::error(
                    "pmap/out-of-range",
                    name.to_string(),
                    format!("particle {i} maps to cell {c}, mesh has {n_cells} cells"),
                ));
            }
        }
    }
    for (count, label) in [(dangling, "dangling"), (oob, "out-of-range")] {
        if count > CITE_LIMIT {
            out.push(Diagnostic::error(
                "pmap/summary",
                name.to_string(),
                format!("...and {} more {label} particles", count - CITE_LIMIT),
            ));
        }
    }
    if out.is_empty() {
        out.push(Diagnostic::info(
            "pmap/ok",
            name.to_string(),
            format!("{} particles all within 0..{n_cells}", cells.len()),
        ));
    }
    out
}

/// Audit a CSR cell index against the particle→cell column it claims
/// to describe: offsets must be monotone, cover exactly `0..n`, and
/// every particle inside segment `c` must actually sit in cell `c`.
/// Every `sort_by_cell` must leave this invariant behind: cell-aligned
/// thread bindings are cut from the index, and the colouring deposit
/// runs over the sorted store.
pub fn audit_cell_index(
    name: &str,
    cell_start: &[usize],
    cells: &[i32],
    n_cells: usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if cell_start.len() != n_cells + 1 {
        out.push(Diagnostic::error(
            "index/shape",
            name.to_string(),
            format!(
                "index has {} offsets, expected {} cells + 1",
                cell_start.len(),
                n_cells
            ),
        ));
        return out;
    }
    if cell_start[0] != 0 || *cell_start.last().unwrap() != cells.len() {
        out.push(Diagnostic::error(
            "index/partition",
            name.to_string(),
            format!(
                "offsets span {}..{}, must span 0..{} to partition the store",
                cell_start[0],
                cell_start.last().unwrap(),
                cells.len()
            ),
        ));
        return out;
    }
    if let Some(c) = (0..n_cells).find(|&c| cell_start[c] > cell_start[c + 1]) {
        out.push(Diagnostic::error(
            "index/partition",
            name.to_string(),
            format!(
                "offsets decrease at cell {c}: {} > {}",
                cell_start[c],
                cell_start[c + 1]
            ),
        ));
        return out;
    }
    let mut bad = 0usize;
    for c in 0..n_cells {
        let seg = cell_start[c]..cell_start[c + 1];
        for (p, &cell) in cells[seg.clone()].iter().enumerate() {
            let p = p + seg.start;
            if cell != c as i32 {
                bad += 1;
                if bad <= CITE_LIMIT {
                    out.push(Diagnostic::error(
                        "index/mismatch",
                        name.to_string(),
                        format!("particle {p} lies in segment {c} but its cell column says {cell}"),
                    ));
                }
            }
        }
    }
    if bad > CITE_LIMIT {
        out.push(Diagnostic::error(
            "index/mismatch",
            name.to_string(),
            format!("...and {} more misplaced particles", bad - CITE_LIMIT),
        ));
    }
    if out.is_empty() {
        out.push(Diagnostic::info(
            "index/ok",
            name.to_string(),
            format!(
                "{} particles partitioned over {} cells, segments agree with the cell column",
                cells.len(),
                n_cells
            ),
        ));
    }
    out
}

/// Audit a cell coloring against the target-sharing relation it must
/// respect (wraps [`oppic_core::deposit::coloring_is_valid`], adding
/// round statistics).
pub fn audit_coloring<C: AsRef<[usize]>>(
    name: &str,
    cell_targets: &[C],
    n_targets: usize,
    colors: &[u32],
    n_colors: usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if colors.len() != cell_targets.len() {
        out.push(Diagnostic::error(
            "color/shape",
            name.to_string(),
            format!("{} colors for {} cells", colors.len(), cell_targets.len()),
        ));
        return out;
    }
    if colors.iter().any(|&c| c as usize >= n_colors) {
        out.push(Diagnostic::error(
            "color/count",
            name.to_string(),
            format!("a color exceeds the declared {} rounds", n_colors),
        ));
    }
    if coloring_is_valid(cell_targets, n_targets, colors) {
        out.push(Diagnostic::info(
            "color/ok",
            name.to_string(),
            format!(
                "{} cells over {} rounds, no same-color pair shares a target",
                colors.len(),
                n_colors
            ),
        ));
    } else {
        out.push(Diagnostic::error(
            "color/conflict",
            name.to_string(),
            "two same-color cells share a target element".to_string(),
        ));
    }
    out
}

/// Aggregate a list of audit results into a report (drivers' helper).
pub fn audit_report(parts: Vec<Vec<Diagnostic>>) -> Report {
    let mut r = Report::new();
    for p in parts {
        r.extend(p);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn has_error(diags: &[Diagnostic]) -> bool {
        diags.iter().any(|d| d.severity == Severity::Error)
    }

    #[test]
    fn in_range_map_is_clean() {
        let c2n = [0, 1, 2, 3, 1, 2, 3, 4];
        let diags = audit_mesh_map("c2n", &c2n, 2, 4, 5, false);
        assert!(!has_error(&diags), "{diags:?}");
    }

    #[test]
    fn out_of_range_entry_is_an_error() {
        let c2n = [0, 1, 9, 3];
        let diags = audit_mesh_map("c2n", &c2n, 1, 4, 5, false);
        assert!(has_error(&diags), "{diags:?}");
        assert!(diags[0].message.contains("= 9"), "{diags:?}");
    }

    #[test]
    fn negative_entries_respect_the_boundary_convention() {
        let c2c = [-1, 1, 0, -1];
        assert!(!has_error(&audit_mesh_map("c2c", &c2c, 2, 2, 2, true)));
        assert!(has_error(&audit_mesh_map("c2c", &c2c, 2, 2, 2, false)));
    }

    #[test]
    fn wrong_shape_short_circuits() {
        let diags = audit_mesh_map("c2n", &[0, 1, 2], 2, 4, 5, false);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "map/shape");
    }

    #[test]
    fn excess_violations_are_summarised() {
        let data = vec![99i32; 20];
        let diags = audit_mesh_map("m", &data, 20, 1, 5, false);
        assert_eq!(diags.len(), CITE_LIMIT + 1, "{diags:?}");
        assert!(
            diags.last().unwrap().message.contains("15 more"),
            "{diags:?}"
        );
    }

    #[test]
    fn particle_cells_audit() {
        assert!(!has_error(&audit_particle_cells("p2c", &[0, 3, 2], 4)));
        let diags = audit_particle_cells("p2c", &[0, -1, 2], 4);
        assert!(diags.iter().any(|d| d.code == "pmap/dangling"), "{diags:?}");
        let diags = audit_particle_cells("p2c", &[0, 4, 2], 4);
        assert!(
            diags.iter().any(|d| d.code == "pmap/out-of-range"),
            "{diags:?}"
        );
    }

    #[test]
    fn fresh_cell_index_is_clean() {
        // 4 particles sorted into cells [0, 0, 2, 3] over 4 cells.
        let cells = [0, 0, 2, 3];
        let start = [0usize, 2, 2, 3, 4];
        let diags = audit_cell_index("p2c-index", &start, &cells, 4);
        assert!(!has_error(&diags), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "index/ok"), "{diags:?}");
    }

    #[test]
    fn cell_index_shape_and_partition_violations() {
        let cells = [0, 0, 2, 3];
        // Wrong offset count.
        let diags = audit_cell_index("idx", &[0, 2, 4], &cells, 4);
        assert!(diags.iter().any(|d| d.code == "index/shape"), "{diags:?}");
        // Last offset does not reach n.
        let diags = audit_cell_index("idx", &[0, 2, 2, 3, 3], &cells, 4);
        assert!(
            diags.iter().any(|d| d.code == "index/partition"),
            "{diags:?}"
        );
        // Non-monotone offsets.
        let diags = audit_cell_index("idx", &[0, 3, 2, 3, 4], &cells, 4);
        assert!(
            diags.iter().any(|d| d.code == "index/partition"),
            "{diags:?}"
        );
    }

    #[test]
    fn cell_index_disagreeing_with_cell_column_is_an_error() {
        // Segment 1 claims particle 1, but the column says cell 0.
        let cells = [0, 0, 2, 3];
        let start = [0usize, 1, 2, 3, 4];
        let diags = audit_cell_index("idx", &start, &cells, 4);
        assert!(
            diags.iter().any(|d| d.code == "index/mismatch"),
            "{diags:?}"
        );
    }

    #[test]
    fn coloring_audit_agrees_with_core() {
        let targets = [vec![0usize, 1], vec![2], vec![1, 3]];
        // Cells 0 and 2 share node 1: they need different colors.
        let good = [0u32, 0, 1];
        assert!(!has_error(&audit_coloring("cells", &targets, 4, &good, 2)));
        let bad = [0u32, 0, 0];
        let diags = audit_coloring("cells", &targets, 4, &bad, 1);
        assert!(
            diags.iter().any(|d| d.code == "color/conflict"),
            "{diags:?}"
        );
    }
}
