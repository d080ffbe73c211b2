//! Declaration registry — the paper's `opp_decl_set` / `opp_decl_map`
//! surface (Figure 4).
//!
//! The registry does not own simulation data (that stays in typed
//! structures the executors can specialise over); it records the mesh
//! topology metadata so that:
//!
//! * declarations can be validated (map endpoints exist, arities agree,
//!   map payload values are in range),
//! * the model/partitioning layers can enumerate what must be
//!   partitioned and haloed, and
//! * a human-readable summary of the declared "science source" can be
//!   printed, mirroring the DSL's separation-of-concerns pitch.

use std::collections::HashMap;

/// A set declaration: mesh sets carry just a size; particle sets also
/// name the mesh set their particles live on (`opp_decl_particle_set`).
#[derive(Debug, Clone)]
pub struct SetDecl {
    pub name: String,
    pub size: usize,
    /// `Some(mesh_set)` for particle sets.
    pub cells_set: Option<String>,
}

/// A map declaration (`opp_decl_map`): `from` set → `to` set with fixed
/// arity. Particle→cell maps are dynamic (arity 1, from a particle set).
#[derive(Debug, Clone)]
pub struct MapDecl {
    pub name: String,
    pub from: String,
    pub to: String,
    pub arity: usize,
}

/// A dat declaration (`opp_decl_dat`): data of dimension `dim` on `set`.
#[derive(Debug, Clone)]
pub struct DatDecl {
    pub name: String,
    pub set: String,
    pub dim: usize,
}

/// The declaration registry for one simulation.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    sets: HashMap<String, SetDecl>,
    maps: HashMap<String, MapDecl>,
    dats: HashMap<String, DatDecl>,
    order: Vec<String>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// `opp_decl_set(size, name)`.
    pub fn decl_set(&mut self, name: impl Into<String>, size: usize) -> Result<(), String> {
        let name = name.into();
        if self.sets.contains_key(&name) {
            return Err(format!("set '{name}' declared twice"));
        }
        self.order.push(format!("set:{name}"));
        self.sets.insert(
            name.clone(),
            SetDecl {
                name,
                size,
                cells_set: None,
            },
        );
        Ok(())
    }

    /// `opp_decl_particle_set(name, cells_set [, count])`.
    pub fn decl_particle_set(
        &mut self,
        name: impl Into<String>,
        cells_set: &str,
        count: usize,
    ) -> Result<(), String> {
        let name = name.into();
        if !self.sets.contains_key(cells_set) {
            return Err(format!(
                "particle set '{name}' references unknown set '{cells_set}'"
            ));
        }
        if self.sets.contains_key(&name) {
            return Err(format!("set '{name}' declared twice"));
        }
        self.order.push(format!("pset:{name}"));
        self.sets.insert(
            name.clone(),
            SetDecl {
                name,
                size: count,
                cells_set: Some(cells_set.to_string()),
            },
        );
        Ok(())
    }

    /// `opp_decl_map(from, to, arity, data, name)` — `data` is checked
    /// for range if provided (dynamic particle maps pass `None`,
    /// matching the paper's `nullptr` convention).
    pub fn decl_map(
        &mut self,
        name: impl Into<String>,
        from: &str,
        to: &str,
        arity: usize,
        data: Option<&[i32]>,
    ) -> Result<(), String> {
        let name = name.into();
        let from_set = self
            .sets
            .get(from)
            .ok_or_else(|| format!("map '{name}': unknown from-set '{from}'"))?;
        let to_set = self
            .sets
            .get(to)
            .ok_or_else(|| format!("map '{name}': unknown to-set '{to}'"))?;
        if self.maps.contains_key(&name) {
            return Err(format!("map '{name}' declared twice"));
        }
        if from_set.cells_set.is_some() && arity != 1 {
            return Err(format!(
                "map '{name}': a particle is always mapped to exactly one mesh element (arity 1)"
            ));
        }
        if let Some(d) = data {
            if d.len() != from_set.size * arity {
                return Err(format!(
                    "map '{name}': payload length {} != {} elements × arity {arity}",
                    d.len(),
                    from_set.size
                ));
            }
            for (k, &v) in d.iter().enumerate() {
                if v >= 0 && v as usize >= to_set.size {
                    return Err(format!(
                        "map '{name}': entry {k} = {v} out of range for set '{to}' (size {})",
                        to_set.size
                    ));
                }
            }
        }
        self.order.push(format!("map:{name}"));
        self.maps.insert(
            name.clone(),
            MapDecl {
                name,
                from: from.into(),
                to: to.into(),
                arity,
            },
        );
        Ok(())
    }

    /// `opp_decl_dat(set, dim, type, data, name)`.
    pub fn decl_dat(
        &mut self,
        name: impl Into<String>,
        set: &str,
        dim: usize,
    ) -> Result<(), String> {
        let name = name.into();
        if !self.sets.contains_key(set) {
            return Err(format!("dat '{name}': unknown set '{set}'"));
        }
        if self.dats.contains_key(&name) {
            return Err(format!("dat '{name}' declared twice"));
        }
        if dim == 0 {
            return Err(format!("dat '{name}': dim must be positive"));
        }
        self.order.push(format!("dat:{name}"));
        self.dats.insert(
            name.clone(),
            DatDecl {
                name,
                set: set.into(),
                dim,
            },
        );
        Ok(())
    }

    pub fn set(&self, name: &str) -> Option<&SetDecl> {
        self.sets.get(name)
    }

    pub fn map(&self, name: &str) -> Option<&MapDecl> {
        self.maps.get(name)
    }

    pub fn dat(&self, name: &str) -> Option<&DatDecl> {
        self.dats.get(name)
    }

    /// Human-readable summary in declaration order.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for key in &self.order {
            let (kind, name) = key.split_once(':').expect("registry keys are kind:name");
            match kind {
                "set" => {
                    let d = &self.sets[name];
                    s.push_str(&format!("set       {:<24} size {}\n", d.name, d.size));
                }
                "pset" => {
                    let d = &self.sets[name];
                    s.push_str(&format!(
                        "particles {:<24} on {} (initial {})\n",
                        d.name,
                        d.cells_set.as_deref().unwrap_or("?"),
                        d.size
                    ));
                }
                "map" => {
                    let d = &self.maps[name];
                    s.push_str(&format!(
                        "map       {:<24} {} -> {} arity {}\n",
                        d.name, d.from, d.to, d.arity
                    ));
                }
                "dat" => {
                    let d = &self.dats[name];
                    s.push_str(&format!(
                        "dat       {:<24} on {} dim {}\n",
                        d.name, d.set, d.dim
                    ));
                }
                _ => unreachable!("unknown registry key kind"),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure4_registry() -> Registry {
        // The exact declarations of Figure 4 in the paper.
        let mut r = Registry::new();
        r.decl_set("nodes", 16).unwrap();
        r.decl_set("cells", 9).unwrap();
        r.decl_particle_set("x", "cells", 0).unwrap();
        r.decl_particle_set("gam", "cells", 100_000).unwrap();
        r
    }

    #[test]
    fn figure4_declarations() {
        let mut r = figure4_registry();
        let c2n: Vec<i32> = (0..9 * 4).map(|i| i % 16).collect();
        r.decl_map("cell_to_nodes_map", "cells", "nodes", 4, Some(&c2n))
            .unwrap();
        r.decl_map("particles_to_cells_index", "x", "cells", 1, None)
            .unwrap();
        r.decl_dat("electric field", "cells", 1).unwrap();
        r.decl_dat("node potential", "nodes", 2).unwrap();
        r.decl_dat("particle position", "x", 1).unwrap();
        assert_eq!(r.set("cells").unwrap().size, 9);
        assert_eq!(r.map("cell_to_nodes_map").unwrap().arity, 4);
        assert_eq!(r.dat("electric field").unwrap().set, "cells");
        let s = r.summary();
        assert!(s.contains("cell_to_nodes_map"));
        assert!(s.contains("particles x") || s.contains("particles"));
    }

    #[test]
    fn duplicate_set_rejected() {
        let mut r = figure4_registry();
        assert!(r.decl_set("nodes", 5).is_err());
        assert!(r.decl_particle_set("x", "cells", 0).is_err());
    }

    #[test]
    fn particle_map_must_have_arity_1() {
        let mut r = figure4_registry();
        let err = r.decl_map("bad", "x", "cells", 4, None).unwrap_err();
        assert!(err.contains("exactly one mesh element"));
    }

    #[test]
    fn map_payload_validated() {
        let mut r = figure4_registry();
        // Wrong length.
        assert!(r
            .decl_map("m1", "cells", "nodes", 4, Some(&[0, 1, 2]))
            .is_err());
        // Out of range entry.
        let mut c2n = vec![0i32; 36];
        c2n[7] = 16; // nodes has size 16 -> max valid 15
        assert!(r.decl_map("m2", "cells", "nodes", 4, Some(&c2n)).is_err());
        // -1 entries are fine (boundary convention).
        let c2c = vec![-1i32; 36];
        assert!(r.decl_map("m3", "cells", "cells", 4, Some(&c2c)).is_ok());
    }

    #[test]
    fn unknown_endpoints_rejected() {
        let mut r = figure4_registry();
        assert!(r.decl_map("m", "cells", "faces", 3, None).is_err());
        assert!(r.decl_dat("d", "faces", 1).is_err());
        assert!(r.decl_particle_set("p", "faces", 0).is_err());
    }

    #[test]
    fn zero_dim_dat_rejected() {
        let mut r = figure4_registry();
        assert!(r.decl_dat("d", "cells", 0).is_err());
    }
}
