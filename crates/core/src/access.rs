//! Access descriptors — the `opp_arg_dat` metadata of the paper's API.
//!
//! In the C++ DSL these descriptors drive the code generator: a loop
//! whose arguments are all `OPP_READ`/`OPP_WRITE` on the iteration set
//! is embarrassingly parallel, while an indirect `OPP_INC` argument
//! forces a race-handling strategy. In this reproduction the executors
//! are chosen statically by the application (that choice *is* the
//! "generated code"), but the declarations are still recorded: they
//! document the loop, are validated for coherence, and feed the
//! telemetry hub's bytes-moved estimate used by the roofline harness.

/// Per-argument access mode (`OPP_READ` / `OPP_WRITE` / `OPP_INC` /
/// `OPP_RW` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    Read,
    Write,
    Inc,
    ReadWrite,
}

impl Access {
    /// Whether this access reads the previous contents.
    pub fn reads(self) -> bool {
        matches!(self, Access::Read | Access::Inc | Access::ReadWrite)
    }

    /// Whether this access modifies the contents.
    pub fn writes(self) -> bool {
        matches!(self, Access::Write | Access::Inc | Access::ReadWrite)
    }
}

/// How an argument is addressed from the iteration set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Indirection {
    /// Data declared on the iteration set itself.
    Direct,
    /// One map hop (e.g. cells→nodes from a cell loop).
    Indirect,
    /// Two map hops (e.g. particle→cell→node from a particle loop) —
    /// the "double indirection" the paper singles out (Figure 2(a)).
    Double,
}

/// One argument of a parallel loop (the `opp_arg_dat` record).
#[derive(Debug, Clone)]
pub struct ArgDecl {
    /// Name of the `dat` accessed.
    pub dat: String,
    /// Components per set element.
    pub dim: usize,
    pub access: Access,
    pub indirection: Indirection,
    /// Name of the map used (empty for direct).
    pub map: String,
}

impl ArgDecl {
    pub fn direct(dat: impl Into<String>, dim: usize, access: Access) -> Self {
        ArgDecl {
            dat: dat.into(),
            dim,
            access,
            indirection: Indirection::Direct,
            map: String::new(),
        }
    }

    pub fn indirect(
        dat: impl Into<String>,
        dim: usize,
        access: Access,
        map: impl Into<String>,
    ) -> Self {
        ArgDecl {
            dat: dat.into(),
            dim,
            access,
            indirection: Indirection::Indirect,
            map: map.into(),
        }
    }

    pub fn double_indirect(
        dat: impl Into<String>,
        dim: usize,
        access: Access,
        map: impl Into<String>,
    ) -> Self {
        ArgDecl {
            dat: dat.into(),
            dim,
            access,
            indirection: Indirection::Double,
            map: map.into(),
        }
    }

    /// Coherence rules for a single descriptor: a direct arg must not
    /// name a map, an indirect or double-indirect arg must, and a
    /// double-indirect plain `WRITE` is rejected outright (the DSL
    /// cannot order scattered plain writes deterministically — the
    /// paper's generator only accepts `INC` through two map hops).
    pub fn validate(&self) -> Result<(), String> {
        match self.indirection {
            Indirection::Direct if !self.map.is_empty() => {
                return Err(format!(
                    "direct arg '{}' names a map '{}'",
                    self.dat, self.map
                ));
            }
            Indirection::Indirect | Indirection::Double if self.map.is_empty() => {
                return Err(format!("indirect arg '{}' missing its map", self.dat));
            }
            _ => {}
        }
        if self.access == Access::Write && self.indirection == Indirection::Double {
            return Err(format!(
                "double-indirect plain WRITE on '{}' is not deterministic; use INC",
                self.dat
            ));
        }
        if self.dim == 0 {
            return Err(format!("arg '{}' declares dim 0", self.dat));
        }
        Ok(())
    }

    /// Bytes this argument moves per iteration (reads + writes),
    /// assuming `f64` payloads. Used by the roofline instrumentation.
    pub fn bytes_per_iter(&self) -> usize {
        let mut factor = 0;
        if self.access.reads() {
            factor += 1;
        }
        if self.access.writes() {
            factor += 1;
        }
        factor * self.dim * std::mem::size_of::<f64>()
    }
}

/// A full loop declaration (the `opp_par_loop` call shape). Used for
/// validation, pretty-printing and byte accounting, not for dispatch.
#[derive(Debug, Clone)]
pub struct LoopDecl {
    pub name: String,
    pub iter_set: String,
    pub args: Vec<ArgDecl>,
}

impl LoopDecl {
    pub fn new(name: impl Into<String>, iter_set: impl Into<String>, args: Vec<ArgDecl>) -> Self {
        LoopDecl {
            name: name.into(),
            iter_set: iter_set.into(),
            args,
        }
    }

    /// Does any argument require race handling under thread-parallel
    /// execution? True exactly when an indirect (or double-indirect)
    /// increment exists — the condition the paper's generator keys on.
    pub fn needs_race_handling(&self) -> bool {
        self.args
            .iter()
            .any(|a| a.access == Access::Inc && a.indirection != Indirection::Direct)
    }

    /// Estimated bytes moved per iteration over all arguments.
    pub fn bytes_per_iter(&self) -> usize {
        self.args.iter().map(ArgDecl::bytes_per_iter).sum()
    }

    /// Sanity rules, delegated per-argument to [`ArgDecl::validate`]:
    /// an indirect arg must name its map; a direct arg must not;
    /// `Write`-only double indirection is rejected (the DSL cannot
    /// order scattered plain writes deterministically).
    pub fn validate(&self) -> Result<(), String> {
        for a in &self.args {
            a.validate()
                .map_err(|e| format!("loop '{}': {e}", self.name))?;
        }
        Ok(())
    }
}

impl std::fmt::Display for LoopDecl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "opp_par_loop {:?} over {}", self.name, self.iter_set)?;
        for a in &self.args {
            let ind = match a.indirection {
                Indirection::Direct => "direct".to_string(),
                Indirection::Indirect => format!("via {}", a.map),
                Indirection::Double => format!("double via {}", a.map),
            };
            writeln!(f, "  arg {} dim={} {:?} {}", a.dat, a.dim, a.access, ind)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_semantics() {
        assert!(Access::Read.reads() && !Access::Read.writes());
        assert!(!Access::Write.reads() && Access::Write.writes());
        assert!(Access::Inc.reads() && Access::Inc.writes());
        assert!(Access::ReadWrite.reads() && Access::ReadWrite.writes());
    }

    #[test]
    fn bytes_accounting() {
        let a = ArgDecl::direct("efield", 3, Access::Read);
        assert_eq!(a.bytes_per_iter(), 3 * 8);
        let b = ArgDecl::indirect("node_charge", 1, Access::Inc, "c2n");
        assert_eq!(b.bytes_per_iter(), 2 * 8);
        let l = LoopDecl::new("k", "cells", vec![a, b]);
        assert_eq!(l.bytes_per_iter(), 40);
    }

    #[test]
    fn race_detection() {
        let direct_only = LoopDecl::new(
            "push",
            "particles",
            vec![
                ArgDecl::direct("pos", 3, Access::ReadWrite),
                ArgDecl::direct("vel", 3, Access::ReadWrite),
            ],
        );
        assert!(!direct_only.needs_race_handling());

        let deposit = LoopDecl::new(
            "deposit",
            "particles",
            vec![
                ArgDecl::direct("charge", 1, Access::Read),
                ArgDecl::double_indirect("node_charge", 1, Access::Inc, "p2c.c2n"),
            ],
        );
        assert!(deposit.needs_race_handling());
    }

    #[test]
    fn validation_rules() {
        let bad_direct = LoopDecl::new(
            "k",
            "cells",
            vec![ArgDecl {
                dat: "x".into(),
                dim: 1,
                access: Access::Read,
                indirection: Indirection::Direct,
                map: "c2n".into(),
            }],
        );
        assert!(bad_direct.validate().is_err());

        let missing_map = LoopDecl::new(
            "k",
            "cells",
            vec![ArgDecl {
                dat: "x".into(),
                dim: 1,
                access: Access::Read,
                indirection: Indirection::Indirect,
                map: String::new(),
            }],
        );
        assert!(missing_map.validate().is_err());

        let scattered_write = LoopDecl::new(
            "k",
            "particles",
            vec![ArgDecl::double_indirect("x", 1, Access::Write, "p2c.c2n")],
        );
        assert!(scattered_write.validate().is_err());

        let fine = LoopDecl::new(
            "k",
            "particles",
            vec![ArgDecl::double_indirect("x", 1, Access::Inc, "p2c.c2n")],
        );
        assert!(fine.validate().is_ok());
    }

    #[test]
    fn arg_validation_is_per_argument() {
        assert!(ArgDecl::direct("x", 3, Access::Read).validate().is_ok());
        assert!(ArgDecl::indirect("x", 3, Access::Read, "c2n")
            .validate()
            .is_ok());
        // Zero-dim args are incoherent whatever the route.
        assert!(ArgDecl::direct("x", 0, Access::Read).validate().is_err());
        // Loop-level validation prefixes the loop name.
        let bad = LoopDecl::new(
            "Deposit",
            "particles",
            vec![ArgDecl::direct("x", 0, Access::Read)],
        );
        let msg = bad.validate().unwrap_err();
        assert!(msg.contains("Deposit"), "{msg}");
    }

    #[test]
    fn display_renders() {
        let l = LoopDecl::new(
            "deposit",
            "particles",
            vec![ArgDecl::indirect("cd", 1, Access::Inc, "c2n")],
        );
        let s = format!("{l}");
        assert!(s.contains("deposit"));
        assert!(s.contains("via c2n"));
    }
}
