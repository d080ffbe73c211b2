//! The one failure-case pipeline and its replayable reproducers.
//!
//! Both case types of the harness — a differential matrix cell
//! ([`CellConfig`]) and a chaos cell ([`crate::ChaosCell`]) — implement
//! [`Case`]. A type supplies only what differs: its schema string, its
//! id, its own fields, its shrink moves and its run. Everything else is
//! shared: the greedy shrink walk ([`crate::shrink()`]), the reproducer
//! frame (`schema`, `id`, the type's fields, `failures`, `replay`, one
//! field per line), its file under [`REPRO_DIR`], the parse with its
//! schema check, and the replay of the `conformance` binary. The schema
//! is versioned so stale reproducers fail loudly instead of replaying
//! the wrong configuration.

use crate::matrix::{App, CellConfig, Exec, Mover, Mutation, Runtime};
use crate::runner::check_cell;
use oppic_core::json::{self, Json};
use oppic_core::DepositMethod;
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

pub const SCHEMA: &str = "oppic-conformance-repro-v1";

/// Where the `conformance` binary writes reproducers, relative to the
/// directory it runs in; the `replay` line of each file names it.
pub const REPRO_DIR: &str = "results/conformance";

/// A shrink move: the next smaller candidate, or `None` when the move
/// has nothing left to try.
pub type Move<C> = fn(&C) -> Option<C>;

/// One failure-case type: what the shrink walk, the reproducer frame
/// and the replay need to know about it.
pub trait Case: Clone + PartialEq + fmt::Display + 'static {
    /// Reproducer schema; a file that names another is refused.
    const SCHEMA: &'static str;
    /// How refusals name this type's reproducer.
    const NOUN: &'static str;
    /// The `conformance` flag that replays this type's reproducers.
    const REPLAY_FLAG: &'static str;
    /// The type's shrink moves, in walk order, after the shared moves
    /// over [`Case::sizes`].
    const MOVES: &'static [Move<Self>];

    /// Filesystem-safe identifier; names the reproducer file.
    fn id(&self) -> String;

    /// The run sizes the shrink walk reduces first: steps, particles.
    fn sizes(&mut self) -> [&mut usize; 2];

    /// Run the case once; `Err` carries its failure lines.
    fn run(&self) -> Result<(), Vec<String>>;

    /// The type's own reproducer fields, in file order, as JSON text.
    fn fields(&self) -> Vec<(&'static str, String)>;

    /// Read the type's own fields back from a reproducer.
    fn from_fields(f: &Fields) -> Result<Self, String>;

    /// The shrink predicate: the case does not pass.
    fn fails(&self) -> bool {
        self.run().is_err()
    }

    /// The reproducer of this case and its failure lines.
    fn reproducer_json(&self, failures: &[String]) -> String {
        let id = self.id();
        let head = [
            ("schema", json::quote(Self::SCHEMA)),
            ("id", json::quote(&id)),
        ];
        let mut out = String::from("{\n");
        for (key, value) in head.into_iter().chain(self.fields()) {
            let _ = writeln!(out, "  {}: {value},", json::quote(key));
        }
        out.push_str("  \"failures\": [\n");
        for (i, line) in failures.iter().enumerate() {
            let comma = if i + 1 < failures.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{comma}", json::quote(line));
        }
        let replay = format!(
            "cargo run --release --bin conformance -- {} {REPRO_DIR}/{id}.json",
            Self::REPLAY_FLAG
        );
        let _ = write!(out, "  ],\n  \"replay\": {}\n}}\n", json::quote(&replay));
        out
    }

    /// Parse a reproducer back into the case it captured and its
    /// recorded failure lines.
    fn parse_reproducer(src: &str) -> Result<(Self, Vec<String>), String> {
        let doc = json::parse(src)?;
        let f = Fields {
            doc: &doc,
            noun: Self::NOUN,
        };
        let schema = f.str("schema")?;
        if schema != Self::SCHEMA {
            return Err(format!(
                "{} schema '{schema}' is not '{}' — regenerate the case",
                Self::NOUN,
                Self::SCHEMA
            ));
        }
        let case = Self::from_fields(&f)?;
        let failures = doc
            .get("failures")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        Ok((case, failures))
    }

    /// Write the reproducer under `dir`, named after the case id.
    /// Returns the path written.
    fn write_reproducer(&self, dir: &Path, failures: &[String]) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id()));
        std::fs::write(&path, self.reproducer_json(failures))?;
        Ok(path)
    }
}

/// The fields of a reproducer being parsed; a missing or mistyped
/// field is refused in the case type's own words.
pub struct Fields<'a> {
    doc: &'a Json,
    noun: &'static str,
}

impl<'a> Fields<'a> {
    pub(crate) fn get(&self, key: &str) -> Option<&'a Json> {
        self.doc.get(key)
    }

    /// `key` seen through `view`, or the refusal naming the missing
    /// `kind` of field.
    fn req<T>(&self, key: &str, kind: &str, view: fn(&'a Json) -> Option<T>) -> Result<T, String> {
        self.get(key)
            .and_then(view)
            .ok_or_else(|| format!("{} missing {kind} field '{key}'", self.noun))
    }

    pub(crate) fn str(&self, key: &str) -> Result<&'a str, String> {
        self.req(key, "string", Json::as_str)
    }

    pub(crate) fn u64(&self, key: &str) -> Result<u64, String> {
        self.req(key, "integer", Json::as_u64)
    }

    pub(crate) fn f64(&self, key: &str) -> Result<f64, String> {
        self.req(key, "number", Json::as_f64)
    }

    pub(crate) fn bool(&self, key: &str) -> Result<bool, String> {
        self.req(key, "boolean", Json::as_bool)
    }

    /// The string field `key` read by `parse`; a spelling it does not
    /// know is refused as an unknown `what`.
    pub(crate) fn pick<T>(
        &self,
        key: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let name = self.str(key)?;
        parse(name).ok_or_else(|| format!("unknown {what} '{name}'"))
    }
}

impl Case for CellConfig {
    const SCHEMA: &'static str = SCHEMA;
    const NOUN: &'static str = "reproducer";
    const REPLAY_FLAG: &'static str = "--replay";
    /// Each matrix axis back toward the reference cell.
    const MOVES: &'static [Move<Self>] = &[
        |c| {
            (c.exec != Exec::Seq).then(|| CellConfig {
                exec: Exec::Seq,
                ..c.clone()
            })
        },
        |c| {
            (c.deposit != DepositMethod::Serial).then(|| CellConfig {
                deposit: DepositMethod::Serial,
                ..c.clone()
            })
        },
        |c| {
            (c.mover != Mover::MultiHop).then(|| CellConfig {
                mover: Mover::MultiHop,
                ..c.clone()
            })
        },
        // The promise axis shrinks toward off — but only if the failure
        // survives, so a binding-bound reproducer keeps it in its id.
        |c| {
            c.binding.then(|| CellConfig {
                binding: false,
                ..c.clone()
            })
        },
        // MPI shrinks toward one rank, then to the host path.
        |c| {
            matches!(c.runtime, Runtime::Mpi(r) if r > 1).then(|| CellConfig {
                runtime: Runtime::Mpi(1),
                ..c.clone()
            })
        },
        |c| {
            (c.runtime != Runtime::Host).then(|| CellConfig {
                runtime: Runtime::Host,
                ..c.clone()
            })
        },
        |c| {
            c.sort_always.then(|| CellConfig {
                sort_always: false,
                ..c.clone()
            })
        },
    ];

    fn id(&self) -> String {
        CellConfig::id(self)
    }

    fn sizes(&mut self) -> [&mut usize; 2] {
        [&mut self.steps, &mut self.particles]
    }

    fn run(&self) -> Result<(), Vec<String>> {
        let report = check_cell(self);
        if report.passed() {
            Ok(())
        } else {
            Err(report.failure_lines())
        }
    }

    fn fields(&self) -> Vec<(&'static str, String)> {
        let (runtime, ranks) = match self.runtime {
            Runtime::Host => ("host", 0usize),
            Runtime::DeviceModel => ("device", 0),
            Runtime::Mpi(r) => ("mpi", r),
        };
        let mutation = match self.mutation {
            None => "null".to_string(),
            Some(Mutation::DepositLostUpdate) => json::quote("deposit-lost-update"),
        };
        vec![
            ("app", json::quote(self.app.name())),
            ("exec", json::quote(self.exec.name())),
            ("deposit", json::quote(self.deposit.label())),
            ("mover", json::quote(self.mover.name())),
            ("runtime", json::quote(runtime)),
            ("mpi_ranks", json::num(ranks as f64)),
            ("sort_always", self.sort_always.to_string()),
            ("binding", self.binding.to_string()),
            ("steps", json::num(self.steps as f64)),
            ("particles", json::num(self.particles as f64)),
            ("seed", json::num(self.seed as f64)),
            ("mutation", mutation),
        ]
    }

    fn from_fields(f: &Fields) -> Result<Self, String> {
        let app = f.pick("app", "app", App::parse)?;
        let exec = f.pick("exec", "exec", Exec::parse)?;
        let deposit = f.pick("deposit", "deposit label", DepositMethod::from_label)?;
        let mover = f.pick("mover", "mover", Mover::parse)?;
        let runtime = match f.str("runtime")? {
            "host" => Runtime::Host,
            "device" => Runtime::DeviceModel,
            "mpi" => Runtime::Mpi((f.u64("mpi_ranks")? as usize).max(1)),
            other => return Err(format!("unknown runtime '{other}'")),
        };
        let sort_always = f.bool("sort_always")?;
        // The promise axis; absent in pre-binding reproducers, default off.
        let opt_bool = |key: &str| matches!(f.get(key), Some(Json::Bool(true)));
        let binding = opt_bool("binding");
        if opt_bool("overlap") {
            return Err(
                "reproducer sets the retired 'overlap' axis: the migration has one \
                    synchronous form now — regenerate the case"
                    .into(),
            );
        }
        let mutation = match f.get("mutation") {
            Some(Json::Null) | None => None,
            Some(Json::Str(s)) if s == "deposit-lost-update" => Some(Mutation::DepositLostUpdate),
            Some(other) => return Err(format!("unknown mutation {other:?}")),
        };
        Ok(CellConfig {
            app,
            exec,
            deposit,
            mover,
            runtime,
            sort_always,
            binding,
            steps: f.u64("steps")? as usize,
            particles: f.u64("particles")? as usize,
            seed: f.u64("seed")?,
            mutation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducer_roundtrips_every_axis() {
        let mut cell = CellConfig::reference(App::FemPic);
        cell.exec = Exec::Pool4;
        cell.deposit = DepositMethod::SegmentedReduction;
        cell.mover = Mover::DirectHop;
        cell.runtime = Runtime::Mpi(2);
        cell.sort_always = true;
        cell.binding = true;
        cell.steps = 2;
        cell.particles = 7;
        cell.mutation = Some(Mutation::DepositLostUpdate);
        let failures = vec!["node_charge[0]: got 1e0, want 2e0".to_string()];
        let src = cell.reproducer_json(&failures);
        let (back, back_failures) = CellConfig::parse_reproducer(&src).expect("parse");
        assert_eq!(back, cell);
        assert_eq!(back_failures, failures);
    }

    #[test]
    fn matrix_deposit_and_missing_promise_flags_roundtrip() {
        let mut cell = CellConfig::reference(App::FemPic);
        cell.deposit = DepositMethod::Atomics;
        let src = cell.reproducer_json(&[]);
        let (back, _) = CellConfig::parse_reproducer(&src).expect("parse");
        assert_eq!(back.deposit, DepositMethod::Atomics);
        // A reproducer naming the retired matrixized deposit is
        // refused rather than rerun under another method.
        let err = CellConfig::parse_reproducer(&src.replace("\"AT\"", "\"MX\"")).unwrap_err();
        assert!(err.contains("unknown deposit label 'MX'"), "{err}");
        // Pre-binding reproducers lack the promise field: default off.
        let stripped: String = src
            .lines()
            .filter(|l| !l.contains("\"binding\""))
            .collect::<Vec<_>>()
            .join("\n");
        let (back, _) = CellConfig::parse_reproducer(&stripped).expect("parse");
        assert!(!back.binding);
    }

    #[test]
    fn retired_overlap_axis_is_refused() {
        let cell = CellConfig::reference(App::FemPic);
        let src = cell.reproducer_json(&[]);
        let with =
            |v: &str| src.replace("\"binding\"", &format!("\"overlap\": {v},\n  \"binding\""));
        let err = CellConfig::parse_reproducer(&with("true")).unwrap_err();
        assert!(err.contains("retired 'overlap' axis"), "{err}");
        // Without the key, or with it off, the reproducer still parses.
        for src in [src.clone(), with("false")] {
            let (back, _) = CellConfig::parse_reproducer(&src).expect("parse");
            assert_eq!(back, cell);
        }
    }

    #[test]
    fn stale_schema_is_rejected() {
        let cell = CellConfig::reference(App::Cabana);
        let src = cell
            .reproducer_json(&[])
            .replace(SCHEMA, "oppic-conformance-repro-v0");
        let err = CellConfig::parse_reproducer(&src).unwrap_err();
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn host_runtime_roundtrips_without_ranks() {
        let cell = CellConfig::reference(App::Cabana);
        let (back, _) = CellConfig::parse_reproducer(&cell.reproducer_json(&[])).expect("parse");
        assert_eq!(back, cell);
        assert_eq!(back.runtime, Runtime::Host);
    }
}
