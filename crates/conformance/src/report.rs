//! Replayable failure reproducers.
//!
//! When a matrix cell fails and the shrinker has minimised it, the
//! harness writes a JSON case under `results/conformance/` that
//! `conformance --replay <file>` re-executes exactly. The schema is
//! versioned so stale reproducers fail loudly instead of replaying the
//! wrong configuration.

use crate::matrix::{App, CellConfig, Exec, Mover, Mutation, Runtime};
use oppic_core::json::{self, Json};
use oppic_core::DepositMethod;
use std::io::Write as _;
use std::path::{Path, PathBuf};

pub const SCHEMA: &str = "oppic-conformance-repro-v1";

fn deposit_label(d: DepositMethod) -> &'static str {
    d.label()
}

fn deposit_from_label(label: &str) -> Result<DepositMethod, String> {
    Ok(match label {
        "SEQ" => DepositMethod::Serial,
        "SA" => DepositMethod::ScatterArrays,
        "AT" => DepositMethod::Atomics,
        "UA" => DepositMethod::UnsafeAtomics,
        "SR" => DepositMethod::SegmentedReduction,
        other => return Err(format!("unknown deposit label '{other}'")),
    })
}

/// Serialise a shrunk failing cell plus its failure lines.
pub fn reproducer_json(cell: &CellConfig, failures: &[String]) -> String {
    let (runtime, ranks) = match cell.runtime {
        Runtime::Host => ("host", 0usize),
        Runtime::DeviceModel => ("device", 0),
        Runtime::Mpi(r) => ("mpi", r),
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": {},\n", json::quote(SCHEMA)));
    out.push_str(&format!("  \"id\": {},\n", json::quote(&cell.id())));
    out.push_str(&format!(
        "  \"app\": {},\n",
        json::quote(match cell.app {
            App::FemPic => "fempic",
            App::Cabana => "cabana",
        })
    ));
    out.push_str(&format!(
        "  \"exec\": {},\n",
        json::quote(match cell.exec {
            Exec::Seq => "seq",
            Exec::Pool2 => "pool2",
            Exec::Pool4 => "pool4",
        })
    ));
    out.push_str(&format!(
        "  \"deposit\": {},\n",
        json::quote(deposit_label(cell.deposit))
    ));
    out.push_str(&format!(
        "  \"mover\": {},\n",
        json::quote(match cell.mover {
            Mover::MultiHop => "mh",
            Mover::DirectHop => "dh",
        })
    ));
    out.push_str(&format!("  \"runtime\": {},\n", json::quote(runtime)));
    out.push_str(&format!("  \"mpi_ranks\": {},\n", json::num(ranks as f64)));
    out.push_str(&format!("  \"sort_always\": {},\n", cell.sort_always));
    out.push_str(&format!("  \"binding\": {},\n", cell.binding));
    out.push_str(&format!("  \"steps\": {},\n", json::num(cell.steps as f64)));
    out.push_str(&format!(
        "  \"particles\": {},\n",
        json::num(cell.particles as f64)
    ));
    out.push_str(&format!("  \"seed\": {},\n", json::num(cell.seed as f64)));
    out.push_str(&format!(
        "  \"mutation\": {},\n",
        match cell.mutation {
            None => "null".to_string(),
            Some(Mutation::DepositLostUpdate) => json::quote("deposit-lost-update"),
        }
    ));
    out.push_str("  \"failures\": [\n");
    for (i, f) in failures.iter().enumerate() {
        let comma = if i + 1 == failures.len() { "" } else { "," };
        out.push_str(&format!("    {}{comma}\n", json::quote(f)));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"replay\": {}\n",
        json::quote(&format!(
            "cargo run --release --bin conformance -- --replay results/conformance/{}.json",
            cell.id()
        ))
    ));
    out.push_str("}\n");
    out
}

fn req_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("reproducer missing string field '{key}'"))
}

fn req_usize(obj: &Json, key: &str) -> Result<usize, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("reproducer missing integer field '{key}'"))
}

/// Parse a reproducer back into the cell it captured and its recorded
/// failure lines.
pub fn parse_reproducer(src: &str) -> Result<(CellConfig, Vec<String>), String> {
    let doc = json::parse(src)?;
    let schema = req_str(&doc, "schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "reproducer schema '{schema}' is not '{SCHEMA}' — regenerate the case"
        ));
    }
    let app = match req_str(&doc, "app")? {
        "fempic" => App::FemPic,
        "cabana" => App::Cabana,
        other => return Err(format!("unknown app '{other}'")),
    };
    let exec = match req_str(&doc, "exec")? {
        "seq" => Exec::Seq,
        "pool2" => Exec::Pool2,
        "pool4" => Exec::Pool4,
        other => return Err(format!("unknown exec '{other}'")),
    };
    let deposit = deposit_from_label(req_str(&doc, "deposit")?)?;
    let mover = match req_str(&doc, "mover")? {
        "mh" => Mover::MultiHop,
        "dh" => Mover::DirectHop,
        other => return Err(format!("unknown mover '{other}'")),
    };
    let runtime = match req_str(&doc, "runtime")? {
        "host" => Runtime::Host,
        "device" => Runtime::DeviceModel,
        "mpi" => Runtime::Mpi(req_usize(&doc, "mpi_ranks")?.max(1)),
        other => return Err(format!("unknown runtime '{other}'")),
    };
    let sort_always = doc
        .get("sort_always")
        .and_then(|v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
        .ok_or("reproducer missing boolean field 'sort_always'")?;
    // The promise axis; absent in pre-binding reproducers, default off.
    let opt_bool = |key: &str| matches!(doc.get(key), Some(Json::Bool(true)));
    let binding = opt_bool("binding");
    if opt_bool("overlap") {
        return Err(
            "reproducer sets the retired 'overlap' axis: the migration has one \
                    synchronous form now — regenerate the case"
                .into(),
        );
    }
    let mutation = match doc.get("mutation") {
        Some(Json::Null) | None => None,
        Some(Json::Str(s)) if s == "deposit-lost-update" => Some(Mutation::DepositLostUpdate),
        Some(other) => return Err(format!("unknown mutation {other:?}")),
    };
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
    Ok((
        CellConfig {
            app,
            exec,
            deposit,
            mover,
            runtime,
            sort_always,
            binding,
            steps: req_usize(&doc, "steps")?,
            particles: req_usize(&doc, "particles")?,
            seed: doc
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("reproducer missing integer field 'seed'")?,
            mutation,
        },
        failures,
    ))
}

/// Write the reproducer under `dir`, named after the cell id. Returns
/// the path written.
pub fn write_reproducer(
    dir: &Path,
    cell: &CellConfig,
    failures: &[String],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", cell.id()));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(reproducer_json(cell, failures).as_bytes())?;
    Ok(path)
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
        let src = reproducer_json(&cell, &failures);
        let (back, back_failures) = parse_reproducer(&src).expect("parse");
        assert_eq!(back, cell);
        assert_eq!(back_failures, failures);
    }

    #[test]
    fn matrix_deposit_and_missing_promise_flags_roundtrip() {
        let mut cell = CellConfig::reference(App::FemPic);
        cell.deposit = DepositMethod::Atomics;
        let src = reproducer_json(&cell, &[]);
        let (back, _) = parse_reproducer(&src).expect("parse");
        assert_eq!(back.deposit, DepositMethod::Atomics);
        // A reproducer naming the retired matrixized deposit is
        // refused rather than rerun under another method.
        let err = parse_reproducer(&src.replace("\"AT\"", "\"MX\"")).unwrap_err();
        assert!(err.contains("unknown deposit label 'MX'"), "{err}");
        // Pre-binding reproducers lack the promise field: default off.
        let stripped: String = src
            .lines()
            .filter(|l| !l.contains("\"binding\""))
            .collect::<Vec<_>>()
            .join("\n");
        let (back, _) = parse_reproducer(&stripped).expect("parse");
        assert!(!back.binding);
    }

    #[test]
    fn retired_overlap_axis_is_refused() {
        let cell = CellConfig::reference(App::FemPic);
        let src = reproducer_json(&cell, &[]);
        let with =
            |v: &str| src.replace("\"binding\"", &format!("\"overlap\": {v},\n  \"binding\""));
        let err = parse_reproducer(&with("true")).unwrap_err();
        assert!(err.contains("retired 'overlap' axis"), "{err}");
        // Without the key, or with it off, the reproducer still parses.
        for src in [src.clone(), with("false")] {
            let (back, _) = parse_reproducer(&src).expect("parse");
            assert_eq!(back, cell);
        }
    }

    #[test]
    fn stale_schema_is_rejected() {
        let cell = CellConfig::reference(App::Cabana);
        let src = reproducer_json(&cell, &[]).replace(SCHEMA, "oppic-conformance-repro-v0");
        let err = parse_reproducer(&src).unwrap_err();
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn host_runtime_roundtrips_without_ranks() {
        let cell = CellConfig::reference(App::Cabana);
        let (back, _) = parse_reproducer(&reproducer_json(&cell, &[])).expect("parse");
        assert_eq!(back, cell);
        assert_eq!(back.runtime, Runtime::Host);
    }
}
