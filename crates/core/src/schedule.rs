//! Whole-step schedule traces — the recording half of the dataflow
//! analyzer.
//!
//! PR 1's [`crate::plan::PlanRegistry`] validates each loop in
//! isolation; the hazards *between* loops (a deposit whose halo is
//! consumed before the exchange, a redundant exchange, an illegal
//! fusion) need the actual *sequence* of loops, halo exchanges, and
//! global reductions a step executes. A [`ScheduleRecorder`] captures
//! that sequence cheaply (one `Option` check when disabled, one
//! mutex-guarded push when enabled) from the executing stages and the
//! tagged exchange wrappers in `oppic-mpi`; the recording plus the
//! static loop declarations is packaged as a [`ScheduleTrace`], the
//! self-contained JSON artifact `oppic-analyzer --audit-schedule`
//! consumes.

use crate::access::{Access, ArgDecl, Indirection, LoopDecl};
use crate::json::{self, Json};
use crate::plan::PlanRegistry;
use std::sync::{Arc, Mutex};

/// Trace format identifier; bumped on any incompatible change.
pub const SCHEDULE_SCHEMA: &str = "oppic-schedule-v1";

/// Which way an exchange moves data (the comm vocabulary of the
/// dependence analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeDir {
    /// Global sum of a replicated dat — the small-mesh stand-in for a
    /// halo exchange (DESIGN.md §7) and the paper's global reductions.
    ReduceSum,
    /// Particle migration: strays are shipped to their owner rank and
    /// the local store is hole-filled.
    Migrate,
}

impl ExchangeDir {
    pub fn label(self) -> &'static str {
        match self {
            ExchangeDir::ReduceSum => "reduce_sum",
            ExchangeDir::Migrate => "migrate",
        }
    }

    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "reduce_sum" => ExchangeDir::ReduceSum,
            "migrate" => ExchangeDir::Migrate,
            _ => return None,
        })
    }
}

/// How a loop's iteration space relates to the rank decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopScope {
    /// Each rank iterates only its owned elements; writes cover the
    /// owned region, indirect increments may land in ghost copies.
    Owned,
    /// Every rank runs the full iteration space on replicated data
    /// (the in-process drivers' field loops): writes are globally
    /// consistent *provided the inputs were*.
    Replicated,
}

impl LoopScope {
    pub fn label(self) -> &'static str {
        match self {
            LoopScope::Owned => "own",
            LoopScope::Replicated => "rep",
        }
    }

    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "own" => LoopScope::Owned,
            "rep" => LoopScope::Replicated,
            _ => return None,
        })
    }
}

/// One recorded event: a loop dispatch or a communication step.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleEvent {
    /// A parallel loop ran; `name` keys into [`ScheduleTrace::loops`].
    Loop { name: String },
    /// A halo exchange / reduction / migration ran on `dat`. `tag` is
    /// the call-site label the mpi layer stamps (e.g.
    /// `"fempic/node_charge"`), carried through to the reports.
    Exchange {
        dat: String,
        dir: ExchangeDir,
        tag: String,
    },
}

/// An event plus the 1-based step it was recorded in.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub step: u32,
    pub event: ScheduleEvent,
}

#[derive(Debug, Default)]
struct RecorderInner {
    step: u32,
    events: Vec<TraceEvent>,
}

/// Shared, cloneable recording handle. Stages record loop events, the
/// tagged exchange wrappers in `oppic-mpi` record communication
/// events; the driver marks step boundaries.
#[derive(Debug, Clone, Default)]
pub struct ScheduleRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl ScheduleRecorder {
    pub fn new() -> Self {
        ScheduleRecorder::default()
    }

    /// Mark the start of the next step; subsequent events carry its
    /// number.
    pub fn begin_step(&self) {
        let mut g = self.inner.lock().expect("recorder poisoned");
        g.step += 1;
    }

    pub fn record_loop(&self, name: &str) {
        let mut g = self.inner.lock().expect("recorder poisoned");
        let step = g.step.max(1);
        g.events.push(TraceEvent {
            step,
            event: ScheduleEvent::Loop { name: name.into() },
        });
    }

    pub fn record_exchange(&self, dat: &str, dir: ExchangeDir, tag: &str) {
        let mut g = self.inner.lock().expect("recorder poisoned");
        let step = g.step.max(1);
        g.events.push(TraceEvent {
            step,
            event: ScheduleEvent::Exchange {
                dat: dat.into(),
                dir,
                tag: tag.into(),
            },
        });
    }

    /// Steps begun so far.
    pub fn steps(&self) -> u32 {
        self.inner.lock().expect("recorder poisoned").step
    }

    /// Snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().expect("recorder poisoned").events.clone()
    }
}

/// A loop's static contract in the trace: its declaration plus the
/// distributed-execution facts the plan registry does not carry.
#[derive(Debug, Clone)]
pub struct ScheduleLoop {
    pub decl: LoopDecl,
    pub scope: LoopScope,
    /// Whether this loop re-binds the particle→cell map (a mover):
    /// after it runs, particles may sit in foreign-owned cells until a
    /// `Migrate` exchange ships them home.
    pub rebinds: bool,
}

/// The self-contained recording artifact: static loop contracts, the
/// dat→set table, and the event sequence. Serialized to/from the
/// `oppic-schedule-v1` JSON the analyzer audits offline.
#[derive(Debug, Clone, Default)]
pub struct ScheduleTrace {
    pub app: String,
    pub steps: u32,
    /// Names of particle sets (their dats are wholly owned; migration,
    /// not halo exchange, keeps them consistent).
    pub particle_sets: Vec<String>,
    /// `(dat name, home set)` for every declared dat.
    pub dat_sets: Vec<(String, String)>,
    pub loops: Vec<ScheduleLoop>,
    pub events: Vec<TraceEvent>,
}

impl ScheduleTrace {
    /// Assemble a trace from a finished recording plus the app's plan
    /// registry and set tables.
    pub fn from_recording(
        app: &str,
        plans: &PlanRegistry,
        scopes: &[(&str, LoopScope, bool)],
        particle_sets: &[&str],
        dat_sets: &[(&str, &str)],
        rec: &ScheduleRecorder,
    ) -> Self {
        let loops = plans
            .plans()
            .iter()
            .map(|p| {
                let (scope, rebinds) = scopes
                    .iter()
                    .find(|(n, _, _)| *n == p.decl.name)
                    .map(|&(_, s, r)| (s, r))
                    .unwrap_or((LoopScope::Owned, false));
                ScheduleLoop {
                    decl: p.decl.clone(),
                    scope,
                    rebinds,
                }
            })
            .collect();
        ScheduleTrace {
            app: app.into(),
            steps: rec.steps(),
            particle_sets: particle_sets.iter().map(|s| s.to_string()).collect(),
            dat_sets: dat_sets
                .iter()
                .map(|(d, s)| (d.to_string(), s.to_string()))
                .collect(),
            loops,
            events: rec.events(),
        }
    }

    pub fn loop_named(&self, name: &str) -> Option<&ScheduleLoop> {
        self.loops.iter().find(|l| l.decl.name == name)
    }

    /// Home set of a dat (`None` when undeclared).
    pub fn set_of(&self, dat: &str) -> Option<&str> {
        self.dat_sets
            .iter()
            .find(|(d, _)| d == dat)
            .map(|(_, s)| s.as_str())
    }

    /// Whether a dat lives on a particle set (or names one directly,
    /// as migrate events do).
    pub fn is_particle_data(&self, dat: &str) -> bool {
        if self.particle_sets.iter().any(|s| s == dat) {
            return true;
        }
        self.set_of(dat)
            .is_some_and(|s| self.particle_sets.iter().any(|p| p == s))
    }

    /// Serialize to the `oppic-schedule-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"schema\": {},\n",
            json::quote(SCHEDULE_SCHEMA)
        ));
        s.push_str(&format!("  \"app\": {},\n", json::quote(&self.app)));
        s.push_str(&format!("  \"steps\": {},\n", self.steps));
        s.push_str("  \"particle_sets\": [");
        for (i, p) in self.particle_sets.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json::quote(p));
        }
        s.push_str("],\n  \"dats\": [");
        for (i, (d, set)) in self.dat_sets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"name\": {}, \"set\": {}}}",
                json::quote(d),
                json::quote(set)
            ));
        }
        s.push_str("\n  ],\n  \"loops\": [");
        for (i, l) in self.loops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"name\": {}, \"set\": {}, \"scope\": {}, \"rebinds\": {}, \"args\": [",
                json::quote(&l.decl.name),
                json::quote(&l.decl.iter_set),
                json::quote(l.scope.label()),
                l.rebinds
            ));
            for (k, a) in l.decl.args.iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "{{\"dat\": {}, \"dim\": {}, \"access\": {}, \"ind\": {}, \"map\": {}}}",
                    json::quote(&a.dat),
                    a.dim,
                    json::quote(access_label(a.access)),
                    json::quote(ind_label(a.indirection)),
                    json::quote(&a.map)
                ));
            }
            s.push_str("]}");
        }
        s.push_str("\n  ],\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match &e.event {
                ScheduleEvent::Loop { name } => s.push_str(&format!(
                    "\n    {{\"step\": {}, \"kind\": \"loop\", \"name\": {}}}",
                    e.step,
                    json::quote(name)
                )),
                ScheduleEvent::Exchange { dat, dir, tag } => s.push_str(&format!(
                    "\n    {{\"step\": {}, \"kind\": \"exchange\", \"dat\": {}, \"dir\": {}, \"tag\": {}}}",
                    e.step,
                    json::quote(dat),
                    json::quote(dir.label()),
                    json::quote(tag)
                )),
            }
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parse a document produced by [`ScheduleTrace::to_json`].
    pub fn from_json(src: &str) -> Result<Self, String> {
        let doc = json::parse(src)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("trace missing \"schema\"")?;
        if schema != SCHEDULE_SCHEMA {
            return Err(format!(
                "unsupported schedule schema {schema:?} (want {SCHEDULE_SCHEMA:?})"
            ));
        }
        let app = doc
            .get("app")
            .and_then(Json::as_str)
            .ok_or("trace missing \"app\"")?
            .to_string();
        let steps = doc.get("steps").and_then(Json::as_u64).unwrap_or(0) as u32;
        let particle_sets = doc
            .get("particle_sets")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str().map(String::from))
            .collect();
        let mut dat_sets = Vec::new();
        for d in doc.get("dats").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = d
                .get("name")
                .and_then(Json::as_str)
                .ok_or("dat sans name")?;
            let set = d.get("set").and_then(Json::as_str).ok_or("dat sans set")?;
            dat_sets.push((name.to_string(), set.to_string()));
        }
        let mut loops = Vec::new();
        for l in doc.get("loops").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = l
                .get("name")
                .and_then(Json::as_str)
                .ok_or("loop sans name")?;
            let set = l.get("set").and_then(Json::as_str).ok_or("loop sans set")?;
            let scope = l
                .get("scope")
                .and_then(Json::as_str)
                .and_then(LoopScope::from_label)
                .ok_or_else(|| format!("loop {name:?}: bad scope"))?;
            let rebinds = l.get("rebinds").and_then(Json::as_bool).unwrap_or(false);
            let mut args = Vec::new();
            for a in l.get("args").and_then(Json::as_arr).unwrap_or(&[]) {
                let dat = a.get("dat").and_then(Json::as_str).ok_or("arg sans dat")?;
                let dim = a.get("dim").and_then(Json::as_u64).unwrap_or(1) as usize;
                let access = a
                    .get("access")
                    .and_then(Json::as_str)
                    .and_then(access_from_label)
                    .ok_or_else(|| format!("arg {dat:?}: bad access"))?;
                let ind = a
                    .get("ind")
                    .and_then(Json::as_str)
                    .and_then(ind_from_label)
                    .ok_or_else(|| format!("arg {dat:?}: bad indirection"))?;
                let map = a.get("map").and_then(Json::as_str).unwrap_or("");
                args.push(ArgDecl {
                    dat: dat.to_string(),
                    dim,
                    access,
                    indirection: ind,
                    map: map.to_string(),
                });
            }
            loops.push(ScheduleLoop {
                decl: LoopDecl::new(name, set, args),
                scope,
                rebinds,
            });
        }
        let mut events = Vec::new();
        for e in doc.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
            let step = e.get("step").and_then(Json::as_u64).unwrap_or(1) as u32;
            let kind = e
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("event sans kind")?;
            let event = match kind {
                "loop" => ScheduleEvent::Loop {
                    name: e
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("loop event sans name")?
                        .to_string(),
                },
                "exchange" => ScheduleEvent::Exchange {
                    dat: e
                        .get("dat")
                        .and_then(Json::as_str)
                        .ok_or("exchange sans dat")?
                        .to_string(),
                    dir: e
                        .get("dir")
                        .and_then(Json::as_str)
                        .and_then(ExchangeDir::from_label)
                        .ok_or("exchange with bad dir")?,
                    tag: e
                        .get("tag")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                },
                other => return Err(format!("unknown event kind {other:?}")),
            };
            events.push(TraceEvent { step, event });
        }
        Ok(ScheduleTrace {
            app,
            steps,
            particle_sets,
            dat_sets,
            loops,
            events,
        })
    }
}

fn access_label(a: Access) -> &'static str {
    match a {
        Access::Read => "read",
        Access::Write => "write",
        Access::Inc => "inc",
        Access::ReadWrite => "rw",
    }
}

fn access_from_label(s: &str) -> Option<Access> {
    Some(match s {
        "read" => Access::Read,
        "write" => Access::Write,
        "inc" => Access::Inc,
        "rw" => Access::ReadWrite,
        _ => return None,
    })
}

fn ind_label(i: Indirection) -> &'static str {
    match i {
        Indirection::Direct => "direct",
        Indirection::Indirect => "indirect",
        Indirection::Double => "double",
    }
}

fn ind_from_label(s: &str) -> Option<Indirection> {
    Some(match s {
        "direct" => Indirection::Direct,
        "indirect" => Indirection::Indirect,
        "double" => Indirection::Double,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parloop::ExecPolicy;
    use crate::plan::LoopPlan;

    fn sample_trace() -> ScheduleTrace {
        let rec = ScheduleRecorder::new();
        rec.begin_step();
        rec.record_loop("Deposit");
        rec.record_exchange("charge", ExchangeDir::ReduceSum, "t/charge");
        rec.begin_step();
        rec.record_loop("Deposit");
        rec.record_exchange("charge", ExchangeDir::ReduceSum, "t/charge");

        let mut plans = PlanRegistry::new();
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "Deposit",
                "particles",
                vec![
                    ArgDecl::direct("w", 4, Access::Read),
                    ArgDecl::double_indirect("charge", 1, Access::Inc, "p2c.c2n"),
                ],
            ),
            &ExecPolicy::Seq,
        ));
        ScheduleTrace::from_recording(
            "test",
            &plans,
            &[("Deposit", LoopScope::Owned, false)],
            &["particles"],
            &[("w", "particles"), ("charge", "nodes")],
            &rec,
        )
    }

    #[test]
    fn recorder_stamps_steps_and_order() {
        let t = sample_trace();
        assert_eq!(t.steps, 2);
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.events[0].step, 1);
        assert_eq!(t.events[3].step, 2);
        assert!(matches!(t.events[1].event, ScheduleEvent::Exchange { .. }));
    }

    #[test]
    fn trace_roundtrips_through_json() {
        let t = sample_trace();
        let j = t.to_json();
        let back = ScheduleTrace::from_json(&j).expect("roundtrip");
        assert_eq!(back.app, "test");
        assert_eq!(back.steps, 2);
        assert_eq!(back.events, t.events);
        assert_eq!(back.loops.len(), 1);
        let l = &back.loops[0];
        assert_eq!(l.decl.name, "Deposit");
        assert_eq!(l.scope, LoopScope::Owned);
        assert_eq!(l.decl.args.len(), 2);
        assert_eq!(l.decl.args[1].access, Access::Inc);
        assert_eq!(l.decl.args[1].indirection, Indirection::Double);
        assert!(back.is_particle_data("w"));
        assert!(!back.is_particle_data("charge"));
        assert!(back.is_particle_data("particles"));
    }

    #[test]
    fn bad_documents_are_rejected_with_context() {
        assert!(ScheduleTrace::from_json("{}").is_err());
        let wrong_schema = "{\"schema\": \"nope\", \"app\": \"x\"}";
        let err = ScheduleTrace::from_json(wrong_schema).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        // The halo directions are not part of the vocabulary.
        let good = sample_trace().to_json();
        let forward = good.replacen("\"reduce_sum\"", "\"forward\"", 1);
        assert_ne!(forward, good);
        let err = ScheduleTrace::from_json(&forward).unwrap_err();
        assert!(err.contains("bad dir"), "{err}");
    }
}
