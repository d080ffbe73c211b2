//! Whole-step dataflow analysis — inter-loop dependence auditing over
//! a recorded [`ScheduleTrace`].
//!
//! The static pass ([`crate::static_check`]) proves each loop plan
//! coherent *in isolation*; the hazards that remain live *between*
//! loops: a deposit whose halo contributions are consumed before the
//! exchange that folds them home, an exchange nothing dirtied, a
//! fusion that would reorder a producer past its consumer. This module
//! lifts a recorded schedule (the sequence of loops, halo exchanges,
//! and global reductions one or more steps executed — see
//! `oppic_core::schedule`) plus the static access descriptors into a
//! per-dat dependence DAG and runs three verdict passes on the usual
//! Info/Warn/Error lattice:
//!
//! 1. **halo-staleness** (`dataflow/halo-stale`, Error) — a loop reads
//!    a halo region a prior loop dirtied with no intervening exchange,
//!    or reads a dat whose ghost-side increments are still unfolded.
//! 2. **redundant-comm** (`dataflow/redundant-comm`, Warn) — an
//!    exchange whose dat was not written since the last exchange.
//! 3. **fusion legality** (`dataflow/fusable`, Info) — adjacent loops
//!    over the same set with no dependence edge between them.
//!
//! The dependence model distinguishes *owned* writes (each rank
//! updates its owned region; foreign ghost copies of those elements go
//! stale) from *partial* increments (an owned-scope indirect `INC`
//! lands contributions in ghost copies; every rank's value is a
//! partial sum until a reverse/reduce folds them). Replicated-scope
//! plain writes re-establish consistency: every rank overwrites the
//! full array with identical values (provided its inputs were
//! consistent — which pass 1 checks).

use crate::diag::{Diagnostic, Report, Severity};
use oppic_core::json::{self, Json};
use oppic_core::schedule::{
    ExchangeDir, LoopScope, ScheduleEvent, ScheduleLoop, ScheduleTrace, TraceEvent,
};
use oppic_core::{Access, Indirection};
use std::collections::BTreeMap;

/// Report format identifier; `ci.sh` gates on it to detect drift.
pub const REPORT_SCHEMA: &str = "oppic-schedule-report-v2";

/// Dependence edge kind between two schedule events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Read-after-write: true dataflow.
    Raw,
    /// Write-after-read: anti-dependence.
    War,
    /// Write-after-write: output dependence.
    Waw,
}

impl DepKind {
    pub fn label(self) -> &'static str {
        match self {
            DepKind::Raw => "raw",
            DepKind::War => "war",
            DepKind::Waw => "waw",
        }
    }
}

/// One dependence edge, indexing into [`ScheduleTrace::events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    pub dat: String,
    pub kind: DepKind,
}

/// Two adjacent loops over the same set with no dependence between
/// them — a legal fusion (one kernel launch, one sweep over the set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionCandidate {
    pub first: String,
    pub second: String,
    pub set: String,
}

/// The full audit result: verdicts plus the artifacts the verdicts
/// were derived from.
#[derive(Debug, Clone)]
pub struct ScheduleAudit {
    pub app: String,
    pub steps: u32,
    pub report: Report,
    /// Raw per-event dependence edges (every occurrence, not deduped).
    pub edges: Vec<Edge>,
    pub fusions: Vec<FusionCandidate>,
    /// Display label per event (loop name or `dir(dat)`).
    pub labels: Vec<String>,
}

/// What one event does to one dat, merged across arguments.
#[derive(Debug, Clone, Default)]
struct Touch {
    reads: bool,
    writes: bool,
}

fn event_label(ev: &TraceEvent) -> String {
    match &ev.event {
        ScheduleEvent::Loop { name } => name.clone(),
        ScheduleEvent::Exchange { dat, dir, .. } => format!("{}({dat})", dir.label()),
    }
}

/// Merged dat footprint of an event. Loops touch their declared args;
/// point-data exchanges read+write their dat; a migration re-homes
/// every dat on the particle set (plus the set itself, standing in for
/// the particle→cell binding).
fn event_touches(trace: &ScheduleTrace, ev: &TraceEvent) -> BTreeMap<String, Touch> {
    let mut touches: BTreeMap<String, Touch> = BTreeMap::new();
    match &ev.event {
        ScheduleEvent::Loop { name } => {
            if let Some(l) = trace.loop_named(name) {
                for a in &l.decl.args {
                    let t = touches.entry(a.dat.clone()).or_default();
                    t.reads |= a.access.reads();
                    t.writes |= a.access.writes();
                }
            }
        }
        ScheduleEvent::Exchange { dat, dir, .. } => {
            if *dir == ExchangeDir::Migrate {
                for (d, s) in &trace.dat_sets {
                    if s == dat {
                        touches.insert(
                            d.clone(),
                            Touch {
                                reads: true,
                                writes: true,
                            },
                        );
                    }
                }
            }
            touches.insert(
                dat.clone(),
                Touch {
                    reads: true,
                    writes: true,
                },
            );
        }
    }
    touches
}

/// Build the per-dat dependence DAG over the whole event sequence.
fn build_edges(trace: &ScheduleTrace) -> Vec<Edge> {
    let mut edges = Vec::new();
    let mut last_writer: BTreeMap<String, usize> = BTreeMap::new();
    let mut readers: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, ev) in trace.events.iter().enumerate() {
        for (dat, t) in event_touches(trace, ev) {
            if t.reads {
                if let Some(&w) = last_writer.get(&dat) {
                    edges.push(Edge {
                        from: w,
                        to: i,
                        dat: dat.clone(),
                        kind: DepKind::Raw,
                    });
                }
            }
            if t.writes {
                if let Some(&w) = last_writer.get(&dat) {
                    edges.push(Edge {
                        from: w,
                        to: i,
                        dat: dat.clone(),
                        kind: DepKind::Waw,
                    });
                }
                for &r in readers.get(&dat).map_or(&[][..], |v| v) {
                    if r != i {
                        edges.push(Edge {
                            from: r,
                            to: i,
                            dat: dat.clone(),
                            kind: DepKind::War,
                        });
                    }
                }
                last_writer.insert(dat.clone(), i);
                readers.remove(&dat);
            }
            if t.reads {
                readers.entry(dat).or_default().push(i);
            }
        }
    }
    edges
}

/// Per-dat halo state carried across the event walk. Both fields name
/// the event that put the dat in that state, for the diagnostics.
#[derive(Debug, Clone, Default)]
struct DatState {
    /// Foreign ghost copies of this dat are stale: an owned-scope loop
    /// (or a reverse_add, which zeroes ghosts) rewrote owner values
    /// and no forward/reduce has refreshed the halo since.
    stale_halo: Option<String>,
    /// Ghost-side increments are unfolded: an owned-scope indirect INC
    /// left every rank holding a partial sum.
    pending_partial: Option<String>,
}

fn scoped_read_touches_halo(scope: LoopScope, ind: Indirection) -> bool {
    // An owned-scope *direct* read touches only the reader's owned
    // region, which its own writes keep fresh. Any indirect access can
    // land in the ghost layer, and a replicated-scope loop sweeps the
    // full (conceptually ghost-inclusive) array.
    ind != Indirection::Direct || scope == LoopScope::Replicated
}

/// Walk the event sequence with the halo state machine, producing the
/// staleness/redundancy/migration verdicts.
fn verdict_walk(trace: &ScheduleTrace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut dats: BTreeMap<String, DatState> = BTreeMap::new();
    // Particle sets with particles sitting in foreign-owned cells
    // (a mover ran, no migration yet), with the mover's name.
    let mut unmigrated: BTreeMap<String, String> = BTreeMap::new();

    for ev in &trace.events {
        match &ev.event {
            ScheduleEvent::Loop { name } => {
                let Some(l) = trace.loop_named(name) else {
                    diags.push(Diagnostic::error(
                        "dataflow/unknown-loop",
                        name.clone(),
                        format!(
                            "step {}: trace event names a loop with no declared plan",
                            ev.step
                        ),
                    ));
                    continue;
                };
                check_loop(trace, l, ev.step, &mut dats, &unmigrated, &mut diags);
                if l.rebinds {
                    unmigrated.insert(l.decl.iter_set.clone(), l.decl.name.clone());
                }
            }
            ScheduleEvent::Exchange { dat, dir, tag } => {
                check_exchange(
                    trace,
                    ev.step,
                    dat,
                    *dir,
                    tag,
                    &mut dats,
                    &mut unmigrated,
                    &mut diags,
                );
            }
        }
    }
    diags
}

fn check_loop(
    trace: &ScheduleTrace,
    l: &ScheduleLoop,
    step: u32,
    dats: &mut BTreeMap<String, DatState>,
    unmigrated: &BTreeMap<String, String>,
    diags: &mut Vec<Diagnostic>,
) {
    let name = &l.decl.name;
    // Particle dats are owned outright; the migration hazard is any
    // *indirect* access from a particle-set loop — it resolves through
    // a particle→cell binding that no migration has re-homed yet, so
    // foreign-cell accesses land on the wrong rank.
    if let Some(mover) = unmigrated.get(&l.decl.iter_set) {
        if let Some(a) = l
            .decl
            .args
            .iter()
            .find(|a| a.indirection != Indirection::Direct)
        {
            diags.push(Diagnostic::warn(
                "dataflow/unmigrated",
                format!("{}@{name}", l.decl.iter_set),
                format!(
                    "step {step}: '{name}' accesses '{}' through the particle→cell \
                     map, but '{mover}' moved particles and no migration has \
                     re-homed them; foreign-cell accesses resolve on the wrong rank",
                    a.dat
                ),
            ));
        }
    }
    for a in &l.decl.args {
        if trace.is_particle_data(&a.dat) {
            continue;
        }
        let st = dats.entry(a.dat.clone()).or_default();
        // Reads first: a RW/INC arg observes the pre-write state.
        if a.access.reads() {
            if let Some(writer) = &st.pending_partial {
                diags.push(Diagnostic::error(
                    "dataflow/halo-stale",
                    format!("{}@{name}", a.dat),
                    format!(
                        "step {step}: '{name}' reads '{}' while ghost increments from \
                         '{writer}' are unfolded — every rank holds a partial sum; a \
                         reverse_add or reduce_sum exchange must run first",
                        a.dat
                    ),
                ));
            } else if let Some(writer) = &st.stale_halo {
                if scoped_read_touches_halo(l.scope, a.indirection) {
                    diags.push(Diagnostic::error(
                        "dataflow/halo-stale",
                        format!("{}@{name}", a.dat),
                        format!(
                            "step {step}: '{name}' reads the halo region of '{}' dirtied \
                             by '{writer}' with no forward exchange in between",
                            a.dat
                        ),
                    ));
                }
            }
        }
        if a.access.writes() {
            match l.scope {
                LoopScope::Replicated => {
                    // Every rank applies the identical full-array
                    // update: the dat is consistent again.
                    st.stale_halo = None;
                    st.pending_partial = None;
                }
                LoopScope::Owned => {
                    if a.access == Access::Inc && a.indirection != Indirection::Direct {
                        st.pending_partial = Some(name.clone());
                    } else {
                        st.stale_halo = Some(name.clone());
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_exchange(
    trace: &ScheduleTrace,
    step: u32,
    dat: &str,
    dir: ExchangeDir,
    tag: &str,
    dats: &mut BTreeMap<String, DatState>,
    unmigrated: &mut BTreeMap<String, String>,
    diags: &mut Vec<Diagnostic>,
) {
    let subject = format!("{dat}@{tag}");
    if dir == ExchangeDir::Migrate {
        if !trace.particle_sets.iter().any(|s| s == dat) {
            diags.push(Diagnostic::error(
                "dataflow/unknown-dat",
                subject,
                format!("step {step}: migrate exchange names '{dat}', not a declared particle set"),
            ));
            return;
        }
        if unmigrated.remove(dat).is_none() {
            diags.push(Diagnostic::warn(
                "dataflow/redundant-comm",
                subject,
                format!(
                    "step {step}: migration of '{dat}' with no particle mover since the \
                     last migration — nothing can have left its rank"
                ),
            ));
        }
        return;
    }
    if trace.set_of(dat).is_none() {
        diags.push(Diagnostic::error(
            "dataflow/unknown-dat",
            subject,
            format!("step {step}: exchange names undeclared dat '{dat}'"),
        ));
        return;
    }
    let st = dats.entry(dat.to_string()).or_default();
    match dir {
        ExchangeDir::Forward => {
            if let Some(writer) = &st.pending_partial {
                diags.push(Diagnostic::error(
                    "dataflow/lost-update",
                    subject,
                    format!(
                        "step {step}: forward exchange of '{dat}' while ghost increments \
                         from '{writer}' are unfolded — owners push partial sums and \
                         overwrite the ghost-side contributions, losing them"
                    ),
                ));
                st.pending_partial = None;
            } else if st.stale_halo.is_none() {
                diags.push(Diagnostic::warn(
                    "dataflow/redundant-comm",
                    subject,
                    format!(
                        "step {step}: forward exchange of '{dat}', but no loop wrote it \
                         since its halo was last refreshed"
                    ),
                ));
            }
            st.stale_halo = None;
        }
        ExchangeDir::ReverseAdd => {
            if st.pending_partial.is_none() {
                diags.push(Diagnostic::warn(
                    "dataflow/redundant-comm",
                    subject,
                    format!(
                        "step {step}: reverse_add exchange of '{dat}' with no unfolded \
                         ghost increments to fold"
                    ),
                ));
            }
            st.pending_partial = None;
            // reverse_add zeroes the ghost copies after folding: owner
            // values are total, the halo is stale until a forward runs.
            st.stale_halo = Some(format!("reverse_add@{tag}"));
        }
        ExchangeDir::ReduceSum => {
            if st.pending_partial.is_none() && st.stale_halo.is_none() {
                diags.push(Diagnostic::warn(
                    "dataflow/redundant-comm",
                    subject,
                    format!(
                        "step {step}: reduce_sum of '{dat}', but no loop wrote it since \
                         the last exchange"
                    ),
                ));
            }
            st.stale_halo = None;
            st.pending_partial = None;
        }
        ExchangeDir::Migrate => unreachable!("handled above"),
    }
}

/// Adjacent same-set loop pairs with no dependence between them.
fn find_fusions(trace: &ScheduleTrace) -> Vec<FusionCandidate> {
    let mut out: Vec<FusionCandidate> = Vec::new();
    for w in trace.events.windows(2) {
        let (ScheduleEvent::Loop { name: a }, ScheduleEvent::Loop { name: b }) =
            (&w[0].event, &w[1].event)
        else {
            continue;
        };
        if w[0].step != w[1].step {
            continue;
        }
        let (Some(la), Some(lb)) = (trace.loop_named(a), trace.loop_named(b)) else {
            continue;
        };
        if la.decl.iter_set != lb.decl.iter_set || la.rebinds || lb.rebinds {
            continue;
        }
        let conflicts = la.decl.args.iter().any(|x| {
            lb.decl
                .args
                .iter()
                .any(|y| x.dat == y.dat && (x.access.writes() || y.access.writes()))
        });
        if conflicts {
            continue;
        }
        if !out.iter().any(|f| f.first == *a && f.second == *b) {
            out.push(FusionCandidate {
                first: a.clone(),
                second: b.clone(),
                set: la.decl.iter_set.clone(),
            });
        }
    }
    out
}

/// Run the full audit: DAG, verdict walk, fusion scan.
pub fn audit_schedule(trace: &ScheduleTrace) -> ScheduleAudit {
    let edges = build_edges(trace);
    let mut report = Report::new();

    // Dedup verdicts by (code, subject): a 2-step recording raises each
    // schedule defect once per step, but it is one defect.
    let mut seen: Vec<(&'static str, String)> = Vec::new();
    for d in verdict_walk(trace) {
        let key = (d.code, d.subject.clone());
        if !seen.contains(&key) {
            seen.push(key);
            report.push(d);
        }
    }

    let fusions = find_fusions(trace);
    for f in &fusions {
        report.push(Diagnostic::info(
            "dataflow/fusable",
            format!("{}+{}", f.first, f.second),
            format!(
                "adjacent loops over '{}' with no dependence between them: \
                 candidates for fusion into one sweep",
                f.set
            ),
        ));
    }

    let labels = trace.events.iter().map(event_label).collect();
    ScheduleAudit {
        app: trace.app.clone(),
        steps: trace.steps,
        report,
        edges,
        fusions,
        labels,
    }
}

impl ScheduleAudit {
    /// Name-level edges, deduped (the per-step repeats collapse).
    fn edge_rows(&self) -> Vec<(String, String, &str, &str)> {
        let mut rows: Vec<(String, String, &str, &str)> = Vec::new();
        for e in &self.edges {
            let row = (
                self.labels[e.from].clone(),
                self.labels[e.to].clone(),
                e.dat.as_str(),
                e.kind.label(),
            );
            if !rows.contains(&row) {
                rows.push(row);
            }
        }
        rows
    }

    /// The machine-readable `schedule-report.json` document.
    /// Deterministic for a given trace: no timestamps, no hash-order
    /// iteration — CI diffs it against the committed artifact.
    pub fn report_json(&self) -> String {
        let mut s = String::with_capacity(8192);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {},\n", json::quote(REPORT_SCHEMA)));
        s.push_str(&format!("  \"app\": {},\n", json::quote(&self.app)));
        s.push_str(&format!("  \"steps\": {},\n", self.steps));
        s.push_str(&format!(
            "  \"summary\": {{\"errors\": {}, \"warnings\": {}, \"notes\": {}}},\n",
            self.report.count(Severity::Error),
            self.report.count(Severity::Warn),
            self.report.count(Severity::Info)
        ));
        s.push_str("  \"verdicts\": [");
        for (i, d) in self.report.diags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"severity\": {}, \"code\": {}, \"subject\": {}, \"message\": {}}}",
                json::quote(&d.severity.to_string()),
                json::quote(d.code),
                json::quote(&d.subject),
                json::quote(&d.message)
            ));
        }
        s.push_str("\n  ],\n  \"edges\": [");
        for (i, (from, to, dat, kind)) in self.edge_rows().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"from\": {}, \"to\": {}, \"dat\": {}, \"kind\": {}}}",
                json::quote(from),
                json::quote(to),
                json::quote(dat),
                json::quote(kind)
            ));
        }
        s.push_str("\n  ],\n  \"fusions\": [");
        for (i, f) in self.fusions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"first\": {}, \"second\": {}, \"set\": {}}}",
                json::quote(&f.first),
                json::quote(&f.second),
                json::quote(&f.set)
            ));
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Graphviz rendering of the deduped dependence DAG: loops as
    /// boxes, exchanges as ellipses, edge style per dependence kind.
    pub fn dot(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("digraph schedule {\n  rankdir=LR;\n  node [fontsize=10];\n");
        let mut nodes: Vec<&String> = Vec::new();
        for l in &self.labels {
            if !nodes.contains(&l) {
                nodes.push(l);
                let shape = if l.contains('(') {
                    "ellipse, style=filled, fillcolor=lightblue"
                } else {
                    "box"
                };
                s.push_str(&format!("  \"{l}\" [shape={shape}];\n"));
            }
        }
        for (from, to, dat, kind) in self.edge_rows() {
            let style = match kind {
                "raw" => "solid",
                "war" => "dashed",
                _ => "dotted",
            };
            s.push_str(&format!(
                "  \"{from}\" -> \"{to}\" [label=\"{dat}\", style={style}];\n"
            ));
        }
        s.push_str("}\n");
        s
    }
}

/// Parse and audit a trace file's contents (the `--audit-schedule`
/// entry point's core).
pub fn audit_schedule_json(src: &str) -> Result<ScheduleAudit, String> {
    let trace = ScheduleTrace::from_json(src)?;
    Ok(audit_schedule(&trace))
}

/// Quick structural check that a report document still matches
/// [`REPORT_SCHEMA`] — the CI schema-drift gate.
pub fn check_report_schema(src: &str) -> Result<(), String> {
    let doc = json::parse(src)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == REPORT_SCHEMA => {}
        Some(s) => return Err(format!("report schema is {s:?}, want {REPORT_SCHEMA:?}")),
        None => return Err("report missing \"schema\" field".into()),
    }
    for key in ["app", "steps", "summary", "verdicts", "edges", "fusions"] {
        if doc.get(key).is_none() {
            return Err(format!("report missing {key:?} section"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_core::access::{ArgDecl, LoopDecl};
    use oppic_core::plan::LoopPlan;
    use oppic_core::schedule::ScheduleRecorder;
    use oppic_core::{ExecPolicy, PlanRegistry};

    /// A miniature PIC step: an owned particle deposit into a mesh dat,
    /// a replicated solve reading it, a replicated field update reading
    /// the solve's output.
    fn registry() -> PlanRegistry {
        let mut plans = PlanRegistry::new();
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "Move",
                "particles",
                vec![ArgDecl::direct("pos", 3, Access::ReadWrite)],
            ),
            &ExecPolicy::Seq,
        ));
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "Deposit",
                "particles",
                vec![
                    ArgDecl::direct("lc", 4, Access::Read),
                    ArgDecl::double_indirect("charge", 1, Access::Inc, "p2c.c2n"),
                ],
            ),
            &ExecPolicy::Seq,
        ));
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "Solve",
                "nodes",
                vec![
                    ArgDecl::direct("charge", 1, Access::Read),
                    ArgDecl::direct("phi", 1, Access::Write),
                ],
            ),
            &ExecPolicy::Seq,
        ));
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "FieldUpdate",
                "cells",
                vec![
                    ArgDecl::indirect("phi", 1, Access::Read, "c2n"),
                    ArgDecl::direct("efield", 3, Access::Write),
                ],
            ),
            &ExecPolicy::Seq,
        ));
        plans
    }

    fn scopes() -> Vec<(&'static str, LoopScope, bool)> {
        vec![
            ("Move", LoopScope::Owned, true),
            ("Deposit", LoopScope::Owned, false),
            ("Solve", LoopScope::Replicated, false),
            ("FieldUpdate", LoopScope::Replicated, false),
        ]
    }

    fn trace_of(steps: u32, per_step: &dyn Fn(&ScheduleRecorder)) -> ScheduleTrace {
        let rec = ScheduleRecorder::new();
        for _ in 0..steps {
            rec.begin_step();
            per_step(&rec);
        }
        ScheduleTrace::from_recording(
            "test",
            &registry(),
            &scopes(),
            &["particles"],
            &[
                ("pos", "particles"),
                ("lc", "particles"),
                ("charge", "nodes"),
                ("phi", "nodes"),
                ("efield", "cells"),
            ],
            &rec,
        )
    }

    fn full_step(rec: &ScheduleRecorder) {
        rec.record_loop("Move");
        rec.record_exchange("particles", ExchangeDir::Migrate, "t/mig");
        rec.record_loop("Deposit");
        rec.record_exchange("charge", ExchangeDir::ReduceSum, "t/charge");
        rec.record_loop("Solve");
        rec.record_loop("FieldUpdate");
    }

    #[test]
    fn valid_schedule_is_error_free() {
        let audit = audit_schedule(&trace_of(2, &full_step));
        assert!(
            !audit.report.has_errors(),
            "valid schedule must not error:\n{}",
            audit.report
        );
        assert_eq!(audit.report.count(Severity::Warn), 0, "{}", audit.report);
    }

    #[test]
    fn missing_reduce_is_a_halo_staleness_error() {
        let audit = audit_schedule(&trace_of(1, &|rec| {
            rec.record_loop("Move");
            rec.record_exchange("particles", ExchangeDir::Migrate, "t/mig");
            rec.record_loop("Deposit");
            rec.record_loop("Solve"); // reads partial charge
        }));
        let stale = audit.report.with_code("dataflow/halo-stale");
        assert_eq!(stale.len(), 1, "{}", audit.report);
        assert_eq!(stale[0].severity, Severity::Error);
        assert!(stale[0].subject.contains("charge"), "{}", stale[0]);
    }

    #[test]
    fn duplicate_exchange_is_redundant_comm() {
        let audit = audit_schedule(&trace_of(1, &|rec| {
            rec.record_loop("Move");
            rec.record_exchange("particles", ExchangeDir::Migrate, "t/mig");
            rec.record_loop("Deposit");
            rec.record_exchange("charge", ExchangeDir::ReduceSum, "t/charge");
            rec.record_exchange("charge", ExchangeDir::ReduceSum, "t/charge2");
            rec.record_loop("Solve");
            rec.record_loop("FieldUpdate");
        }));
        assert!(!audit.report.has_errors(), "{}", audit.report);
        let red = audit.report.with_code("dataflow/redundant-comm");
        assert_eq!(red.len(), 1, "{}", audit.report);
        assert!(red[0].subject.contains("t/charge2"), "{}", red[0]);
    }

    #[test]
    fn migration_without_mover_is_redundant_and_absent_migration_warns() {
        let audit = audit_schedule(&trace_of(1, &|rec| {
            rec.record_exchange("particles", ExchangeDir::Migrate, "t/mig");
        }));
        assert_eq!(
            audit.report.with_code("dataflow/redundant-comm").len(),
            1,
            "{}",
            audit.report
        );

        // Mover, then an indirect particle loop with no migration.
        let audit = audit_schedule(&trace_of(1, &|rec| {
            rec.record_loop("Move");
            rec.record_loop("Deposit");
            rec.record_exchange("charge", ExchangeDir::ReduceSum, "t/charge");
        }));
        let un = audit.report.with_code("dataflow/unmigrated");
        assert_eq!(un.len(), 1, "{}", audit.report);
        assert_eq!(un[0].severity, Severity::Warn);
    }

    #[test]
    fn unknown_loop_and_dat_are_errors() {
        let audit = audit_schedule(&trace_of(1, &|rec| {
            rec.record_loop("Nope");
            rec.record_exchange("mystery", ExchangeDir::Forward, "t/x");
        }));
        assert_eq!(audit.report.with_code("dataflow/unknown-loop").len(), 1);
        assert_eq!(audit.report.with_code("dataflow/unknown-dat").len(), 1);
        assert!(audit.report.has_errors());
    }

    #[test]
    fn forward_while_increments_pending_loses_updates() {
        let audit = audit_schedule(&trace_of(1, &|rec| {
            rec.record_loop("Deposit");
            rec.record_exchange("charge", ExchangeDir::Forward, "t/charge");
            rec.record_loop("Solve");
            rec.record_loop("FieldUpdate");
        }));
        assert_eq!(
            audit.report.with_code("dataflow/lost-update").len(),
            1,
            "{}",
            audit.report
        );
    }

    #[test]
    fn reverse_add_leaves_halo_stale_until_forward() {
        // reverse_add folds increments home but zeroes ghosts: an
        // indirect read right after must error, and a forward fixes it.
        let broken = audit_schedule(&trace_of(1, &|rec| {
            rec.record_loop("Deposit");
            rec.record_exchange("charge", ExchangeDir::ReverseAdd, "t/charge");
            rec.record_loop("Solve"); // replicated read of zeroed ghosts
        }));
        assert_eq!(broken.report.with_code("dataflow/halo-stale").len(), 1);

        let fixed = audit_schedule(&trace_of(1, &|rec| {
            rec.record_loop("Deposit");
            rec.record_exchange("charge", ExchangeDir::ReverseAdd, "t/charge");
            rec.record_exchange("charge", ExchangeDir::Forward, "t/charge-fwd");
            rec.record_loop("Solve");
            rec.record_loop("FieldUpdate");
        }));
        assert!(!fixed.report.has_errors(), "{}", fixed.report);
    }

    #[test]
    fn dag_has_the_expected_dependences() {
        let audit = audit_schedule(&trace_of(1, &full_step));
        let rows = audit.edge_rows();
        // Deposit produces charge, the reduce moves it, Solve consumes.
        assert!(rows.iter().any(|(f, t, d, k)| f == "Deposit"
            && t == "reduce_sum(charge)"
            && *d == "charge"
            && *k == "raw"));
        assert!(rows.iter().any(|(f, t, d, k)| f == "reduce_sum(charge)"
            && t == "Solve"
            && *d == "charge"
            && *k == "raw"));
        // Solve's phi feeds FieldUpdate.
        assert!(rows
            .iter()
            .any(|(f, t, d, k)| f == "Solve" && t == "FieldUpdate" && *d == "phi" && *k == "raw"));
    }

    #[test]
    fn fusion_scan_respects_dependences() {
        // Solve writes phi, FieldUpdate reads it: never fusable; and
        // they iterate different sets anyway. Two independent
        // replicated node loops are.
        let mut plans = registry();
        plans.register(LoopPlan::direct(
            LoopDecl::new(
                "Damp",
                "nodes",
                vec![ArgDecl::direct("efield_n", 3, Access::Write)],
            ),
            &ExecPolicy::Seq,
        ));
        let rec = ScheduleRecorder::new();
        rec.begin_step();
        rec.record_loop("Solve");
        rec.record_loop("Damp");
        let mut scopes = scopes();
        scopes.push(("Damp", LoopScope::Replicated, false));
        let trace = ScheduleTrace::from_recording(
            "test",
            &plans,
            &scopes,
            &["particles"],
            &[("charge", "nodes"), ("phi", "nodes"), ("efield_n", "nodes")],
            &rec,
        );
        let audit = audit_schedule(&trace);
        assert_eq!(
            audit.fusions,
            vec![FusionCandidate {
                first: "Solve".into(),
                second: "Damp".into(),
                set: "nodes".into(),
            }]
        );

        // No candidate when the pair conflicts.
        let audit = audit_schedule(&trace_of(1, &|rec| {
            rec.record_loop("Solve");
            rec.record_loop("FieldUpdate");
        }));
        assert!(audit.fusions.is_empty());
    }

    #[test]
    fn report_json_is_schema_valid_and_deterministic() {
        let audit = audit_schedule(&trace_of(2, &full_step));
        let a = audit.report_json();
        let b = audit_schedule(&trace_of(2, &full_step)).report_json();
        assert_eq!(a, b, "report must be deterministic");
        check_report_schema(&a).expect("schema-valid report");
        assert!(check_report_schema("{\"schema\": \"bogus\"}").is_err());
        let doc = json::parse(&a).expect("parseable report");
        assert_eq!(
            doc.get("summary")
                .and_then(|s| s.get("errors"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn dot_renders_nodes_and_edges() {
        let audit = audit_schedule(&trace_of(1, &full_step));
        let dot = audit.dot();
        assert!(dot.starts_with("digraph schedule {"), "{dot}");
        assert!(dot.contains("\"Deposit\""), "{dot}");
        assert!(dot.contains("reduce_sum(charge)"), "{dot}");
        assert!(dot.contains("->"), "{dot}");
    }
}
