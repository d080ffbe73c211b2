//! Loop plans — a declared loop paired with its execution choice.
//!
//! In the C++ OP-PIC the code generator sees every `opp_par_loop` call
//! with its access descriptors and *derives* a safe execution scheme
//! (sequential, atomics, scatter arrays, colored...). This runtime
//! reproduction inverts that: the application picks an executor and a
//! race strategy by hand. A [`LoopPlan`] records that pairing so the
//! choice can be *checked* instead of generated — statically by
//! `oppic-analyzer`, and cheaply at declaration time by
//! [`LoopPlan::quick_check`].

use crate::access::{Access, Indirection, LoopDecl};
use crate::deposit::DepositMethod;
use crate::parloop::ExecPolicy;

/// How a plan resolves write races from indirect increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceStrategy {
    /// No race handling: only sound for direct loops or sequential
    /// execution.
    None,
    /// One of the deposit-loop methods (scatter arrays, atomics,
    /// segmented reduction, or an explicitly serial deposit).
    Deposit(DepositMethod),
    /// Distance-2 cell coloring: same-color iterations never share a
    /// target element, so each color round is race-free.
    Colored,
}

impl RaceStrategy {
    /// Whether this strategy makes concurrent indirect increments safe.
    /// `Deposit(Serial)` counts: it is *safe* (it falls back to
    /// sequential execution), merely not parallel — the analyzer
    /// reports that mismatch as a warning, not an error.
    pub fn handles_races(self) -> bool {
        !matches!(self, RaceStrategy::None)
    }

    pub fn label(self) -> String {
        match self {
            RaceStrategy::None => "none".to_string(),
            RaceStrategy::Deposit(m) => format!("deposit:{}", m.label()),
            RaceStrategy::Colored => "colored".to_string(),
        }
    }
}

/// A declared loop bound to the execution policy and race strategy the
/// application actually runs it with.
#[derive(Debug, Clone)]
pub struct LoopPlan {
    pub decl: LoopDecl,
    /// Whether the chosen policy runs iterations concurrently.
    pub parallel: bool,
    /// Worker count under that policy (1 when sequential).
    pub threads: usize,
    pub race_strategy: RaceStrategy,
}

impl LoopPlan {
    pub fn new(decl: LoopDecl, policy: &ExecPolicy, race_strategy: RaceStrategy) -> Self {
        LoopPlan {
            decl,
            parallel: policy.is_parallel(),
            threads: policy.threads(),
            race_strategy,
        }
    }

    /// A plan for a loop with no indirect increments.
    pub fn direct(decl: LoopDecl, policy: &ExecPolicy) -> Self {
        LoopPlan::new(decl, policy, RaceStrategy::None)
    }

    pub fn name(&self) -> &str {
        &self.decl.name
    }

    /// The cheap subset of the analyzer's static pass, suitable for
    /// running at loop-declaration time: per-argument descriptor
    /// coherence plus the fatal plan rule — a parallel loop with an
    /// indirect increment and no race strategy is a data race.
    pub fn quick_check(&self) -> Result<(), String> {
        self.decl.validate()?;
        if self.parallel && self.decl.needs_race_handling() && !self.race_strategy.handles_races() {
            return Err(format!(
                "loop '{}': indirect INC under a parallel policy needs a race \
                 strategy (scatter/atomics/segmented/colored), plan has none",
                self.decl.name
            ));
        }
        Ok(())
    }
}

/// Every loop an application declares, collected for whole-program
/// auditing — the analyzer's unit of work.
#[derive(Debug, Clone, Default)]
pub struct PlanRegistry {
    plans: Vec<LoopPlan>,
}

impl PlanRegistry {
    pub fn new() -> Self {
        PlanRegistry::default()
    }

    pub fn register(&mut self, plan: LoopPlan) -> &mut Self {
        self.plans.push(plan);
        self
    }

    pub fn plans(&self) -> &[LoopPlan] {
        &self.plans
    }

    pub fn get(&self, name: &str) -> Option<&LoopPlan> {
        self.plans.iter().find(|p| p.decl.name == name)
    }

    pub fn len(&self) -> usize {
        self.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Human-readable dump of every plan (used by `--validate`).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for p in &self.plans {
            let mode = if p.parallel {
                format!("parallel x{}", p.threads)
            } else {
                "sequential".to_string()
            };
            let _ = writeln!(s, "{} [{mode}, races: {}]", p.decl, p.race_strategy.label());
        }
        s
    }
}

/// Does a plan contain an indirect (or double-indirect) increment?
/// Convenience re-statement of [`LoopDecl::needs_race_handling`] at
/// plan level, used by the analyzer's strategy checks.
pub fn has_indirect_inc(decl: &LoopDecl) -> bool {
    decl.args
        .iter()
        .any(|a| a.access == Access::Inc && a.indirection != Indirection::Direct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::ArgDecl;

    fn deposit_decl() -> LoopDecl {
        LoopDecl::new(
            "DepositCharge",
            "particles",
            vec![
                ArgDecl::direct("lc", 4, Access::Read),
                ArgDecl::double_indirect("node_charge", 1, Access::Inc, "p2c.c2n"),
            ],
        )
    }

    #[test]
    fn racy_parallel_plan_is_rejected() {
        let plan = LoopPlan::new(deposit_decl(), &ExecPolicy::Par, RaceStrategy::None);
        let err = plan.quick_check().unwrap_err();
        assert!(err.contains("race strategy"), "{err}");
    }

    #[test]
    fn sequential_plan_needs_no_strategy() {
        let plan = LoopPlan::new(deposit_decl(), &ExecPolicy::Seq, RaceStrategy::None);
        assert!(plan.quick_check().is_ok());
    }

    #[test]
    fn strategies_make_parallel_deposits_coherent() {
        for strat in [
            RaceStrategy::Deposit(DepositMethod::ScatterArrays),
            RaceStrategy::Deposit(DepositMethod::Atomics),
            RaceStrategy::Deposit(DepositMethod::SegmentedReduction),
            RaceStrategy::Colored,
        ] {
            let plan = LoopPlan::new(deposit_decl(), &ExecPolicy::Par, strat);
            assert!(plan.quick_check().is_ok(), "{strat:?}");
        }
    }

    #[test]
    fn registry_collects_and_finds_plans() {
        let mut reg = PlanRegistry::new();
        reg.register(LoopPlan::direct(
            LoopDecl::new(
                "CalcPosVel",
                "particles",
                vec![ArgDecl::direct("pos", 3, Access::ReadWrite)],
            ),
            &ExecPolicy::Seq,
        ));
        reg.register(LoopPlan::new(
            deposit_decl(),
            &ExecPolicy::Par,
            RaceStrategy::Colored,
        ));
        assert_eq!(reg.len(), 2);
        assert!(reg.get("DepositCharge").is_some());
        assert!(reg.get("missing").is_none());
        let s = reg.summary();
        assert!(s.contains("CalcPosVel") && s.contains("colored"), "{s}");
    }
}
