//! Diagnostics — the analyzer's structured findings.
//!
//! Every pass (static plan validation, shadow race detection, map
//! audits) reports through the same [`Diagnostic`] record with a
//! three-level severity lattice, so drivers can aggregate the passes
//! into one [`Report`] and derive a single exit code.

/// Severity lattice: `Info < Warn < Error`. Only `Error` findings make
/// `--validate` exit non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Observation: nothing wrong, worth knowing (e.g. an unused race
    /// strategy).
    Info,
    /// Legal but suspicious: the plan is sound yet probably not what
    /// was meant (e.g. a serial deposit under a parallel policy).
    Warn,
    /// Incoherent plan or violated invariant: running it risks wrong
    /// answers or undefined behaviour.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding, attributed to a loop, map, or set by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable machine-readable code, `pass/rule` shaped (e.g.
    /// `"plan/racy-inc"`, `"map/out-of-range"`, `"race/conflict"`).
    pub code: &'static str,
    /// The loop / map / set the finding is about.
    pub subject: String,
    pub message: String,
}

impl Diagnostic {
    pub fn error(
        code: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            subject: subject.into(),
            message: message.into(),
        }
    }

    pub fn warn(
        code: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warn,
            code,
            subject: subject.into(),
            message: message.into(),
        }
    }

    pub fn info(
        code: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Info,
            code,
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.subject, self.message
        )
    }
}

/// An ordered collection of findings from one or more passes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub diags: Vec<Diagnostic>,
}

impl Report {
    pub fn new() -> Self {
        Report::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    pub fn extend(&mut self, diags: impl IntoIterator<Item = Diagnostic>) {
        self.diags.extend(diags);
    }

    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// The worst severity present, or `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diags.iter().map(|d| d.severity).max()
    }

    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }

    /// Findings with the given code (test convenience).
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diags.iter().filter(|d| d.code == code).collect()
    }

    /// Process exit code for `--validate`-style drivers: 1 when any
    /// `Error` finding exists, else 0.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.has_errors())
    }

    /// Exit code under an optional `--strict` policy: strict runs also
    /// fail on `Warn` findings (a clean-but-for-notes report still
    /// exits 0 either way).
    pub fn exit_code_strict(&self, strict: bool) -> i32 {
        if strict {
            i32::from(self.max_severity().is_some_and(|s| s >= Severity::Warn))
        } else {
            self.exit_code()
        }
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} note(s)",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_as_a_lattice() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(
            [Severity::Warn, Severity::Error, Severity::Info]
                .iter()
                .max(),
            Some(&Severity::Error)
        );
    }

    #[test]
    fn report_aggregates_and_exits() {
        let mut r = Report::new();
        assert!(r.diags.is_empty());
        assert_eq!(r.exit_code(), 0);
        r.push(Diagnostic::info("plan/unused-strategy", "L", "note"));
        // Notes alone never fail, strict or not.
        assert_eq!(r.exit_code_strict(true), 0);
        r.push(Diagnostic::warn("plan/serialised-deposit", "L", "warn"));
        assert_eq!(r.max_severity(), Some(Severity::Warn));
        assert_eq!(r.exit_code(), 0);
        // Regression: --strict must promote Warn findings to failure.
        assert_eq!(r.exit_code_strict(true), 1);
        assert_eq!(r.exit_code_strict(false), 0);
        r.push(Diagnostic::error("plan/racy-inc", "L", "boom"));
        assert!(r.has_errors());
        assert_eq!(r.exit_code(), 1);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.with_code("plan/racy-inc").len(), 1);
        let text = r.to_string();
        assert!(text.contains("error[plan/racy-inc]"), "{text}");
        assert!(
            text.contains("1 error(s), 1 warning(s), 1 note(s)"),
            "{text}"
        );
    }
}
