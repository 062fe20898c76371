//! `marauder-lint` — a std-only determinism & safety linter for the
//! Marauder's Map workspace.
//!
//! The attack pipeline (M-Loc / AP-Rad / AP-Loc) is pure geometry over
//! captured probe sets, so the repo's headline guarantees — results
//! bit-identical at any worker count, stream replay byte-identical to
//! batch — make any source of nondeterminism a bug *by construction*.
//! End-to-end tests catch such bugs late and only on the seeds they
//! run; this crate catches them at the source level, before merge.
//!
//! The linter is four layers, each usable on its own:
//!
//! * [`lexer`] — a minimal panic-free Rust lexer,
//! * [`parse`] — a panic-free structural parser (items, bodies,
//!   match arms, field layouts) over the token stream,
//! * [`rules`] + [`structural`] — the invariant rules over a lexed
//!   (and, for the structural families, parsed) file,
//! * [`engine`] — workspace walking, `lint:allow` suppressions with
//!   mandatory reasons, stale-suppression detection, and the
//!   workspace-level [`schema`] wire-fingerprint check.
//!
//! Run it with `cargo run -p marauder-lint` from anywhere in the
//! workspace; configuration lives in `lint.toml` at the workspace
//! root. See `DESIGN.md` § "Static analysis" for the rule rationale.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod json;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod schema;
pub mod structural;

pub use sarif::render_sarif;

use marauder_obs::json::{Json, Layout};
use std::fmt;
use std::path::PathBuf;

/// Diagnostic severity. Both levels fail the run; the distinction is
/// informational (warnings point at lint hygiene, not invariants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One reported violation with a workspace-relative span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub rule: String,
    pub severity: Severity,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}]: {}",
            self.path,
            self.line,
            self.col,
            self.severity.as_str(),
            self.rule,
            self.message
        )
    }
}

/// Fatal engine errors (I/O, bad config) — distinct from diagnostics.
#[derive(Debug)]
pub enum LintError {
    Io(PathBuf, String),
    Config(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            LintError::Config(e) => write!(f, "{e}"),
        }
    }
}

/// Renders diagnostics one per line, followed by a summary line.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    if diags.is_empty() {
        out.push_str("marauder-lint: clean\n");
    } else {
        out.push_str(&format!(
            "marauder-lint: {errors} error{}, {warnings} warning{}\n",
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
        ));
    }
    out
}

/// Renders diagnostics as a JSON array (stable field order, sorted
/// spans) for the CI artifact: one diagnostic per line, `[]` when
/// there are none.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let layout = if diags.is_empty() {
        Layout::Inline
    } else {
        Layout::Block
    };
    let items = diags.iter().map(|d| {
        let members = [
            ("path", d.path.as_str().into()),
            ("line", d.line.into()),
            ("col", d.col.into()),
            ("rule", d.rule.as_str().into()),
            ("severity", d.severity.as_str().into()),
            ("message", d.message.as_str().into()),
        ];
        Json::obj(Layout::Inline, members)
    });
    Json::arr(layout, items).render()
}

#[cfg(test)]
use marauder_obs::json_string;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn render_shapes() {
        let d = Diagnostic {
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            rule: "no-wall-clock".into(),
            severity: Severity::Error,
            message: "msg".into(),
        };
        let human = render_human(std::slice::from_ref(&d));
        assert!(human.contains("crates/x/src/lib.rs:3:7: error[no-wall-clock]: msg"));
        assert!(human.contains("1 error, 0 warnings"));
        let json = render_json(std::slice::from_ref(&d));
        assert!(json.contains("\"rule\": \"no-wall-clock\""));
        assert!(render_human(&[]).contains("clean"));
        assert_eq!(render_json(&[]), "[]\n");
    }
}
