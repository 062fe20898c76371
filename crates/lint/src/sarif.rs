//! SARIF 2.1.0 output — the interchange format CI code-scanning UIs
//! ingest.
//!
//! The renderer emits the minimal valid document: `version`,
//! `$schema`, one run with `tool.driver` (name, version, rule
//! metadata) and one `result` per diagnostic carrying `ruleId`,
//! `level`, `message.text` and a `physicalLocation` with a
//! `startLine`/`startColumn` region. [`validate`] re-parses the
//! document with [`crate::json`] and checks the SARIF 2.1.0
//! required-property subset, so a unit test (and the fixture CLI test)
//! can prove the output stays well-formed without a schema library.

use crate::Diagnostic;
use marauder_obs::json::{Json, Layout};
use std::collections::BTreeSet;

const SARIF_VERSION: &str = "2.1.0";
const SARIF_SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// Renders diagnostics as a SARIF 2.1.0 document. Stable field order
/// and diagnostic order (the engine sorts spans), so the artifact is
/// byte-reproducible for identical inputs.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let inline = |members: Vec<(&str, Json)>| Json::obj(Layout::Inline, members);
    let rules: BTreeSet<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
    let rules = rules
        .into_iter()
        .map(|rule| inline(vec![("id", rule.into())]));
    let driver = [
        ("name", "marauder-lint".into()),
        ("version", env!("CARGO_PKG_VERSION").into()),
        ("informationUri", "https://example.invalid/marauder".into()),
        ("rules", Json::arr(Layout::Block, rules)),
    ];
    let results = diags.iter().map(|d| {
        let region = vec![("startLine", d.line.into()), ("startColumn", d.col.into())];
        let place = vec![
            (
                "artifactLocation",
                inline(vec![("uri", d.path.as_str().into())]),
            ),
            ("region", inline(region)),
        ];
        let location = inline(vec![("physicalLocation", inline(place))]);
        let members = [
            ("ruleId", d.rule.as_str().into()),
            ("level", d.severity.as_str().into()),
            ("message", inline(vec![("text", d.message.as_str().into())])),
            ("locations", Json::arr(Layout::Inline, [location])),
        ];
        Json::obj(Layout::Block, members)
    });
    let tool = Json::obj(
        Layout::Block,
        [("driver", Json::obj(Layout::Block, driver))],
    );
    let results = ("results", Json::arr(Layout::Block, results));
    let run = Json::obj(Layout::Block, [("tool", tool), results]);
    let doc = Json::obj(
        Layout::Block,
        [
            ("version", SARIF_VERSION.into()),
            ("$schema", SARIF_SCHEMA.into()),
            ("runs", Json::arr(Layout::Block, [run])),
        ],
    );
    doc.render()
}

/// Checks `text` against the SARIF 2.1.0 required-property subset:
///
/// * top level: `version == "2.1.0"`, `runs` array
/// * each run: `tool.driver.name` string, `results` array
/// * each result: `ruleId` string, `message.text` string, and for this
///   linter's output a location with `artifactLocation.uri` plus a
///   positive `startLine`
///
/// Returns `Err` naming the first missing property.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = crate::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.get("version").and_then(|v| v.as_str()) != Some(SARIF_VERSION) {
        return Err(format!("`version` must be the string \"{SARIF_VERSION}\""));
    }
    let runs = doc
        .get("runs")
        .and_then(|v| v.as_arr())
        .ok_or("`runs` must be an array")?;
    if runs.is_empty() {
        return Err("`runs` must contain at least one run".to_string());
    }
    for (ri, run) in runs.iter().enumerate() {
        run.get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("name"))
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("runs[{ri}]: missing tool.driver.name"))?;
        let results = run
            .get("results")
            .and_then(|r| r.as_arr())
            .ok_or_else(|| format!("runs[{ri}]: `results` must be an array"))?;
        for (i, r) in results.iter().enumerate() {
            r.get("ruleId")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("results[{i}]: missing ruleId"))?;
            r.get("message")
                .and_then(|m| m.get("text"))
                .and_then(|t| t.as_str())
                .ok_or_else(|| format!("results[{i}]: missing message.text"))?;
            let loc = r
                .get("locations")
                .and_then(|l| l.as_arr())
                .and_then(|l| l.first())
                .and_then(|l| l.get("physicalLocation"))
                .ok_or_else(|| format!("results[{i}]: missing physicalLocation"))?;
            loc.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(|u| u.as_str())
                .ok_or_else(|| format!("results[{i}]: missing artifactLocation.uri"))?;
            let line = loc
                .get("region")
                .and_then(|g| g.get("startLine"))
                .and_then(|l| l.as_num())
                .ok_or_else(|| format!("results[{i}]: missing region.startLine"))?;
            if line < 1.0 {
                return Err(format!("results[{i}]: startLine must be >= 1"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
use crate::Severity;

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &str, msg: &str) -> Diagnostic {
        Diagnostic {
            path: "crates/core/src/lib.rs".into(),
            line: 12,
            col: 5,
            rule: rule.into(),
            severity: Severity::Error,
            message: msg.into(),
        }
    }

    #[test]
    fn sarif_output_validates() {
        let diags = vec![
            diag("determinism-taint", "tainted \"value\" reaches sink"),
            diag("wire-schema", "schema drift\nsecond line"),
        ];
        let text = render_sarif(&diags);
        validate(&text).unwrap();
        // Spot-check content survived rendering + re-parsing.
        let doc = crate::json::parse(&text).unwrap();
        let results = doc.get("runs").unwrap().as_arr().unwrap()[0]
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("ruleId").unwrap().as_str(),
            Some("determinism-taint")
        );
        assert_eq!(
            results[1]
                .get("message")
                .unwrap()
                .get("text")
                .unwrap()
                .as_str(),
            Some("schema drift\nsecond line")
        );
    }

    #[test]
    fn empty_run_validates() {
        validate(&render_sarif(&[])).unwrap();
    }

    #[test]
    fn validator_rejects_missing_properties() {
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"version": "2.1.0"}"#).is_err());
        assert!(
            validate(r#"{"version": "2.1.0", "runs": [{"results": []}]}"#)
                .unwrap_err()
                .contains("tool.driver.name")
        );
        let no_rule_id = r#"{"version": "2.1.0", "runs": [{
            "tool": {"driver": {"name": "x"}},
            "results": [{"message": {"text": "m"}}]
        }]}"#;
        assert!(validate(no_rule_id).unwrap_err().contains("ruleId"));
    }
}
