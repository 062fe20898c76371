//! The JSON reader the linter validates its own output with: the
//! workspace's one JSON module, [`marauder_obs::json`].

pub use marauder_obs::json::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true}, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn round_trips_linter_json_output() {
        let d = crate::Diagnostic {
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            rule: "no-wall-clock".into(),
            severity: crate::Severity::Error,
            message: "quoted \"msg\" with\nnewline".into(),
        };
        let v = parse(&crate::render_json(std::slice::from_ref(&d))).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("rule").unwrap().as_str(), Some("no-wall-clock"));
        assert_eq!(
            arr[0].get("message").unwrap().as_str(),
            Some("quoted \"msg\" with\nnewline")
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse(r#"["caf\u00e9", "naïve"]"#).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some("café"));
        assert_eq!(arr[1].as_str(), Some("naïve"));
    }
}
