//! The JSON line a pass prints, and the one ratio helper the layers use.

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// `key: value` pairs rendered as one JSON object, in insertion order.
#[derive(Debug, Default)]
pub struct Notes {
    entries: Vec<(String, String)>,
}

impl Notes {
    /// A number, with every digit it needs to round-trip.
    pub fn num(&mut self, key: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.raw(key, format!("{value:?}"));
    }

    pub fn text(&mut self, key: &str, value: &str) {
        self.raw(key, format!("\"{value}\""));
    }

    /// Already-rendered JSON.
    pub fn raw(&mut self, key: &str, json: String) {
        self.entries.push((key.to_string(), json));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
