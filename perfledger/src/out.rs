//! The run's printed output: a small JSON object builder, the metric
//! list, and the two lines every run ends with.

use std::fmt::Write;

/// An insertion-ordered JSON object, rendered on [`Obj::render`].
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

/// JSON string literal with the escapes JSON requires.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON syntax with all its digits; non-finite
/// values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, number(v))
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, quote(v))
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.raw(key, v.to_string())
    }

    pub fn obj(&mut self, key: &str, v: Obj) -> &mut Self {
        self.raw(key, v.render())
    }

    pub fn list(&mut self, key: &str, items: Vec<Obj>) -> &mut Self {
        let body: Vec<String> = items.into_iter().map(|o| o.render()).collect();
        self.raw(key, format!("[{}]", body.join(",")))
    }

    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.fields.push((key.to_string(), json));
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), v))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metric list with a terse push helper.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn to_obj(&self) -> Obj {
        let mut o = Obj::new();
        for m in &self.0 {
            let mut v = Obj::new();
            v.num("value", m.value).str("unit", m.unit);
            o.obj(&m.name, v);
        }
        o
    }
}

/// What a workload hands back to `main`: the verdict, the operation
/// counts, the metrics for the requested mode, and the detail record.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub detail: Obj,
}

impl RunOutput {
    /// The result line, printed last.
    pub fn result_line(&self) -> String {
        let mut o = Obj::new();
        o.bool("correct", self.correct)
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .obj("metrics", self.metrics.to_obj());
        o.render()
    }
}
