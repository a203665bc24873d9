//! Schema-versioned, machine-readable run artifacts.
//!
//! A [`RunArtifact`] is the JSON document `tbf --emit-metrics` writes
//! and the benches adopt for longitudinal tracking. Its layout contract:
//!
//! * the first member is always the `schema` header
//!   `{"name": "tbf-run-artifact", "version": 2}`;
//! * every other section appears in the order the producer added it,
//!   **except** `timing`, which is always serialized last;
//! * every section except `timing` is deterministic — byte-identical
//!   across thread counts, machines, and runs — so a consumer may diff
//!   artifacts after dropping the final `timing` member (see
//!   [`RunArtifact::deterministic_view`]).
//!
//! Versioning policy: `version` bumps on any change that removes or
//! re-types an existing key; purely additive keys keep the version.
//! Version 2 removed the variable-reordering counter and histogram;
//! version 3 removed the `gc_runs` and `unique_table_misses` counters
//! and the `histograms` section.
//! [`RunArtifact::validate`] accepts every version up to the current one.
//!
//! # Example
//!
//! ```
//! use tbf_obs::{json::Value, RunArtifact};
//! let mut a = RunArtifact::new();
//! a.section("circuit", Value::Obj(vec![("gates".into(), Value::u64(6))]));
//! let text = a.render();
//! let doc = RunArtifact::validate(&text).expect("schema-valid");
//! assert_eq!(doc.get("circuit").and_then(|c| c.get("gates")).and_then(Value::as_u64), Some(6));
//! ```

use crate::counters::Counters;
use crate::json::Value;

/// The schema identifier stamped into every artifact.
pub const SCHEMA_NAME: &str = "tbf-run-artifact";

/// The current schema version (bumped on breaking key changes only).
pub const SCHEMA_VERSION: u64 = 3;

/// An in-construction run artifact. See the [module docs](self) for the
/// layout contract.
#[derive(Clone, Debug, Default)]
pub struct RunArtifact {
    sections: Vec<(String, Value)>,
}

impl RunArtifact {
    /// An empty artifact (schema header added at render time).
    pub fn new() -> RunArtifact {
        RunArtifact::default()
    }

    /// Adds (or replaces) a named section. Insertion order is
    /// serialization order; the `timing` section always renders last.
    pub fn section(&mut self, name: &str, value: Value) {
        if let Some(slot) = self.sections.iter_mut().find(|(k, _)| k == name) {
            slot.1 = value;
        } else {
            self.sections.push((name.to_owned(), value));
        }
    }

    /// Assembles the document `Value`: schema header first, `timing`
    /// last, everything else in insertion order.
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![(
            "schema".to_owned(),
            Value::Obj(vec![
                ("name".to_owned(), Value::str(SCHEMA_NAME)),
                ("version".to_owned(), Value::u64(SCHEMA_VERSION)),
            ]),
        )];
        for (k, v) in &self.sections {
            if k != "timing" {
                pairs.push((k.clone(), v.clone()));
            }
        }
        if let Some((k, v)) = self.sections.iter().find(|(k, _)| k == "timing") {
            pairs.push((k.clone(), v.clone()));
        }
        Value::Obj(pairs)
    }

    /// Renders the pretty-printed artifact text.
    pub fn render(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Parses artifact text and checks the schema header. Returns the
    /// document on success.
    pub fn validate(text: &str) -> Result<Value, String> {
        let doc = Value::parse(text)?;
        let schema = doc.get("schema").ok_or("missing `schema` section")?;
        let (first_key, _) = doc
            .as_object()
            .and_then(|o| o.first())
            .ok_or("artifact is not an object")?;
        if first_key != "schema" {
            return Err("`schema` must be the first member".to_owned());
        }
        match schema.get("name").and_then(Value::as_str) {
            Some(SCHEMA_NAME) => {}
            other => return Err(format!("unexpected schema name {other:?}")),
        }
        match schema.get("version").and_then(Value::as_u64) {
            Some(v) if v <= SCHEMA_VERSION => {}
            other => return Err(format!("unsupported schema version {other:?}")),
        }
        Ok(doc)
    }

    /// Strips the volatile `timing` member from a parsed artifact,
    /// leaving only the sections that must be byte-identical across
    /// equivalent runs.
    pub fn deterministic_view(doc: &Value) -> Value {
        match doc {
            Value::Obj(pairs) => Value::Obj(
                pairs
                    .iter()
                    .filter(|(k, _)| k != "timing")
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        }
    }
}

/// The `counters` section of a registry: `{name: total, …}` in registry
/// order.
pub fn counters_section(counters: &Counters) -> Value {
    Value::Obj(
        counters
            .snapshot()
            .into_iter()
            .map(|(name, v)| (name.to_owned(), Value::u64(v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_header_is_first_and_timing_last() {
        let mut a = RunArtifact::new();
        a.section("timing", Value::Arr(vec![]));
        a.section("counters", Value::Obj(vec![]));
        let doc = a.to_value();
        let keys: Vec<_> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["schema", "counters", "timing"]);
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        assert!(RunArtifact::validate("{}").is_err());
        assert!(RunArtifact::validate(r#"{"schema":{"name":"other","version":1}}"#).is_err());
        assert!(
            RunArtifact::validate(r#"{"schema":{"name":"tbf-run-artifact","version":99}}"#)
                .is_err()
        );
        let ok = RunArtifact::new().render();
        assert!(RunArtifact::validate(&ok).is_ok());
        // Older versions stay readable.
        for v in [1, 2] {
            let old = format!(r#"{{"schema":{{"name":"tbf-run-artifact","version":{v}}}}}"#);
            assert!(RunArtifact::validate(&old).is_ok(), "version {v}");
        }
    }

    #[test]
    fn deterministic_view_drops_timing_only() {
        let mut a = RunArtifact::new();
        a.section("counters", Value::Obj(vec![("x".into(), Value::u64(1))]));
        a.section("timing", Value::Arr(vec![Value::u64(123)]));
        let doc = RunArtifact::validate(&a.render()).expect("valid");
        let det = RunArtifact::deterministic_view(&doc);
        assert!(det.get("counters").is_some());
        assert!(det.get("timing").is_none());
    }

    #[test]
    fn section_replaces_in_place() {
        let mut a = RunArtifact::new();
        a.section("counters", Value::u64(1));
        a.section("report", Value::u64(2));
        a.section("counters", Value::u64(3));
        let doc = a.to_value();
        let keys: Vec<_> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["schema", "counters", "report"]);
        assert_eq!(doc.get("counters").and_then(Value::as_u64), Some(3));
    }
}
