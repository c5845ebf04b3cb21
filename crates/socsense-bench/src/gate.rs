//! Performance-regression gates: declarative floors/ceilings over the
//! JSON the bench harnesses emit.
//!
//! CI's `perf-gate` job regenerates `BENCH_*.json` and then runs the
//! `perf_gate` binary, which reads `scripts/perf_gates.toml`, looks up
//! one number per gate in the emitted JSON, and fails the job when a
//! floor (`min`) or ceiling (`max`) is violated. Keeping the thresholds
//! in a checked-in file makes a regression a reviewable diff: loosening
//! a gate is a code change, not a CI-config tweak.
//!
//! The gate file is a small TOML subset parsed by hand (the container
//! carries no TOML crate): `[[gate]]` array-of-tables, string and
//! number values, full-line `#` comments.
//!
//! ```toml
//! [[gate]]
//! name = "ingest-index-speedup"
//! file = "BENCH_ingest.json"
//! path = "cluster_texts.single_core_speedup"
//! min = 1.5
//! ```

use serde_json::Value;

/// One threshold over one number in one emitted JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Human-readable gate id, unique within the file.
    pub name: String,
    /// JSON file the number lives in (relative to the results dir).
    pub file: String,
    /// Dot-separated object path to the number, e.g.
    /// `cluster_texts.single_core_speedup`.
    pub path: String,
    /// Inclusive floor: the value must be `>= min`.
    pub min: Option<f64>,
    /// Inclusive ceiling: the value must be `<= max`.
    pub max: Option<f64>,
}

/// The verdict for one gate against one measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// The gate that was checked.
    pub gate: Gate,
    /// The number found at [`Gate::path`].
    pub value: f64,
    /// Whether the value respects both bounds.
    pub pass: bool,
}

/// Parses the `[[gate]]` TOML subset described in the module docs.
///
/// # Errors
///
/// A human-readable message naming the offending line for anything
/// outside the subset: unknown keys, non-`[[gate]]` tables, bad
/// literals, a key repeated within one gate (a second `min` would
/// otherwise silently override the first, so a loosening could pass
/// review as an added line), a gate name used twice, or a gate missing
/// `name`/`file`/`path` or both bounds.
pub fn parse_gates(text: &str) -> Result<Vec<Gate>, String> {
    let mut gates: Vec<Gate> = Vec::new();
    let mut open = false;
    // Keys already set in the open gate.
    let mut seen: Vec<&str> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[gate]]" {
            gates.push(Gate {
                name: String::new(),
                file: String::new(),
                path: String::new(),
                min: None,
                max: None,
            });
            open = true;
            seen.clear();
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {lineno}: only [[gate]] tables are supported"));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        if !open {
            return Err(format!("line {lineno}: key before the first [[gate]]"));
        }
        let (key, value) = (key.trim(), value.trim());
        if seen.contains(&key) {
            return Err(format!("line {lineno}: `{key}` set twice in one [[gate]]"));
        }
        seen.push(key);
        let (gate, earlier) = gates.split_last_mut().expect("open implies a gate exists");
        match key {
            "name" | "file" | "path" => {
                let s = value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("line {lineno}: {key} takes a quoted string"))?;
                match key {
                    "name" if earlier.iter().any(|g| g.name == s) => {
                        return Err(format!("line {lineno}: duplicate gate name `{s}`"));
                    }
                    "name" => gate.name = s.to_string(),
                    "file" => gate.file = s.to_string(),
                    _ => gate.path = s.to_string(),
                }
            }
            "min" | "max" => {
                let n: f64 = value
                    .parse()
                    .map_err(|_| format!("line {lineno}: {key} takes a number"))?;
                if key == "min" {
                    gate.min = Some(n);
                } else {
                    gate.max = Some(n);
                }
            }
            other => return Err(format!("line {lineno}: unknown key `{other}`")),
        }
    }
    for gate in &gates {
        if gate.name.is_empty() || gate.file.is_empty() || gate.path.is_empty() {
            return Err(format!(
                "gate `{}` needs name, file, and path",
                if gate.name.is_empty() {
                    "?"
                } else {
                    &gate.name
                }
            ));
        }
        if gate.min.is_none() && gate.max.is_none() {
            return Err(format!("gate `{}` needs a min or a max", gate.name));
        }
    }
    Ok(gates)
}

/// Walks a dot-separated path into a JSON value; numeric segments index
/// arrays (`rows.0.tweets_per_sec`), everything else keys objects.
pub fn lookup<'v>(root: &'v Value, path: &str) -> Option<&'v Value> {
    let mut cur = root;
    for segment in path.split('.') {
        cur = match cur.as_array() {
            Some(items) => items.get(segment.parse::<usize>().ok()?)?,
            None => cur.as_object()?.get(segment)?,
        };
    }
    Some(cur)
}

/// Checks every gate, loading each referenced JSON file at most once
/// through `load` (file name → file contents).
///
/// # Errors
///
/// A message naming the gate for an unreadable/unparseable file or a
/// path that does not resolve to a number — a *missing* measurement is
/// a failure, not a silent pass.
pub fn evaluate(
    gates: &[Gate],
    mut load: impl FnMut(&str) -> Result<String, String>,
) -> Result<Vec<GateOutcome>, String> {
    let mut cache: Vec<(String, Value)> = Vec::new();
    let mut out = Vec::with_capacity(gates.len());
    for gate in gates {
        if !cache.iter().any(|(f, _)| f == &gate.file) {
            let text = load(&gate.file).map_err(|e| format!("gate `{}`: {e}", gate.name))?;
            let value: Value = serde_json::from_str(&text)
                .map_err(|e| format!("gate `{}`: parsing {}: {e}", gate.name, gate.file))?;
            cache.push((gate.file.clone(), value));
        }
        let root = &cache.iter().find(|(f, _)| f == &gate.file).unwrap().1;
        let value = lookup(root, &gate.path)
            .and_then(Value::as_f64)
            .ok_or_else(|| {
                format!(
                    "gate `{}`: no number at `{}` in {}",
                    gate.name, gate.path, gate.file
                )
            })?;
        let pass = gate.min.is_none_or(|m| value >= m) && gate.max.is_none_or(|m| value <= m);
        out.push(GateOutcome {
            gate: gate.clone(),
            value,
            pass,
        });
    }
    Ok(out)
}

/// One formatted report line per outcome, `PASS`/`FAIL` first.
pub fn render(outcomes: &[GateOutcome]) -> String {
    outcomes
        .iter()
        .map(|o| {
            let bounds = match (o.gate.min, o.gate.max) {
                (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
                (Some(lo), None) => format!(">= {lo}"),
                (None, Some(hi)) => format!("<= {hi}"),
                (None, None) => unreachable!("parse_gates requires a bound"),
            };
            format!(
                "{} {:<28} {}:{} = {:.6} (want {bounds})\n",
                if o.pass { "PASS" } else { "FAIL" },
                o.gate.name,
                o.gate.file,
                o.gate.path,
                o.value
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATES: &str = r#"
# floors for CI
[[gate]]
name = "speedup"
file = "a.json"
path = "cluster.speedup"
min = 1.5

[[gate]]
name = "p99"
file = "b.json"
path = "latency.p99_secs"
max = 0.25
"#;

    fn load(file: &str) -> Result<String, String> {
        Ok(match file {
            "a.json" => r#"{"cluster": {"speedup": 2.0}}"#.into(),
            "b.json" => r#"{"latency": {"p99_secs": 0.1}}"#.into(),
            other => return Err(format!("no such file {other}")),
        })
    }

    #[test]
    fn parses_the_subset() {
        let gates = parse_gates(GATES).unwrap();
        assert_eq!(gates.len(), 2);
        assert_eq!(gates[0].name, "speedup");
        assert_eq!(gates[0].min, Some(1.5));
        assert_eq!(gates[1].max, Some(0.25));
    }

    #[test]
    fn rejects_out_of_subset_input() {
        assert!(parse_gates("[gate]\nname = \"x\"").is_err());
        assert!(parse_gates("name = \"orphan\"").is_err());
        assert!(parse_gates("[[gate]]\nname = \"x\"\nfile = \"f\"\npath = \"p\"").is_err());
        assert!(parse_gates("[[gate]]\nwat = 3").is_err());
        assert!(parse_gates("[[gate]]\nmin = \"nope\"").is_err());

        // A second bound, file or path in one gate must not silently
        // override the first: the last gate in GATES already has them.
        for key in ["max = 99.0", "file = \"c.json\"", "path = \"x.y\""] {
            let text = format!("{GATES}{key}\n");
            let err = parse_gates(&text).unwrap_err();
            let line = format!("line {}:", text.lines().count());
            assert!(err.starts_with(&line) && err.contains("set twice"), "{err}");
        }
        let err = parse_gates("[[gate]]\nname = \"x\"\nmin = 2.0\nmin = 0.5").unwrap_err();
        assert_eq!(err, "line 4: `min` set twice in one [[gate]]");

        // Gate names are unique within the file.
        let dup = format!("{GATES}\n[[gate]]\nname = \"speedup\"\nfile = \"c.json\"\n");
        let err = parse_gates(&dup).unwrap_err();
        assert!(err.contains("duplicate gate name `speedup`"), "{err}");
        assert!(
            err.starts_with(&format!("line {}:", dup.lines().count() - 1)),
            "{err}"
        );
    }

    #[test]
    fn passing_and_failing_gates() {
        let gates = parse_gates(GATES).unwrap();
        let outcomes = evaluate(&gates, load).unwrap();
        assert!(outcomes.iter().all(|o| o.pass));

        // Raise the floor above the measurement: the gate must fail.
        let mut raised = gates.clone();
        raised[0].min = Some(10.0);
        let outcomes = evaluate(&raised, load).unwrap();
        assert!(!outcomes[0].pass);
        assert!(outcomes[1].pass);
        let report = render(&outcomes);
        assert!(report.contains("FAIL speedup"), "{report}");
    }

    #[test]
    fn lookup_walks_objects_and_arrays() {
        let v: Value = serde_json::from_str(r#"{"rows": [{"x": 1.0}, {"x": 2.5}]}"#).unwrap();
        assert_eq!(lookup(&v, "rows.1.x").and_then(Value::as_f64), Some(2.5));
        assert_eq!(lookup(&v, "rows.7.x"), None);
        assert_eq!(lookup(&v, "rows.nope"), None);
    }

    #[test]
    fn missing_measurement_is_an_error_not_a_pass() {
        let mut gates = parse_gates(GATES).unwrap();
        gates[0].path = "cluster.gone".into();
        assert!(evaluate(&gates, load).is_err());
        gates[0].file = "missing.json".into();
        assert!(evaluate(&gates, load).is_err());
    }
}
