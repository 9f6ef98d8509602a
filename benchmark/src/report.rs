//! What one workload run prints: a table a person reads, then — as the
//! last line of standard output — the one JSON object the driver reads.

use crate::pipeline::Verdict;
use crate::spec::unit_of;
use crate::stats::{median, spread};
use gar_obs::json::Value;

/// One metric of one run.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind `value`.
    pub n: usize,
    pub min: f64,
    pub max: f64,
    /// Quartile distance ÷ median of the samples (0 for a single one).
    pub spread: f64,
}

impl Row {
    /// A metric that is the median of repetitions inside the run.
    pub fn reps(name: &'static str, samples: &[f64]) -> Row {
        Row {
            name,
            unit: unit_of(name),
            value: median(samples),
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            spread: spread(samples),
        }
    }

    /// A metric read once.
    pub fn one(name: &'static str, value: f64) -> Row {
        Row {
            name,
            unit: unit_of(name),
            value,
            n: 1,
            min: value,
            max: value,
            spread: 0.0,
        }
    }
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub rows: Vec<Row>,
    pub verdict: Verdict,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(verdict: Verdict) -> Outcome {
        Outcome {
            rows: Vec::new(),
            verdict,
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.verdict.failed == 0
    }

    pub fn fail_frac(&self) -> f64 {
        self.verdict.failed as f64 / self.verdict.attempted.max(1) as f64
    }

    /// The human-readable part: every metric by name with unit, value,
    /// sample count and spread, then the gate's findings.
    pub fn print_table(&self, workload: &str) {
        for line in &self.notes {
            println!("  {line}");
        }
        println!(
            "  {:<36} {:>16} {:<10} {:>7} {:>14} {:>14} {:>8}",
            "metric", "value", "unit", "n", "min", "max", "spread"
        );
        for r in &self.rows {
            println!(
                "  {:<36} {:>16.6} {:<10} {:>7} {:>14.6} {:>14.6} {:>7.2}%",
                r.name,
                r.value,
                r.unit,
                r.n,
                r.min,
                r.max,
                r.spread * 100.0
            );
        }
        println!(
            "  {:<36} {:>16.6} {:<10} {:>7}",
            "fail_frac",
            self.fail_frac(),
            "ratio",
            self.verdict.attempted
        );
        for line in &self.verdict.notes {
            println!("  FAILED {workload}: {line}");
        }
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .rows
            .iter()
            .map(|r| {
                let cell = Value::Obj(vec![
                    ("value".into(), Value::Num(r.value)),
                    ("unit".into(), Value::Str(r.unit.into())),
                ]);
                (r.name.to_string(), cell)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            (
                "attempted".into(),
                Value::Num(self.verdict.attempted as f64),
            ),
            ("failed".into(), Value::Num(self.verdict.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_obs::json::parse;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::new(Verdict {
            attempted: 12,
            failed: 0,
            notes: Vec::new(),
        });
        out.push(Row::reps("mine_wall_s", &[1.25, 1.0, 1.5]));
        out.push(Row::one("peak_rss_mb", 51.5));
        let line = out.result_line();
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        let Value::Obj(fields) = &doc else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|f| f.0.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(12));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("mine_wall_s"))
            .unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(out.fail_frac(), 0.0);
    }

    #[test]
    fn any_failed_operation_makes_the_run_incorrect() {
        let mut verdict = Verdict::default();
        verdict.check(true, || unreachable!());
        verdict.check(false, || "second check".into());
        let out = Outcome::new(verdict);
        assert!(!out.correct());
        assert_eq!(out.fail_frac(), 0.5);
        assert!(out
            .result_line()
            .starts_with(r#"{"correct":false,"attempted":2,"failed":1"#));
    }
}
