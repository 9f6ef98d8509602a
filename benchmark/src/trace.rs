//! The benchmark's own spans: one around every call into a layer, kept in
//! memory through a benchmark-owned `gar_obs::Obs` handle and written out
//! as a chrome trace when the run ends.
//!
//! The same handle is lent to the program (`ClusterConfig::with_obs`), so
//! the program's existing per-node spans land in the same file on their
//! own lanes. No span is added inside `crates/`; that is a later change.

use gar_obs::json::{parse, Value};
use gar_obs::{Obs, Span};
use std::collections::BTreeMap;

/// Lane of the benchmark's own spans in the chrome trace; node lanes are
/// `0..NODES`, so this cannot collide.
pub const HARNESS_LANE: u64 = 99;

/// The tracer of one run. Disabled in end-to-end runs, where opening a
/// span reads no clock.
#[derive(Clone)]
pub struct Tracer {
    obs: Obs,
    /// Index of the workload in `spec::WORKLOADS`, carried as the span's
    /// `pass` argument: the identifier all spans of one run share.
    workload_id: u64,
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer {
            obs: Obs::disabled(),
            workload_id: 0,
        }
    }

    pub fn enabled(workload_id: usize) -> Tracer {
        Tracer {
            obs: Obs::enabled(),
            workload_id: workload_id as u64,
        }
    }

    /// The handle to lend to the program for a traced call.
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// Opens a span on the harness lane; it closes when dropped. Nesting
    /// is by time containment: a span opened while another is open is its
    /// child.
    pub fn span(&self, name: &'static str) -> Span {
        self.obs.span(HARNESS_LANE, self.workload_id, name)
    }

    /// Runs `f` inside a span and returns its result with the seconds it
    /// took (timed with the sanctioned `Stopwatch`, also when disabled).
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = self.span(name);
        let clock = gar_obs::Stopwatch::start();
        let out = f();
        (out, clock.elapsed().as_secs_f64())
    }

    pub fn chrome_trace_json(&self) -> String {
        self.obs.chrome_trace_json()
    }
}

/// One completed span read back from a chrome trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    pub name: String,
    pub lane: u64,
    pub start_us: u64,
    pub dur_us: u64,
    /// Index (into the same vector) of the innermost span on the same
    /// lane that contains this one.
    pub parent: Option<usize>,
    /// Duration minus the part of it covered by child spans.
    pub self_us: u64,
}

/// Start and duration are each truncated to whole microseconds, so a
/// child's computed end may pass its parent's by this much.
const SLACK_US: u64 = 2;

/// Parses a chrome trace and derives each span's parent and self time.
pub fn span_rows(chrome_trace: &str) -> Result<Vec<SpanRow>, String> {
    let doc = parse(chrome_trace)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("trace without traceEvents")?;
    let mut rows: Vec<SpanRow> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| {
            Some(SpanRow {
                name: e.get("name")?.as_str()?.to_string(),
                lane: e.get("tid")?.as_u64()?,
                start_us: e.get("ts")?.as_u64()?,
                dur_us: e.get("dur")?.as_u64()?,
                parent: None,
                self_us: 0,
            })
        })
        .collect();
    // Per lane by start, longer first, so a parent precedes its children.
    rows.sort_by(|a, b| {
        (a.lane, a.start_us, std::cmp::Reverse(a.dur_us), &a.name).cmp(&(
            b.lane,
            b.start_us,
            std::cmp::Reverse(b.dur_us),
            &b.name,
        ))
    });
    let mut open: Vec<usize> = Vec::new();
    for i in 0..rows.len() {
        let (lane, start, end) = (
            rows[i].lane,
            rows[i].start_us,
            rows[i].start_us + rows[i].dur_us,
        );
        while let Some(&top) = open.last() {
            let top_end = rows[top].start_us + rows[top].dur_us;
            if rows[top].lane == lane && start >= rows[top].start_us && end <= top_end + SLACK_US {
                break;
            }
            open.pop();
        }
        rows[i].parent = open.last().copied();
        rows[i].self_us = rows[i].dur_us;
        open.push(i);
    }
    for i in 0..rows.len() {
        if let Some(p) = rows[i].parent {
            rows[p].self_us = rows[p].self_us.saturating_sub(rows[i].dur_us);
        }
    }
    Ok(rows)
}

/// Total self time per span name on one lane, in seconds.
pub fn self_seconds_by_name(rows: &[SpanRow], lane: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for r in rows.iter().filter(|r| r.lane == lane) {
        *out.entry(r.name.clone()).or_insert(0.0) += r.self_us as f64 / 1e6;
    }
    out
}

/// For the spans with one of `names` on the node lanes (every lane but
/// the harness's): their total per lane — self time if `self_time`, else
/// duration — then the largest of those. The slowest node sets a phase's
/// share of the wall time.
pub fn slowest_node_seconds(rows: &[SpanRow], names: &[&str], self_time: bool) -> f64 {
    let mut per_lane: BTreeMap<u64, u64> = BTreeMap::new();
    for r in rows {
        if r.lane != HARNESS_LANE && names.contains(&r.name.as_str()) {
            *per_lane.entry(r.lane).or_insert(0) += if self_time { r.self_us } else { r.dur_us };
        }
    }
    per_lane.values().copied().max().unwrap_or(0) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(name: &str, tid: u64, ts: u64, dur: u64) -> String {
        format!(
            r#"{{"name":"{name}","ph":"X","ts":{ts},"dur":{dur},"pid":0,"tid":{tid},"args":{{"pass":1}}}}"#
        )
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let trace = format!(
            r#"{{"traceEvents":[{},{},{},{},{}],"displayTimeUnit":"ms"}}"#,
            x("mine", 99, 0, 100),
            x("scan", 99, 10, 30),
            x("count", 99, 50, 40),
            x("probe", 99, 55, 10),
            x("scan", 0, 5, 20),
        );
        let rows = span_rows(&trace).unwrap();
        let by = |n: &str, lane: u64| rows.iter().find(|r| r.name == n && r.lane == lane).unwrap();
        assert_eq!(by("mine", 99).self_us, 30);
        assert_eq!(by("count", 99).self_us, 30);
        assert_eq!(by("probe", 99).self_us, 10);
        assert_eq!(by("mine", 99).parent, None);
        let count_at = rows.iter().position(|r| r.name == "count").unwrap();
        assert_eq!(by("probe", 99).parent, Some(count_at));
        // Another lane's span is nobody's child here.
        assert_eq!(by("scan", 0).parent, None);
        assert_eq!(self_seconds_by_name(&rows, 99)["scan"], 30e-6);
        assert_eq!(slowest_node_seconds(&rows, &["scan"], false), 20e-6);
        assert_eq!(slowest_node_seconds(&rows, &["scan", "count"], true), 20e-6);
    }

    #[test]
    fn a_live_tracer_round_trips_through_its_own_trace() {
        let tracer = Tracer::enabled(3);
        {
            let _outer = tracer.span("outer");
            let ((), secs) = tracer.timed("inner", || {
                std::hint::black_box((0..10_000u64).sum::<u64>());
            });
            assert!(secs >= 0.0);
        }
        let rows = span_rows(&tracer.chrome_trace_json()).unwrap();
        assert_eq!(rows.len(), 2);
        let inner = rows.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(rows[inner.parent.unwrap()].name, "outer");
        assert!(Tracer::disabled()
            .chrome_trace_json()
            .contains("traceEvents"));
    }
}
