//! Observability for the cluster simulator: counters, histograms, and
//! span timers, with chrome-trace export and a JSON codec.
//!
//! The paper's argument is quantitative (Figures 13–16 are per-pass
//! times, per-node message volumes, and workload histograms), so every
//! layer of the simulator reports into one [`Obs`] handle:
//!
//! * **Counters** and **histograms** are keyed by a metric name plus up
//!   to three integer labels (`node`, `pass`, `peer`, …). They carry *no
//!   timestamps* — only counts — so `metrics.json` is byte-identical
//!   across same-seed runs by construction.
//! * **Spans** record wall-clock phases keyed by `(node, pass, phase)`
//!   and export in the chrome://tracing "trace event" format, one lane
//!   per node. Timing lives *only* in the trace file, never in metrics.
//!
//! A disabled handle (the default) is a `None` and every operation is a
//! branch-and-return no-op, so production paths pay nothing measurable
//! when observability is off.
//!
//! This crate is also the workspace's only sanctioned clock: clippy's
//! `disallowed_methods` (root `clippy.toml`) rejects `Instant::now()`
//! anywhere else, so ad-hoc timing must flow through [`Stopwatch`] or
//! spans and stays visible to the tooling.

// A panic here must become a typed error, not a dead node or handler
// thread (DESIGN.md §11); test code is exempt via clippy.toml.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod json;

use json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema tag embedded in every `metrics.json`.
pub const METRICS_SCHEMA: &str = "gar-metrics-v1";

/// A label: name plus integer value. All labels in this workspace are
/// small non-negative integers (node ids, pass numbers, peer ids).
pub type Label = (&'static str, u64);

/// Internal metric key: name plus up to three labels, stored sorted by
/// label name so `("a",1),("b",2)` and `("b",2),("a",1)` collide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    labels: [Option<Label>; 3],
}

impl Key {
    fn new(name: &'static str, labels: &[Label]) -> Self {
        assert!(labels.len() <= 3, "metric {name}: at most 3 labels");
        let mut sorted: [Option<Label>; 3] = [None; 3];
        for (slot, l) in sorted.iter_mut().zip(labels.iter()) {
            *slot = Some(*l);
        }
        sorted.sort_by_key(|l| match l {
            // Sort populated slots first (by name), `None` last.
            Some((n, _)) => (0, *n),
            None => (1, ""),
        });
        Key {
            name,
            labels: sorted,
        }
    }

    /// `name{a=1,b=2}`, or bare `name` without labels. This string is
    /// the key used in `metrics.json`, chosen so a flat map stays both
    /// sorted and greppable.
    fn render(&self) -> String {
        let mut out = String::from(self.name);
        let mut first = true;
        for l in self.labels.iter().flatten() {
            out.push(if first { '{' } else { ',' });
            first = false;
            out.push_str(l.0);
            out.push('=');
            out.push_str(&l.1.to_string());
        }
        if !first {
            out.push('}');
        }
        out
    }
}

/// Power-of-two histogram: bucket `i` counts values whose bit length is
/// `i` (bucket 0 holds zeros). 65 buckets cover all of `u64`.
#[derive(Default, Clone)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<u8, u64>,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let bucket = (64 - value.leading_zeros()) as u8;
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self.buckets.iter().map(|(k, v)| (*k, *v)).collect(),
        }
    }
}

/// Exported histogram state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `(bit_length, count)` pairs, ascending, absent buckets omitted.
    pub buckets: Vec<(u8, u64)>,
}

#[derive(Default)]
struct MetricsState {
    counters: BTreeMap<Key, u64>,
    histograms: BTreeMap<Key, Histogram>,
}

/// One completed span, in microseconds since the handle's epoch.
struct SpanEvent {
    phase: &'static str,
    node: u64,
    pass: u64,
    ts_us: u64,
    dur_us: u64,
}

struct Inner {
    epoch: Instant,
    metrics: Mutex<MetricsState>,
    spans: Mutex<Vec<SpanEvent>>,
}

/// The observability handle. Cheap to clone (an `Option<Arc>`); the
/// default handle is disabled and every operation on it is a no-op.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Obs(enabled)"
        } else {
            "Obs(disabled)"
        })
    }
}

impl Obs {
    /// A recording handle. All clones share one registry.
    #[expect(clippy::disallowed_methods, reason = "gar-obs is the sanctioned clock")]
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                metrics: Mutex::new(MetricsState::default()),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op handle (same as `Obs::default()`).
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the counter `name{labels}`. No-op when disabled.
    pub fn add(&self, name: &'static str, labels: &[Label], delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut m = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        *m.counters.entry(Key::new(name, labels)).or_insert(0) += delta;
    }

    /// Records one observation in the histogram `name{labels}`.
    pub fn observe(&self, name: &'static str, labels: &[Label], value: u64) {
        let Some(inner) = &self.inner else { return };
        let mut m = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.histograms
            .entry(Key::new(name, labels))
            .or_default()
            .observe(value);
    }

    /// Opens a span for `phase` on `node` during `pass`; the span closes
    /// (and records) when the returned guard drops. When disabled the
    /// guard is inert and no clock is read.
    #[expect(clippy::disallowed_methods, reason = "gar-obs is the sanctioned clock")]
    pub fn span(&self, node: u64, pass: u64, phase: &'static str) -> Span {
        Span {
            rec: self.inner.as_ref().map(|inner| SpanRec {
                inner: Arc::clone(inner),
                phase,
                node,
                pass,
                start: Instant::now(),
            }),
        }
    }

    /// A deterministic snapshot of every counter and histogram.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(inner) = &self.inner else {
            return snap;
        };
        let m = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        for (k, v) in &m.counters {
            snap.counters.insert(k.render(), *v);
        }
        for (k, h) in &m.histograms {
            snap.histograms.insert(k.render(), h.snapshot());
        }
        snap
    }

    /// Renders all completed spans in the chrome://tracing "trace event"
    /// JSON format: one `pid`, one lane (`tid`) per node, complete
    /// (`"ph":"X"`) events carrying `pass` in `args`. Load the file via
    /// chrome://tracing or https://ui.perfetto.dev.
    pub fn chrome_trace_json(&self) -> String {
        let mut events: Vec<Value> = Vec::new();
        if let Some(inner) = &self.inner {
            let mut spans = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
            // Stable order: by lane, then start time, then phase name.
            spans.sort_by(|a, b| (a.node, a.ts_us, a.phase).cmp(&(b.node, b.ts_us, b.phase)));
            let mut lanes: Vec<u64> = spans.iter().map(|s| s.node).collect();
            lanes.dedup();
            for node in lanes {
                events.push(Value::Obj(vec![
                    ("name".into(), Value::Str("thread_name".into())),
                    ("ph".into(), Value::Str("M".into())),
                    ("pid".into(), Value::Num(0.0)),
                    ("tid".into(), Value::Num(node as f64)),
                    (
                        "args".into(),
                        Value::Obj(vec![("name".into(), Value::Str(format!("node {node}")))]),
                    ),
                ]));
            }
            for s in spans.iter() {
                events.push(Value::Obj(vec![
                    ("name".into(), Value::Str(s.phase.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Num(s.ts_us as f64)),
                    ("dur".into(), Value::Num(s.dur_us as f64)),
                    ("pid".into(), Value::Num(0.0)),
                    ("tid".into(), Value::Num(s.node as f64)),
                    (
                        "args".into(),
                        Value::Obj(vec![("pass".into(), Value::Num(s.pass as f64))]),
                    ),
                ]));
            }
        }
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
        .render()
    }
}

struct SpanRec {
    inner: Arc<Inner>,
    phase: &'static str,
    node: u64,
    pass: u64,
    start: Instant,
}

/// Guard returned by [`Obs::span`]; records the span on drop.
pub struct Span {
    rec: Option<SpanRec>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(rec) = self.rec.take() else { return };
        let dur_us = rec.start.elapsed().as_micros() as u64;
        let ts_us = rec
            .start
            .saturating_duration_since(rec.inner.epoch)
            .as_micros() as u64;
        let mut spans = rec.inner.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(SpanEvent {
            phase: rec.phase,
            node: rec.node,
            pass: rec.pass,
            ts_us,
            dur_us,
        });
    }
}

/// The workspace's sanctioned wall-clock timer. Everything outside
/// `gar-obs` that needs elapsed time uses this (or a span) instead of
/// `Instant::now()` — enforced by clippy's `disallowed_methods`.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[allow(clippy::new_without_default)]
    #[expect(clippy::disallowed_methods, reason = "gar-obs is the sanctioned clock")]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Flat, deterministic export of an [`Obs`] registry: counter and
/// histogram maps keyed by `name{label=value,…}` strings. This is the
/// in-memory form of `metrics.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Sum of every counter whose key starts with `prefix` (use
    /// `"name{"` or a full key to avoid matching longer names).
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// One counter's value, 0 when absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Serializes as `metrics.json`: schema tag plus sorted flat maps.
    /// Deterministic — same snapshot, same bytes.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(b, c)| Value::Arr(vec![Value::Num(*b as f64), Value::Num(*c as f64)]))
                    .collect();
                (
                    k.clone(),
                    Value::Obj(vec![
                        ("count".into(), Value::Num(h.count as f64)),
                        ("sum".into(), Value::Num(h.sum as f64)),
                        ("min".into(), Value::Num(h.min as f64)),
                        ("max".into(), Value::Num(h.max as f64)),
                        ("buckets".into(), Value::Arr(buckets)),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str(METRICS_SCHEMA.into())),
            ("counters".into(), Value::Obj(counters)),
            ("histograms".into(), Value::Obj(histograms)),
        ])
        .render()
    }

    /// Parses what [`MetricsSnapshot::to_json`] wrote.
    pub fn from_json(src: &str) -> Result<Self, String> {
        let doc = json::parse(src)?;
        if doc.get("schema").and_then(Value::as_str) != Some(METRICS_SCHEMA) {
            return Err(format!("not a {METRICS_SCHEMA} document"));
        }
        let mut snap = MetricsSnapshot::default();
        if let Some(Value::Obj(fields)) = doc.get("counters") {
            for (k, v) in fields {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("counter {k}: not a u64"))?;
                snap.counters.insert(k.clone(), n);
            }
        }
        if let Some(Value::Obj(fields)) = doc.get("histograms") {
            for (k, v) in fields {
                let field = |name: &str| {
                    v.get(name)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("histogram {k}: bad field {name}"))
                };
                let mut h = HistogramSnapshot {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    buckets: Vec::new(),
                };
                for pair in v
                    .get("buckets")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("histogram {k}: missing buckets"))?
                {
                    let pair = pair.as_arr().filter(|p| p.len() == 2);
                    let pair = pair.ok_or_else(|| format!("histogram {k}: bad bucket"))?;
                    let b = pair[0]
                        .as_u64()
                        .ok_or_else(|| format!("histogram {k}: bad bucket index"))?;
                    let c = pair[1]
                        .as_u64()
                        .ok_or_else(|| format!("histogram {k}: bad bucket count"))?;
                    h.buckets.push((b as u8, c));
                }
                snap.histograms.insert(k.clone(), h);
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        obs.add("x", &[("node", 1)], 5);
        obs.observe("y", &[], 7);
        drop(obs.span(0, 1, "scan"));
        assert!(!obs.is_enabled());
        assert_eq!(obs.metrics(), MetricsSnapshot::default());
        let trace = obs.chrome_trace_json();
        assert!(trace.contains("\"traceEvents\":[]"), "{trace}");
    }

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let obs = Obs::enabled();
        // Label order must not matter.
        obs.add("net.bytes", &[("node", 1), ("peer", 2)], 10);
        obs.add("net.bytes", &[("peer", 2), ("node", 1)], 5);
        obs.add("net.bytes", &[], 1);
        let m = obs.metrics();
        assert_eq!(m.counter("net.bytes{node=1,peer=2}"), 15);
        assert_eq!(m.counter("net.bytes"), 1);
        assert_eq!(m.sum_prefix("net.bytes"), 16);
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.add("c", &[], 2);
        obs.add("c", &[], 3);
        assert_eq!(obs.metrics().counter("c"), 5);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let obs = Obs::enabled();
        for v in [0u64, 1, 1, 7, 8, u64::MAX] {
            obs.observe("h", &[("pass", 2)], v);
        }
        let m = obs.metrics();
        let h = &m.histograms["h{pass=2}"];
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        // 0 → bucket 0; 1,1 → bucket 1; 7 → bucket 3; 8 → bucket 4;
        // u64::MAX → bucket 64.
        assert_eq!(h.buckets, vec![(0, 1), (1, 2), (3, 1), (4, 1), (64, 1)]);
    }

    #[test]
    fn metrics_json_round_trips() {
        let obs = Obs::enabled();
        obs.add("a", &[("node", 0)], 1);
        obs.add("b", &[("node", 3), ("pass", 2), ("peer", 1)], 42);
        obs.observe("h", &[], 9);
        let snap = obs.metrics();
        let rendered = snap.to_json();
        let reparsed = MetricsSnapshot::from_json(&rendered).unwrap();
        assert_eq!(reparsed, snap);
        assert_eq!(reparsed.to_json(), rendered);
    }

    #[test]
    fn metrics_json_is_deterministic_and_timestamp_free() {
        let build = || {
            let obs = Obs::enabled();
            // Insertion order differs between the two runs; output must not.
            obs.add("z", &[("node", 1)], 1);
            obs.add("a", &[], 2);
            obs.metrics().to_json()
        };
        let first = build();
        assert_eq!(first, build());
        assert!(!first.contains("ts"), "metrics must carry no timestamps");
    }

    #[test]
    fn spans_export_as_chrome_trace() {
        let obs = Obs::enabled();
        {
            let _pass = obs.span(1, 2, "pass");
            let _scan = obs.span(1, 2, "scan");
        }
        drop(obs.span(0, 1, "exchange"));
        let trace = obs.chrome_trace_json();
        let doc = json::parse(&trace).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 lane-name metadata events (nodes 0 and 1) + 3 spans.
        assert_eq!(events.len(), 5);
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 3);
        for s in &spans {
            assert!(s.get("ts").unwrap().as_u64().is_some());
            assert!(s.get("dur").unwrap().as_u64().is_some());
            assert_eq!(s.get("pid").unwrap().as_u64(), Some(0));
        }
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("exchange"));
        assert_eq!(spans[0].get("tid").unwrap().as_u64(), Some(0));
        let args = spans[0].get("args").unwrap();
        assert_eq!(args.get("pass").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn stopwatch_measures_time() {
        let sw = Stopwatch::start();
        #[expect(
            clippy::disallowed_methods,
            reason = "the interval being measured, not a synchronisation"
        )]
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(2));
    }
}
