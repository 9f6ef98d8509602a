//! Property tests for the JSON codec and the `metrics.json` /
//! benchmark-result document shapes: arbitrary values must survive
//! `render ∘ parse` (and snapshots `to_json ∘ from_json`) exactly.
//!
//! These files are the machine-readable interface of the observability
//! layer — `benchmark/` re-reads its own result files through this codec,
//! so any value the writer can emit must come back bit-identical.

use gar_obs::json::{self, Value};
use gar_obs::{HistogramSnapshot, MetricsSnapshot};
use proptest::prelude::*;

/// u64 values that survive the f64-backed number representation
/// (counters are rendered as integral f64s, exact below 2^53).
fn arb_u53() -> impl Strategy<Value = u64> {
    proptest::num::u64::ANY.prop_map(|n| n & ((1 << 53) - 1))
}

/// Metric-key-shaped strings plus escape-hostile characters: quotes,
/// backslashes, control bytes, and multi-byte UTF-8.
fn arb_key() -> impl Strategy<Value = String> {
    let palette = [
        'a', 'z', 'A', '0', '9', '.', '_', '{', '}', '=', ',', ' ', '"', '\\', '/', '\n', '\t',
        '\r', '\u{1}', '\u{1f}', '\u{7f}', 'µ', '階', '🦀',
    ];
    proptest::collection::vec(0usize..palette.len(), 1..12)
        .prop_map(move |ix| ix.into_iter().map(|i| palette[i]).collect())
}

fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        (arb_u53(), arb_u53(), arb_u53(), arb_u53()),
        proptest::collection::vec((0usize..65, arb_u53()), 0..8),
    )
        .prop_map(|((count, sum, min, max), buckets)| HistogramSnapshot {
            count,
            sum,
            min,
            max,
            buckets: buckets.into_iter().map(|(b, c)| (b as u8, c)).collect(),
        })
}

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::btree_map(arb_key(), arb_u53(), 0..12),
        proptest::collection::btree_map(arb_key(), arb_histogram(), 0..6),
    )
        .prop_map(|(counters, histograms)| MetricsSnapshot {
            counters,
            histograms,
        })
}

/// Scalar JSON values, including floats derived from integer ratios
/// (the compat strategies have no float ranges; `Display` of any f64
/// re-parses to the same bits, which is exactly what the codec relies
/// on for modeled seconds).
fn arb_scalar() -> impl Strategy<Value = Value> {
    (0usize..5, arb_u53(), 1u64..1_000_000, arb_key()).prop_map(|(tag, a, b, s)| match tag {
        0 => Value::Null,
        1 => Value::Bool(a % 2 == 0),
        2 => Value::Num(a as f64),
        3 => Value::Num(a as f64 / b as f64 - 1.5),
        _ => Value::Str(s),
    })
}

/// Nested documents, two levels deep: objects of arrays of scalars.
fn arb_doc() -> impl Strategy<Value = Value> {
    proptest::collection::vec(
        (
            arb_key(),
            proptest::collection::vec(arb_scalar(), 0..5),
            arb_scalar(),
        ),
        0..6,
    )
    .prop_map(|fields| {
        Value::Obj(
            fields
                .into_iter()
                .flat_map(|(k, arr, scalar)| {
                    [
                        (format!("{k}#arr"), Value::Arr(arr)),
                        (format!("{k}#val"), scalar),
                    ]
                })
                .collect(),
        )
    })
}

proptest! {
    #[test]
    fn json_values_round_trip(doc in arb_doc()) {
        let rendered = doc.render();
        let reparsed = json::parse(&rendered)
            .unwrap_or_else(|e| panic!("render produced unparsable JSON `{rendered}`: {e}"));
        prop_assert_eq!(&reparsed, &doc);
        // Render is deterministic, so it is also a fixed point.
        prop_assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn metrics_snapshots_round_trip(snap in arb_snapshot()) {
        let rendered = snap.to_json();
        let reparsed = MetricsSnapshot::from_json(&rendered)
            .unwrap_or_else(|e| panic!("to_json produced unreadable metrics: {e}\n{rendered}"));
        prop_assert_eq!(&reparsed, &snap);
        prop_assert_eq!(reparsed.to_json(), rendered);
    }

    // A benchmark result file's shape: a schema tag, run parameters, and
    // an entry list keyed `<alg>@<nodes>` with float values. Everything
    // a reader later compares must survive the codec.
    #[test]
    fn bench_documents_round_trip(entries in proptest::collection::vec(
        (0usize..4, 1u64..64, arb_u53(), 1u64..1_000_000), 1..8))
    {
        let algs = ["NPGM", "HPGM", "H-HPGM", "H-HPGM-FGD"];
        let entry_values = entries
            .iter()
            .map(|&(alg, nodes, num, den)| {
                Value::Obj(vec![
                    ("key".into(), Value::Str(format!("{}@{nodes}", algs[alg]))),
                    ("metric".into(), Value::Str("modeled_seconds".into())),
                    ("value".into(), Value::Num(num as f64 / den as f64)),
                    ("wall_seconds".into(), Value::Num(num as f64 / 1e9)),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Str("gar-bench-v1".into())),
            ("minsup_pct".into(), Value::Num(1.0)),
            ("entries".into(), Value::Arr(entry_values)),
        ]);
        let reparsed = json::parse(&doc.render()).unwrap();
        prop_assert_eq!(&reparsed, &doc);

        // And the values a reader compares come back exactly.
        let parsed_entries = reparsed.get("entries").and_then(Value::as_arr).unwrap();
        for (entry, &(_, _, num, den)) in parsed_entries.iter().zip(&entries) {
            let v = entry.get("value").and_then(Value::as_f64).unwrap();
            prop_assert_eq!(v, num as f64 / den as f64);
        }
    }
}
