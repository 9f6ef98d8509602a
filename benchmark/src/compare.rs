//! `compare A.json B.json`: per (workload, metric) delta of two sets of
//! runs against the bounds, the tool behind the run-to-run acceptance
//! check and every later before/after claim.

use crate::spec::{Better, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use gar_obs::json::{parse, Value};
use std::collections::BTreeMap;

/// The values of one metric on one workload, keyed by the run's seed.
type Cell = BTreeMap<u64, f64>;

/// One file written by `run` or `trace`.
pub struct RunSet {
    /// (workload, metric) → seed → value.
    cells: BTreeMap<(String, String), Cell>,
    /// workload → operations failed, summed over its runs.
    failed: BTreeMap<String, u64>,
}

impl RunSet {
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let doc = parse(text)?;
        let runs = doc
            .get("runs")
            .and_then(Value::as_arr)
            .ok_or("no \"runs\" array")?;
        let mut set = RunSet {
            cells: BTreeMap::new(),
            failed: BTreeMap::new(),
        };
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run without workload")?;
            let seed = run
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or("run without seed")?;
            let Some(result) = run.get("result").filter(|r| **r != Value::Null) else {
                // A run that printed no result line failed as a whole.
                *set.failed.entry(workload.to_string()).or_insert(0) += 1;
                continue;
            };
            let failed = result
                .get("failed")
                .and_then(Value::as_u64)
                .ok_or("result without failed")?;
            *set.failed.entry(workload.to_string()).or_insert(0) += failed;
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                return Err("result without metrics".into());
            };
            for (name, cell) in metrics {
                let value = cell
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or("metric without value")?;
                set.cells
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .insert(seed, value);
            }
        }
        Ok(set)
    }

    pub fn load(path: &str) -> Result<RunSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        RunSet::parse(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// How one cell came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finding {
    /// Within the bound, and the spread is narrow enough to say so.
    Ok,
    /// Every run of B reads better than every run of A.
    Better,
    /// B's median is worse than A's by more than the bound.
    Breach,
    /// The spread of A or B is wider than the bound: no verdict.
    Unresolved,
    /// An exact count differs between same-seed runs.
    Differs,
}

/// Share of A's median by which B's is worse (negative: better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Finding {
    let all_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if worse_by(median(a), median(b), better) > bound {
        Finding::Breach
    } else if all_better {
        Finding::Better
    } else if spread(a).max(spread(b)) > bound {
        Finding::Unresolved
    } else {
        Finding::Ok
    }
}

fn values(cell: &Cell) -> Vec<f64> {
    cell.values().copied().collect()
}

/// Prints the comparison; returns (breaches, unresolved cells).
pub fn compare(a: &RunSet, b: &RunSet) -> (usize, usize) {
    let (mut breaches, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  finding",
        "workload", "metric", "A median", "B median", "worse", "A sprd", "B sprd", "bound"
    );
    for w in &WORKLOADS {
        let gated = END_TO_END.iter().map(|m| (m.name, m.better, Some(m.bound)));
        let layers = PER_LAYER.iter().map(|m| (m.0, m.2, None));
        for (name, better, bound) in gated.chain(layers) {
            let key = (w.name.to_string(), name.to_string());
            let (Some(ca), Some(cb)) = (a.cells.get(&key), b.cells.get(&key)) else {
                continue;
            };
            let (va, vb) = (values(ca), values(cb));
            let finding = if EXACT_COUNTS.contains(&name) {
                let same = ca
                    .iter()
                    .all(|(seed, x)| cb.get(seed).is_none_or(|y| x == y));
                if same {
                    Finding::Ok
                } else {
                    Finding::Differs
                }
            } else {
                // Layer metrics have no bound of their own; they are
                // shown so a delta can be located, never gated.
                bound.map_or(Finding::Ok, |bound| judge(&va, &vb, better, bound))
            };
            match finding {
                Finding::Breach | Finding::Differs => breaches += 1,
                Finding::Unresolved => unresolved += 1,
                Finding::Ok | Finding::Better => {}
            }
            println!(
                "{:<14} {:<34} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}% {:>6.1}% {:>6}  {}",
                w.name,
                name,
                median(&va),
                median(&vb),
                worse_by(median(&va), median(&vb), better) * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                match finding {
                    Finding::Ok => "ok",
                    Finding::Better => "better",
                    Finding::Breach => "BREACH",
                    Finding::Unresolved => "unresolved",
                    Finding::Differs => "DIFFERS",
                }
            );
        }
        let (fa, fb) = (
            a.failed.get(w.name).copied().unwrap_or(0),
            b.failed.get(w.name).copied().unwrap_or(0),
        );
        if a.failed.contains_key(w.name) || b.failed.contains_key(w.name) {
            let more = fb > fa;
            breaches += usize::from(more);
            println!(
                "{:<14} {:<34} {:>14} {:>14} {:>48}",
                w.name,
                "failed operations",
                fa,
                fb,
                if more { "BREACH" } else { "ok" }
            );
        }
    }
    println!("{breaches} breached, {unresolved} unresolved");
    (breaches, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_median_past_the_bound_is_a_breach_in_either_direction() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            judge(&a, &[1.12, 1.13, 1.11, 1.12], Better::Lower, 0.10),
            Finding::Breach
        );
        assert_eq!(
            judge(&a, &[1.05, 1.04, 1.06, 0.99], Better::Lower, 0.10),
            Finding::Ok
        );
        assert_eq!(
            judge(&a, &[0.88, 0.87, 0.89, 0.88], Better::Higher, 0.10),
            Finding::Breach
        );
        assert_eq!(
            judge(&a, &[0.90, 0.91, 0.89, 0.90], Better::Lower, 0.10),
            Finding::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_gives_no_verdict() {
        let noisy = [1.0, 1.4, 0.7, 1.2, 0.9, 1.3];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, 0.10),
            Finding::Unresolved
        );
    }

    #[test]
    fn run_sets_parse_and_count_failures() {
        let text = r#"{"runs":[
          {"workload":"fgd-skew","seed":1,"result":{"correct":true,"attempted":9,"failed":0,
            "metrics":{"mine_wall_s":{"value":1.5,"unit":"s"}}}},
          {"workload":"fgd-skew","seed":2,"result":null}]}"#;
        let set = RunSet::parse(text).unwrap();
        let key = ("fgd-skew".to_string(), "mine_wall_s".to_string());
        assert_eq!(set.cells[&key][&1], 1.5);
        assert_eq!(set.failed["fgd-skew"], 1);
        assert!(RunSet::parse("{}").is_err());
    }
}
