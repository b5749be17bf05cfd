//! The result file a whole-suite run writes, and `compare A B`: per
//! metric × workload both values, the relative change, the bound and
//! `ok` / `worse` / `unresolved`.

use crate::catalog::{self, Better};
use serde::Value;

/// One metric on one workload: the median over rounds and what the
/// rounds read.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub workload: String,
    pub value: f64,
    /// `(max - min) / median` over the rounds.
    pub spread: f64,
    pub rounds: Vec<f64>,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub seconds: f64,
    pub rows: Vec<Row>,
    /// `(workload, attempted, failed)` summed over rounds.
    pub ops: Vec<(String, u64, u64)>,
}

impl Results {
    pub fn to_json(&self) -> Value {
        let floats = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
        Value::Object(vec![
            ("schema".into(), Value::Str("cgra-benchmark/1".into())),
            ("seed".into(), Value::UInt(self.seed)),
            ("seconds".into(), Value::Float(self.seconds)),
            (
                "ops".into(),
                Value::Array(
                    self.ops
                        .iter()
                        .map(|(w, attempted, failed)| {
                            Value::Object(vec![
                                ("workload".into(), Value::Str(w.clone())),
                                ("attempted".into(), Value::UInt(*attempted)),
                                ("failed".into(), Value::UInt(*failed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                Value::Array(
                    self.rows
                        .iter()
                        .map(|r| {
                            let unit = catalog::find(&r.name).map_or("", |m| m.unit);
                            Value::Object(vec![
                                ("name".into(), Value::Str(r.name.clone())),
                                ("workload".into(), Value::Str(r.workload.clone())),
                                ("unit".into(), Value::Str(unit.into())),
                                ("value".into(), Value::Float(r.value)),
                                ("spread".into(), Value::Float(r.spread)),
                                ("rounds".into(), floats(&r.rounds)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Results, String> {
        let rows = v
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or("result file has no `metrics` array")?
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or(format!("metric row without `{k}`"))
                };
                let num = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_f64)
                        .ok_or(format!("metric row without `{k}`"))
                };
                Ok(Row {
                    name: text("name")?,
                    workload: text("workload")?,
                    value: num("value")?,
                    spread: num("spread")?,
                    rounds: m
                        .get("rounds")
                        .and_then(Value::as_array)
                        .map(|a| a.iter().filter_map(Value::as_f64).collect())
                        .unwrap_or_default(),
                })
            })
            .collect::<Result<Vec<Row>, String>>()?;
        let ops = v
            .get("ops")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|o| {
                        Some((
                            o.get("workload")?.as_str()?.to_string(),
                            o.get("attempted")?.as_u64()?,
                            o.get("failed")?.as_u64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(Results {
            seed: v.get("seed").and_then(Value::as_u64).unwrap_or(0),
            seconds: v.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
            rows,
            ops,
        })
    }

    pub fn load(path: &str) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let v = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        Results::from_json(&v)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The rounds of one side spread wider than the bound and the two
    /// sides overlap: neither "unchanged" nor "worse" can be said.
    Unresolved,
    /// A per-layer metric: reported, never gated.
    Ungated,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Ungated => "-",
        }
    }
}

/// By what share of `a` did `b` get worse (negative: better)?
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judge one end-to-end metric: `a` is the parent, `b` the change.
pub fn judge(a: &Row, b: &Row, better: Better, bound: f64) -> Verdict {
    let worse = worsening(a.value, b.value, better);
    if a.spread.max(b.spread) <= bound {
        return if worse > bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
    }
    // Noisy rounds: only a clean separation of the two sides decides.
    let b_never_worse = b
        .rounds
        .iter()
        .all(|&y| a.rounds.iter().all(|&x| worsening(x, y, better) <= 0.0));
    let b_always_worse = b
        .rounds
        .iter()
        .all(|&y| a.rounds.iter().all(|&x| worsening(x, y, better) > 0.0));
    if b_never_worse {
        Verdict::Ok
    } else if b_always_worse && worse > bound {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

/// Compare two result files; returns the printed table and whether
/// any end-to-end metric got worse.
pub fn compare(a: &Results, b: &Results) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    out.push_str(&format!(
        "{:<34} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "metric", "workload", "A", "B", "change", "bound"
    ));
    for ra in &a.rows {
        let Some(rb) = b
            .rows
            .iter()
            .find(|r| r.name == ra.name && r.workload == ra.workload)
        else {
            continue;
        };
        let Some(def) = catalog::find(&ra.name) else {
            continue;
        };
        let verdict = match def.bound {
            Some(bound) => judge(ra, rb, def.better, bound),
            None => Verdict::Ungated,
        };
        any_worse |= verdict == Verdict::Worse;
        let change = if ra.value == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (rb.value - ra.value) / ra.value.abs() * 100.0)
        };
        out.push_str(&format!(
            "{:<34} {:<14} {:>14.6} {:>14.6} {:>9} {:>6}  {}\n",
            ra.name,
            ra.workload,
            ra.value,
            rb.value,
            change,
            def.bound
                .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
            verdict.label()
        ));
    }
    for (w, attempted, failed) in &b.ops {
        let before = a.ops.iter().find(|o| &o.0 == w).map_or(0, |o| o.2);
        if *failed > before {
            any_worse = true;
            out.push_str(&format!(
                "{w}: {failed} of {attempted} operations failed in B, {before} in A  worse\n"
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, rounds: &[f64]) -> Row {
        let (value, spread) = crate::stats::median_of_rounds(rounds);
        Row {
            name: name.into(),
            workload: "serve_hit".into(),
            value,
            spread,
            rounds: rounds.to_vec(),
        }
    }

    #[test]
    fn steady_rounds_are_judged_by_the_medians() {
        let a = row("req_p50_ms", &[1.00, 1.01, 0.99]);
        assert_eq!(
            judge(
                &a,
                &row("req_p50_ms", &[1.05, 1.04, 1.06]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &a,
                &row("req_p50_ms", &[1.15, 1.14, 1.16]),
                Better::Lower,
                0.10
            ),
            Verdict::Worse
        );
        // Faster is never worse, however large the change.
        assert_eq!(
            judge(
                &a,
                &row("req_p50_ms", &[0.5, 0.5, 0.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        let a = row("throughput_rps", &[1000.0, 1010.0, 990.0]);
        let slower = row("throughput_rps", &[800.0, 805.0, 795.0]);
        let faster = row("throughput_rps", &[1300.0, 1290.0, 1310.0]);
        assert_eq!(judge(&a, &slower, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &faster, Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn noisy_rounds_are_unresolved_unless_the_sides_separate() {
        let a = row("req_p99_ms", &[1.0, 1.4, 1.2]);
        // Overlapping and noisy: cannot tell.
        assert_eq!(
            judge(
                &a,
                &row("req_p99_ms", &[1.3, 1.5, 1.1]),
                Better::Lower,
                0.15
            ),
            Verdict::Unresolved
        );
        // Every round of B beats every round of A: fine.
        assert_eq!(
            judge(
                &a,
                &row("req_p99_ms", &[0.9, 0.8, 0.95]),
                Better::Lower,
                0.15
            ),
            Verdict::Ok
        );
        // Every round of B is worse than every round of A, by more
        // than the bound at the medians: worse despite the noise.
        assert_eq!(
            judge(
                &a,
                &row("req_p99_ms", &[1.9, 2.4, 2.0]),
                Better::Lower,
                0.15
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_must_repeat() {
        let a = row("ii_over_mii_geomean", &[1.25, 1.25, 1.25]);
        assert_eq!(
            judge(
                &a,
                &row("ii_over_mii_geomean", &[1.25; 3]),
                Better::Lower,
                0.002
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &a,
                &row("ii_over_mii_geomean", &[1.26; 3]),
                Better::Lower,
                0.002
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_reports_worse_and_new_failures() {
        let a = Results {
            seed: 1,
            seconds: 10.0,
            rows: vec![
                row("req_p50_ms", &[1.0, 1.0, 1.0]),
                row("request.parse_us", &[13.0]),
            ],
            ops: vec![("serve_hit".into(), 100, 0)],
        };
        let mut b = a.clone();
        let (text, worse) = compare(&a, &b);
        assert!(!worse, "{text}");
        assert!(text.contains("request.parse_us") && text.contains(" -\n"));
        b.rows[0] = row("req_p50_ms", &[1.4, 1.4, 1.4]);
        assert!(compare(&a, &b).1);
        b.rows[0] = a.rows[0].clone();
        b.ops[0].2 = 3;
        let (text, worse) = compare(&a, &b);
        assert!(worse && text.contains("3 of 100"), "{text}");
    }

    #[test]
    fn result_files_round_trip() {
        let r = Results {
            seed: 2,
            seconds: 10.0,
            rows: vec![row("req_p50_ms", &[0.09, 0.1, 0.11])],
            ops: vec![("serve_hit".into(), 300, 1)],
        };
        let text = r.to_json().render_pretty(2);
        let back = Results::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
