//! What a run reports: the one-line result the driver reads, the detail
//! file `spine all` merges, and `spine compare` over two merged reports.

use std::collections::BTreeMap;

use obs::json::Json;

use crate::names::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Summary;

/// The result of one workload run (one pass).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks beyond per-operation failures.
    pub checks: Vec<(String, bool)>,
    /// Metric values by declared name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-segment samples behind an end-to-end metric, for its quartiles.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Lines for the human reading stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record an end-to-end metric with the samples it was estimated from.
    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Every name this outcome carries must be declared, and an untraced
    /// pass must carry every end-to-end metric; a traced pass reports 0
    /// for the layers its workload does not call.
    fn declared_metrics(
        &self,
        traced: bool,
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        for name in self.metrics.keys() {
            let known = END_TO_END.iter().any(|m| m.name == *name)
                || PER_LAYER.iter().any(|m| m.name == *name);
            if !known {
                return Err(format!("metric {name} is not declared in names.rs"));
            }
        }
        if traced {
            Ok(PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        self.metrics.get(m.name).copied().unwrap_or(0.0),
                    )
                })
                .collect())
        } else {
            END_TO_END
                .iter()
                .map(|m| match self.metrics.get(m.name) {
                    Some(v) if v.is_finite() && *v != 0.0 => Ok((m.name, m.unit, *v)),
                    Some(v) => Err(format!("end-to-end metric {} is {v}", m.name)),
                    None => Err(format!("end-to-end metric {} was not measured", m.name)),
                })
                .collect()
        }
    }

    /// The last line of standard output, as the driver's contract has it.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        for (name, unit, value) in self.declared_metrics(traced)? {
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), num(value));
            m.insert("unit".to_string(), Json::String(unit.to_string()));
            metrics.insert(name.to_string(), Json::Object(m));
        }
        let mut top = BTreeMap::new();
        top.insert("correct".to_string(), Json::Bool(self.correct()));
        top.insert("attempted".to_string(), Json::Number(self.attempted as f64));
        top.insert("failed".to_string(), Json::Number(self.failed as f64));
        top.insert("metrics".to_string(), Json::Object(metrics));
        Ok(Json::Object(top).to_string())
    }

    /// The detail file: segment samples of the end-to-end metrics.
    pub fn detail_json(&self) -> String {
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| {
                let xs = v.iter().map(|x| num(*x)).collect();
                (k.to_string(), Json::Array(xs))
            })
            .collect();
        let mut top = BTreeMap::new();
        top.insert("samples".to_string(), Json::Object(samples));
        Json::Object(top).to_string()
    }
}

/// A JSON number; what is not finite has no JSON form and reads as 0.
fn num(x: f64) -> Json {
    Json::Number(if x.is_finite() { x } else { 0.0 })
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One workload's both passes, as `spine all` merges them.
pub struct WorkloadReport {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// End-to-end metric → value per run (one per `--runs`).
    pub runs: BTreeMap<String, Vec<f64>>,
    /// End-to-end metric → segment samples of the first run.
    pub segments: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric → value (first run).
    pub layers: BTreeMap<String, f64>,
}

impl WorkloadReport {
    /// Quartiles over runs when there are enough of them to have any,
    /// otherwise over the segments of the single run.
    fn summary(&self, metric: &str) -> (Summary, &'static str) {
        let runs = self.runs.get(metric).map_or(&[][..], Vec::as_slice);
        if runs.len() >= 4 {
            return (Summary::of(runs), "runs");
        }
        let segments = self.segments.get(metric).map_or(&[][..], Vec::as_slice);
        let mut s = Summary::of(segments);
        // The reported value is the run's own estimate, not the median of
        // its segment samples (see README: estimators).
        if let Some(v) = runs.first() {
            s.median = *v;
        }
        (s, "segments")
    }

    fn to_json(&self) -> Json {
        let e2e = END_TO_END
            .iter()
            .map(|m| {
                let (s, basis) = self.summary(m.name);
                (
                    m.name,
                    obj(vec![
                        ("unit", Json::String(m.unit.to_string())),
                        ("median", num(s.median)),
                        ("q1", num(s.q1)),
                        ("q3", num(s.q3)),
                        ("n", num(s.n as f64)),
                        ("basis", Json::String(basis.to_string())),
                    ]),
                )
            })
            .collect();
        let layers = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    obj(vec![
                        ("unit", Json::String(m.unit.to_string())),
                        (
                            "value",
                            num(self.layers.get(m.name).copied().unwrap_or(0.0)),
                        ),
                    ]),
                )
            })
            .collect();
        let fail_share = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        obj(vec![
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("fail_share", num(fail_share)),
            ("correct", Json::Bool(self.correct)),
            ("end_to_end", obj(e2e)),
            ("per_layer", obj(layers)),
        ])
    }
}

/// The merged report of `spine all`.
pub fn all_json(seed: u64, seconds: f64, runs: usize, workloads: &[WorkloadReport]) -> String {
    let w = workloads.iter().map(|w| (w.name, w.to_json())).collect();
    obj(vec![
        ("cores", num(crate::cores() as f64)),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("runs", num(runs as f64)),
        ("setup_repeats", num(crate::SETUP_REPEATS as f64)),
        ("workloads", obj(w)),
    ])
    .to_string()
}

/// Verdict of one workload × end-to-end metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side of a comparison.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Compare `b` against the base `a`. A spread wider than the bound on
/// either side leaves the pair unresolved, unless `b`'s worse quartile
/// still beats `a`'s better one; otherwise `b` regressed if its median is
/// worse than `a`'s by more than the bound.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Higher => (a.median - b.median) / a.median.abs(),
        Better::Lower => (b.median - a.median) / a.median.abs(),
    };
    if a.spread().max(b.spread()) > bound {
        let clearly_better = match better {
            Better::Higher => b.q1.min(b.q3) > a.q1.max(a.q3),
            Better::Lower => b.q1.max(b.q3) < a.q1.min(a.q3),
        };
        return if clearly_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn side(report: &Json, workload: &str, metric: &str) -> Result<Side, String> {
    let m = report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .ok_or_else(|| format!("{workload}/{metric}: missing"))?;
    let f = |k: &str| {
        m.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}/{metric}: no {k}"))
    };
    Ok(Side {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
    })
}

fn fail_share(report: &Json, workload: &str) -> Result<f64, String> {
    report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("fail_share"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{workload}: no fail_share"))
}

/// Render the comparison table of two `spine all` reports; the flag says
/// whether any row regressed.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = obs::json::parse(a_text).map_err(|e| format!("A: {e}"))?;
    let b = obs::json::parse(b_text).map_err(|e| format!("B: {e}"))?;
    let cores = |r: &Json| r.get("cores").and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = format!(
        "cores: A {} B {} (a result holds for its core count only)\n",
        cores(&a),
        cores(&b)
    );
    out.push_str(&format!(
        "{:<13} {:<12} {:>14} {:>14} {:>16} {:>6}  {}\n",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "verdict"
    ));
    let mut regressed = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (sa, sb) = (side(&a, w.name, m.name)?, side(&b, w.name, m.name)?);
            let v = verdict(sa, sb, m.better, m.bound);
            regressed |= v == Verdict::Regressed;
            out.push_str(&format!(
                "{:<13} {:<12} {:>14.4} {:>14.4} {:>16.4} {:>6.2}  {}\n",
                w.name,
                m.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                m.bound,
                v.as_str()
            ));
        }
        let (fa, fb) = (fail_share(&a, w.name)?, fail_share(&b, w.name)?);
        let v = if fb > fa {
            regressed = true;
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        out.push_str(&format!(
            "{:<13} {:<12} {:>14.6} {:>14.6} {:>16} {:>6}  {}\n",
            w.name,
            "fail_share",
            fa,
            fb,
            "-",
            "any",
            v.as_str()
        ));
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Side {
        Side {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
        }
    }

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(
            verdict(tight(100.0), tight(95.0), Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(tight(100.0), tight(85.0), Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(tight(100.0), tight(120.0), Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(tight(100.0), tight(115.0), Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(tight(100.0), tight(80.0), Lower, 0.10), Verdict::Ok);
        let wide = Side {
            median: 100.0,
            q1: 90.0,
            q3: 112.0,
        };
        assert_eq!(
            verdict(wide, tight(100.0), Higher, 0.10),
            Verdict::Unresolved
        );
        // Wide, but every quartile of B beats every quartile of A.
        assert_eq!(verdict(wide, tight(130.0), Higher, 0.10), Verdict::Ok);
        assert_eq!(verdict(wide, tight(70.0), Lower, 0.10), Verdict::Ok);
    }

    fn full_outcome() -> Outcome {
        let mut o = Outcome {
            attempted: 10,
            ..Default::default()
        };
        for m in &END_TO_END {
            o.set(m.name, 1.5);
        }
        o
    }

    #[test]
    fn result_line_carries_exactly_the_declared_names() {
        let o = full_outcome();
        let line = o.result_line(false).unwrap();
        let v = obs::json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(10.0));
        let Json::Object(metrics) = v.get("metrics").unwrap() else {
            panic!("metrics must be an object")
        };
        let got: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(got, want);

        let traced = obs::json::parse(&o.result_line(true).unwrap()).unwrap();
        let Json::Object(metrics) = traced.get("metrics").unwrap() else {
            panic!("metrics must be an object")
        };
        let got: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn result_line_refuses_undeclared_missing_or_zero_metrics() {
        let mut o = full_outcome();
        o.set("made.up", 1.0);
        assert!(o.result_line(false).unwrap_err().contains("made.up"));
        let mut o = full_outcome();
        o.metrics.remove(crate::names::SETUP_S);
        assert!(o.result_line(false).unwrap_err().contains("setup_s"));
        let mut o = full_outcome();
        o.set(crate::names::WORK_PER_S, 0.0);
        assert!(o.result_line(false).is_err());
    }

    #[test]
    fn failures_and_failed_checks_make_a_run_incorrect() {
        let mut o = full_outcome();
        assert!(o.correct());
        o.check("ledger", false);
        assert!(!o.correct());
        let mut o = full_outcome();
        o.failed = 1;
        assert!(!o.correct());
        assert!(o.result_line(false).unwrap().contains("\"correct\":false"));
    }
}
