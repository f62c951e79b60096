//! `bench --compare A.json B.json`: one row per workload × end-to-end
//! metric, judged against the bound the benchmark fixed.

use std::fmt::Write as _;

use crate::json::Json;
use crate::report::short;
use crate::spec::Better;
use crate::stats::Summary;

/// How a metric moved from the base record to the new one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (exact metrics: identical).
    Same,
    /// Improved by more than the bound, or every new run beats every base run.
    Better,
    /// Worsened by more than the bound (exact metrics: worsened at all).
    Worse,
    /// Run-to-run spread is wider than the bound: the records cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Base record's reported value.
    pub base: f64,
    /// New record's reported value.
    pub new: f64,
    /// The bound applied (0 for an exact metric compared at equality).
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

fn sample(m: &Json) -> Option<Summary> {
    let f = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Summary {
        n: f("n")? as usize,
        value: f("value")?,
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        min: f("min")?,
        max: f("max")?,
    })
}

fn judge(base: &Summary, new: &Summary, better: Better, bound: f64, equality: bool) -> Verdict {
    // Positive = the new record is worse, as a share of the base.
    let sign = if better == Better::Higher { -1.0 } else { 1.0 };
    let worsening = sign * (new.value - base.value) / base.value.abs();
    if equality {
        return match worsening {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let (all_better, all_worse) = match better {
        Better::Higher => (new.min > base.max, new.max < base.min),
        Better::Lower => (new.max < base.min, new.min > base.max),
    };
    // Quartiles of fewer than five samples are just the extremes (set-up is
    // repeated four times, the first one cold): judge those on the value.
    let noisy = base.n.min(new.n) >= 5 && base.spread().max(new.spread()) > bound;
    if worsening > bound && (all_worse || !noisy) {
        Verdict::Worse
    } else if all_better && base.min != base.max {
        Verdict::Better
    } else if noisy {
        Verdict::Unresolved
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compare two records. Workloads and metrics present in only one of them
/// are an error: the records must come from the same benchmark.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        if doc.get("schema").and_then(Json::as_f64) != Some(crate::report::SCHEMA) {
            return Err("not a schema-1 perfbench record".to_string());
        }
        Ok(doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("record has no workloads array")?
            .iter()
            .filter(|w| w.get("traced").and_then(Json::as_bool) == Some(false))
            .cloned()
            .collect())
    };
    let (base_w, new_w) = (workloads(base)?, workloads(new)?);
    if base_w.len() != new_w.len() {
        return Err(format!(
            "{} untraced workloads against {}",
            base_w.len(),
            new_w.len()
        ));
    }
    let mut rows = Vec::new();
    for b in &base_w {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let n = new_w
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("workload {name} is missing from the new record"))?;
        let same_seed =
            b.get("seed").and_then(Json::as_f64) == n.get("seed").and_then(Json::as_f64);
        let metrics = b
            .get("end_to_end")
            .and_then(Json::as_obj)
            .ok_or("workload without end_to_end")?;
        for (metric, bm) in metrics {
            let nm = n
                .get("end_to_end")
                .and_then(|m| m.get(metric))
                .ok_or_else(|| format!("{name}.{metric} is missing from the new record"))?;
            let bad = || format!("{name}.{metric} is malformed");
            let (bs, ns) = (sample(bm).ok_or_else(bad)?, sample(nm).ok_or_else(bad)?);
            let better = bm
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(bad)?;
            let bound = bm.get("bound").and_then(Json::as_f64).ok_or_else(bad)?;
            // A deterministic metric is a function of (program, seed): with
            // the seed held it gates at equality.
            let equality = same_seed && bm.get("exact").and_then(Json::as_bool) == Some(true);
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.clone(),
                unit: bm
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                base: bs.value,
                new: ns.value,
                bound: if equality { 0.0 } else { bound },
                verdict: judge(&bs, &ns, better, bound, equality),
            });
        }
    }
    Ok(rows)
}

/// The comparison as a text table; every ratio is new ÷ base.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<32} {:>14} {:>14} {:<10} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "new", "unit", "new/base", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<32} {:>14} {:>14} {:<10} {:>9.4} {:>5.0}%  {}",
            r.workload,
            r.metric,
            short(r.base),
            short(r.new),
            r.unit,
            r.new / r.base,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        out,
        "{} rows: {} same, {} better, {} worse, {} unresolved (spread wider than bound)",
        rows.len(),
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, half_iqr: f64, better: &str, exact: bool) -> Json {
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::str("1/s")),
            ("better", Json::str(better)),
            ("bound", Json::Num(0.05)),
            ("exact", Json::Bool(exact)),
            ("n", Json::Num(9.0)),
            ("q1", Json::Num(value - half_iqr)),
            ("median", Json::Num(value)),
            ("q3", Json::Num(value + half_iqr)),
            ("min", Json::Num(value - 2.0 * half_iqr)),
            ("max", Json::Num(value + 2.0 * half_iqr)),
        ])
    }

    fn record(seed: f64, metrics: Vec<(&str, Json)>) -> Json {
        let entry = Json::obj([
            ("name", Json::str("list_read")),
            ("seed", Json::Num(seed)),
            ("traced", Json::Bool(false)),
            ("end_to_end", Json::obj(metrics)),
        ]);
        crate::report::record(Json::Null, vec![entry])
    }

    fn verdict_of(base: Json, new: Json, seeds: (f64, f64)) -> Verdict {
        // Through text, as `--compare` reads its files.
        let a = Json::parse(&record(seeds.0, vec![("m", base)]).to_string()).unwrap();
        let b = Json::parse(&record(seeds.1, vec![("m", new)]).to_string()).unwrap();
        let rows = compare(&a, &b).unwrap();
        assert_eq!((rows.len(), rows[0].metric.as_str()), (1, "m"));
        rows[0].verdict
    }

    #[test]
    fn wall_metrics_gate_on_the_bound_and_the_spread() {
        let m = |v, iqr| metric(v, iqr, "higher", false);
        assert_eq!(
            verdict_of(m(100.0, 0.5), m(98.0, 0.5), (1.0, 1.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict_of(m(100.0, 0.5), m(90.0, 0.5), (1.0, 1.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict_of(m(100.0, 0.5), m(110.0, 0.5), (1.0, 1.0)),
            Verdict::Better
        );
        // Spread wider than the 5% bound: cannot tell a 3% loss from noise ...
        assert_eq!(
            verdict_of(m(100.0, 4.0), m(97.0, 4.0), (1.0, 1.0)),
            Verdict::Unresolved
        );
        // ... nor an 8% one whose runs overlap the base's ...
        assert_eq!(
            verdict_of(m(100.0, 4.0), m(92.0, 4.0), (1.0, 1.0)),
            Verdict::Unresolved
        );
        // ... unless every run lands on one side of every base run.
        assert_eq!(
            verdict_of(m(100.0, 4.0), m(120.0, 4.0), (1.0, 1.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict_of(m(100.0, 4.0), m(80.0, 4.0), (1.0, 1.0)),
            Verdict::Worse
        );
        // Three samples have no quartiles to speak of: the value decides.
        let few = |v| {
            let Json::Obj(mut m) = metric(v, 20.0, "higher", false) else {
                unreachable!()
            };
            m.iter_mut().find(|(k, _)| k == "n").unwrap().1 = Json::Num(3.0);
            Json::Obj(m)
        };
        assert_eq!(verdict_of(few(100.0), few(98.0), (1.0, 1.0)), Verdict::Same);
        // Lower-is-better flips the direction.
        let l = |v| metric(v, 0.5, "lower", false);
        assert_eq!(verdict_of(l(100.0), l(110.0), (1.0, 1.0)), Verdict::Worse);
        assert_eq!(verdict_of(l(100.0), l(90.0), (1.0, 1.0)), Verdict::Better);
    }

    #[test]
    fn exact_metrics_gate_at_equality_when_the_seed_is_held() {
        let e = |v| metric(v, 0.0, "lower", true);
        assert_eq!(
            verdict_of(e(7542228.0), e(7542228.0), (1.0, 1.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict_of(e(7542228.0), e(7542229.0), (1.0, 1.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict_of(e(7542228.0), e(7542227.0), (1.0, 1.0)),
            Verdict::Better
        );
        // Different seeds are different inputs: fall back to the bound.
        assert_eq!(
            verdict_of(e(7542228.0), e(7542229.0), (1.0, 2.0)),
            Verdict::Same
        );
    }

    #[test]
    fn mismatched_records_are_an_error() {
        let a = record(1.0, vec![("m", metric(1.0, 0.0, "lower", false))]);
        let b = record(1.0, vec![("other", metric(1.0, 0.0, "lower", false))]);
        assert!(compare(&a, &b).unwrap_err().contains("list_read.m"));
        assert!(compare(&Json::Null, &a).is_err());
        let table = render(&compare(&a, &a).unwrap());
        assert!(
            table.contains("1 rows: 1 same, 0 better, 0 worse, 0 unresolved"),
            "{table}"
        );
    }
}
