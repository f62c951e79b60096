//! Run records: the schema-versioned JSON a run emits, the text table
//! rendered from it, and the one-line result the benchmark driver reads.

use std::fmt::Write as _;
use std::process::Command;

use crate::json::Json;
use crate::run::{host_cpus, Outcome};
use crate::spec::{self, END_TO_END};

/// Version of the record layout below.
pub const SCHEMA: f64 = 1.0;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run header: what produced the numbers, on what.
pub fn header(scale_name: &str, seconds: f64) -> Json {
    Json::obj([
        ("schema", Json::Num(SCHEMA)),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("host_cpus", Json::Num(host_cpus() as f64)),
        // `Auto` resolves to the coroutine backend on x86-64 Linux and to OS
        // threads elsewhere; MCSIM_EXEC pins it.
        (
            "exec_backend",
            Json::str(std::env::var("MCSIM_EXEC").unwrap_or_else(|_| "auto".to_string())),
        ),
        (
            "target",
            Json::str(format!(
                "{}-{}",
                std::env::consts::ARCH,
                std::env::consts::OS
            )),
        ),
        ("scale", Json::str(scale_name)),
        ("seconds", Json::Num(seconds)),
    ])
}

/// One workload's entry of a record.
pub fn workload_entry(o: &Outcome) -> Json {
    let w = o.workload;
    let end_to_end = o.end_to_end.iter().map(|(name, s)| {
        let def = spec::end_to_end(name).expect("every reported metric is in the table");
        let value = Json::obj([
            ("value", Json::Num(s.value)),
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better.as_str())),
            ("bound", Json::Num(def.bound)),
            ("exact", Json::Bool(def.exact)),
            ("n", Json::Num(s.n as f64)),
            ("q1", Json::Num(s.q1)),
            ("median", Json::Num(s.median)),
            ("q3", Json::Num(s.q3)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
        ]);
        (name.to_string(), value)
    });
    let per_layer = spec::per_layer().into_iter().filter_map(|l| {
        let value = *o.layers.get(&l.name)?;
        let entry = Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::str(l.unit)),
            ("better", Json::str(l.better.as_str())),
        ]);
        Some((l.name, entry))
    });
    Json::obj([
        ("name", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("seed", Json::Num(o.options.seed as f64)),
        ("traced", Json::Bool(o.options.trace)),
        ("passes", Json::Num(o.passes as f64)),
        ("ops_per_pass", Json::Num(o.ops_per_pass as f64)),
        ("host_threads", Json::Num(w.host_threads as f64)),
        ("attempted", Json::Num(o.checks.attempted as f64)),
        ("failed", Json::Num(o.checks.failed as f64)),
        (
            "failures",
            Json::Arr(o.checks.failures.iter().map(Json::str).collect()),
        ),
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", Json::obj(per_layer)),
    ])
}

/// A whole record: header plus workload entries.
pub fn record(header: Json, workloads: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::Num(SCHEMA)),
        ("header", header),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// The line the benchmark driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics` — every end-to-end metric of an untraced run,
/// every per-layer metric of a traced one.
pub fn result_line(entry: &Json) -> Json {
    let traced = entry.get("traced").and_then(Json::as_bool).unwrap_or(false);
    let source = entry.get(if traced { "per_layer" } else { "end_to_end" });
    let metrics = source
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| {
            let slim = Json::obj([
                ("value", m.get("value").cloned().unwrap_or(Json::Null)),
                ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
            ]);
            (name.clone(), slim)
        });
    let failed = entry.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
    Json::obj([
        ("correct", Json::Bool(failed == 0.0)),
        (
            "attempted",
            entry.get("attempted").cloned().unwrap_or(Json::Num(0.0)),
        ),
        ("failed", Json::Num(failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Does a traced entry hold every per-layer metric, an untraced one every
/// end-to-end metric? Returns the missing names.
pub fn missing_metrics(entry: &Json) -> Vec<String> {
    let traced = entry.get("traced").and_then(Json::as_bool).unwrap_or(false);
    let (key, names): (_, Vec<String>) = if traced {
        (
            "per_layer",
            spec::per_layer().into_iter().map(|l| l.name).collect(),
        )
    } else {
        (
            "end_to_end",
            END_TO_END.iter().map(|m| m.name.to_string()).collect(),
        )
    };
    let finite = |n: &String| {
        entry
            .get(key)
            .and_then(|m| m.get(n))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .is_some()
    };
    names.into_iter().filter(|n| !finite(n)).collect()
}

fn num(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn text(v: Option<&Json>) -> &str {
    v.and_then(Json::as_str).unwrap_or("?")
}

/// Six significant digits, enough to read and narrow enough to align.
pub(crate) fn short(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if (1e-3..1e10).contains(&v.abs()) {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 8) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.5e}")
    }
}

/// A workload entry as a text table: every metric by name with its unit;
/// timings with the reported value (host time: the lower decile, everything
/// else: the median), quartiles and sample count.
pub fn render(entry: &Json) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## {} — seed {} · {} passes × {} ops · {} host thread(s) · checks {}/{} ok",
        text(entry.get("name")),
        num(entry.get("seed")),
        num(entry.get("passes")),
        num(entry.get("ops_per_pass")),
        num(entry.get("host_threads")),
        num(entry.get("attempted")) - num(entry.get("failed")),
        num(entry.get("attempted")),
    );
    let _ = writeln!(out, "   {}", text(entry.get("why")));
    for failure in entry.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
        let _ = writeln!(out, "   FAILED: {}", text(Some(failure)));
    }
    let e2e = entry
        .get("end_to_end")
        .and_then(Json::as_obj)
        .unwrap_or(&[]);
    if !e2e.is_empty() {
        let _ = writeln!(
            out,
            "{:<32} {:>13} {:<10} {:>13} {:>13} {:>13} {:>3}  {:<6} {:>5}",
            "end-to-end metric", "value", "unit", "q1", "median", "q3", "n", "better", "bound"
        );
    }
    for (name, m) in e2e {
        let exact = m.get("exact").and_then(Json::as_bool).unwrap_or(false);
        let _ = writeln!(
            out,
            "{:<32} {:>13} {:<10} {:>13} {:>13} {:>13} {:>3}  {:<6} {:>4.0}%{}",
            name,
            short(num(m.get("value"))),
            text(m.get("unit")),
            short(num(m.get("q1"))),
            short(num(m.get("median"))),
            short(num(m.get("q3"))),
            num(m.get("n")),
            text(m.get("better")),
            num(m.get("bound")) * 100.0,
            if exact { "  exact" } else { "" },
        );
    }
    let layers = entry.get("per_layer").and_then(Json::as_obj).unwrap_or(&[]);
    if !layers.is_empty() {
        let _ = writeln!(
            out,
            "{:<44} {:>13} {:<10} better",
            "per-layer metric", "value", "unit"
        );
    }
    for (name, m) in layers {
        let _ = writeln!(
            out,
            "{:<44} {:>13} {:<10} {}",
            name,
            short(num(m.get("value"))),
            text(m.get("unit")),
            text(m.get("better")),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_keeps_six_significant_digits() {
        assert_eq!(short(0.0), "0");
        assert_eq!(short(1234.5678), "1234.57");
        assert_eq!(short(0.0123456), "0.0123456");
        assert_eq!(short(7542228.0), "7542228");
        assert_eq!(short(1.5e9), "1500000000");
        assert_eq!(short(2.5e12), "2.50000e12");
        assert_eq!(short(-2.5), "-2.50000");
    }

    #[test]
    fn result_line_has_exactly_the_driver_keys() {
        let entry = Json::obj([
            ("traced", Json::Bool(false)),
            ("attempted", Json::Num(12.0)),
            ("failed", Json::Num(0.0)),
            (
                "end_to_end",
                Json::obj([(
                    "setup_s",
                    Json::obj([
                        ("value", Json::Num(0.5)),
                        ("unit", Json::str("s")),
                        ("n", Json::Num(3.0)),
                    ]),
                )]),
            ),
            (
                "per_layer",
                Json::obj([("x", Json::obj([("value", Json::Num(1.0))]))]),
            ),
        ]);
        let line = result_line(&entry);
        let keys: Vec<_> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.to_string(),
            r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
        assert_eq!(missing_metrics(&entry).len(), END_TO_END.len() - 1);
    }
}
