//! Host-time benchmark of the SuperNPU reproduction: four seeded
//! workloads driven in a closed loop, end-to-end metrics with tracing
//! off, and a traced run that splits the time across the model layers.
//! See `README.md` beside this crate.

pub mod calib;
pub mod digest;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod runner;
pub mod workloads;

use runner::{Metric, Record};
use serde_json::Value;

fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.map(|(k, v)| (k.to_owned(), v)).into())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// `{"name": {"value": v, "unit": u}, ...}`; a non-finite value prints
/// as `null`.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = (String, &'a Metric)>) -> Value {
    Value::Object(
        metrics
            .into_iter()
            .map(|(name, m)| {
                let v = obj([("value", Value::F64(m.value)), ("unit", text(m.unit))]);
                (name, v)
            })
            .collect(),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("JSON values always serialize")
}

/// The full record of one run: options, host fingerprint, digest,
/// reference notes and metrics.
pub fn record_json(r: &Record) -> String {
    let host = obj([
        ("logical_cores", Value::U64(r.host.logical_cores as u64)),
        ("cpu_model", text(&r.host.cpu_model)),
        ("rustc", text(r.host.rustc)),
        ("threads", Value::U64(r.host.threads as u64)),
    ]);
    let record = obj([
        ("workload", text(&r.options.workload)),
        ("seed", Value::U64(r.options.seed)),
        ("seconds", Value::F64(r.options.seconds)),
        ("trace", Value::Bool(r.options.trace)),
        ("host", host),
        ("digest", text(&format!("{:016x}", r.digest))),
        ("correct", Value::Bool(r.correct)),
        ("attempted", Value::U64(r.attempted)),
        ("failed", Value::U64(r.failed)),
        (
            "notes",
            Value::Array(r.notes.iter().map(|n| text(n)).collect()),
        ),
        (
            "metrics",
            metrics_json(r.metrics.iter().map(|m| (m.name.to_owned(), m))),
        ),
        (
            "raw",
            metrics_json(r.raw.iter().map(|m| (m.name.to_owned(), m))),
        ),
    ]);
    serde_json::to_string(&obj([("record", record)])).expect("JSON values always serialize")
}
