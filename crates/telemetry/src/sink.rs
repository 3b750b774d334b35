//! Structured JSONL event sink.
//!
//! Disabled by default (one relaxed atomic load per potential event).
//! Enabled through the `TLMM_TELEMETRY` environment variable, read on
//! first use:
//!
//! * `TLMM_TELEMETRY=json` — one JSON object per line on stderr;
//! * `TLMM_TELEMETRY=<path>` (any other non-empty value) — append the
//!   same stream to the file at `<path>`.
//!
//! Every event carries an `event` type tag and a `t_ns` timestamp
//! (nanoseconds since the telemetry epoch). Current event taxonomy:
//!
//! | `event`      | emitted by | payload |
//! |--------------|-----------|---------|
//! | `span_end`   | span drops | `name`, `id`, `parent`, `start_ns`, `dur_ns`, `lane?` |
//! | `phase_sim`  | memsim engines | `engine`, `name`, `seconds`, `bottleneck`, `far_bytes`, `near_bytes`, `compute_ops` |
//! | custom       | [`emit`] callers | arbitrary `Value::Map` payload |

use std::fs::OpenOptions;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use serde::{Serialize, Value};

use crate::span::SpanRecord;

const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);
static WRITER: OnceLock<Mutex<Box<dyn Write + Send>>> = OnceLock::new();

fn init() -> u8 {
    let target = std::env::var("TLMM_TELEMETRY").unwrap_or_default();
    let state = if target.is_empty() {
        STATE_OFF
    } else {
        let writer: Option<Box<dyn Write + Send>> = if target == "json" {
            Some(Box::new(std::io::stderr()))
        } else {
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&target)
                .map_err(|err| {
                    eprintln!("tlmm-telemetry: cannot open sink {target:?}: {err}");
                    err
                })
                .ok()
                .map(|f| Box::new(f) as Box<dyn Write + Send>)
        };
        match writer {
            Some(w) => {
                let _ = WRITER.set(Mutex::new(w));
                STATE_ON
            }
            None => STATE_OFF,
        }
    };
    STATE.store(state, Ordering::Relaxed);
    state
}

/// Whether the JSONL sink is active (cheap; safe to call per event).
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNKNOWN => init() == STATE_ON,
        s => s == STATE_ON,
    }
}

fn write_line(value: &Value) {
    if let Some(writer) = WRITER.get() {
        let mut w = writer.lock();
        let _ = writeln!(w, "{}", serde::json::value_to_string(value));
        let _ = w.flush();
    }
}

/// Emit one event. `fields` is the payload; the sink adds the `event`
/// tag and a `t_ns` timestamp. No-op (beyond one atomic load) when the
/// sink is disabled.
pub fn emit(event: &str, fields: Vec<(String, Value)>) {
    if !enabled() {
        return;
    }
    let mut map = Vec::with_capacity(fields.len() + 2);
    map.push(("event".to_string(), Value::Str(event.to_string())));
    map.push(("t_ns".to_string(), Value::U64(crate::now_ns())));
    map.extend(fields);
    write_line(&Value::Map(map));
}

/// Convenience: emit an event whose payload is any `Serialize` value
/// (must serialize to a map for a well-formed line).
pub fn emit_value<T: Serialize>(event: &str, payload: &T) {
    if !enabled() {
        return;
    }
    let fields = match payload.to_value() {
        Value::Map(fields) => fields,
        other => vec![("payload".to_string(), other)],
    };
    emit(event, fields);
}

pub(crate) fn emit_span(record: &SpanRecord) {
    if !enabled() {
        return;
    }
    let mut fields = vec![
        ("name".to_string(), Value::Str(record.name.clone())),
        ("id".to_string(), Value::U64(record.id)),
        ("parent".to_string(), Value::U64(record.parent)),
        ("start_ns".to_string(), Value::U64(record.start_ns)),
        ("dur_ns".to_string(), Value::U64(record.dur_ns)),
    ];
    if let Some(lane) = record.lane() {
        fields.push(("lane".to_string(), Value::U64(lane as u64)));
    }
    emit("span_end", fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test process does not set TLMM_TELEMETRY, so the sink must be
    // off and every emit path a no-op that doesn't panic.
    #[test]
    fn disabled_sink_is_silent() {
        assert!(!enabled());
        emit("test_event", vec![("k".to_string(), Value::U64(1))]);
        emit_value("test_event", &Value::Bool(true));
    }
}
