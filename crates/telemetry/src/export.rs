//! Event-stream exporters: JSONL, Chrome trace-event JSON, precision
//! JSONL — all over one record serializer — and [`JsonObject`], the
//! writer behind the runtime's stats, diagnostics and black-box JSON.
//!
//! They are hand-rolled string builders — this crate takes no
//! dependencies. The Chrome exporter emits the [trace-event format]
//! (`B`/`E` duration events, `X` complete events, `i` instants) that
//! Perfetto and `chrome://tracing` load directly; timestamps convert
//! from the tracer's nanoseconds to the format's microseconds.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::trace::{AttrValue, Event, EventKind};
use std::fmt::{Display, Write};

/// A single-line JSON object, written field by field in call order.
#[derive(Default)]
pub struct JsonObject {
    out: String,
}

impl JsonObject {
    fn key(&mut self, key: &str) -> &mut String {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        let _ = write!(self.out, "\"{}\":", escape(key));
        &mut self.out
    }

    /// Writes `value` verbatim: an integer, a boolean, or an
    /// already-serialized JSON value.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Writes `value` as an escaped JSON string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.field(key, format_args!("\"{}\"", escape(value)))
    }

    /// Writes a float with `precision` decimals; `None` or a non-finite
    /// value is `null`.
    pub fn float(
        &mut self,
        key: &str,
        value: impl Into<Option<f64>>,
        precision: usize,
    ) -> &mut Self {
        match value.into().filter(|v| v.is_finite()) {
            Some(v) => self.field(key, format_args!("{v:.precision$}")),
            None => self.field(key, "null"),
        }
    }

    /// Writes an array of values, each written verbatim.
    pub fn list<T: Display>(
        &mut self,
        key: &str,
        values: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, v) in values.into_iter().enumerate() {
            let _ = write!(out, "{}{v}", if i > 0 { "," } else { "" });
        }
        out.push(']');
        self
    }

    /// Writes a nested object that `fill` populates.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut JsonObject)) -> &mut Self {
        let mut inner = JsonObject::default();
        fill(&mut inner);
        self.field(key, inner.finish())
    }

    /// Writes an array holding one object per item, each populated by
    /// `fill`.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut JsonObject, T),
    ) -> &mut Self {
        let objects = items.into_iter().map(|item| {
            let mut inner = JsonObject::default();
            fill(&mut inner, item);
            inner.finish()
        });
        self.list(key, objects)
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn attr_json(v: &AttrValue) -> String {
    match v {
        AttrValue::I64(i) => i.to_string(),
        AttrValue::F64(f) => {
            if f.is_finite() {
                format!("{f}")
            } else {
                "null".to_string()
            }
        }
        AttrValue::Str(s) => format!("\"{}\"", escape(s)),
    }
}

fn attrs_json(attrs: &[(&'static str, AttrValue)]) -> String {
    let fields: Vec<String> = attrs
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), attr_json(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The one record serializer: `kind`, an optional `name`, `ts_ns`, `tid`,
/// `dur_ns` on complete events, `attrs`.
fn record_json(kind: &str, name: Option<&str>, ev: &Event) -> String {
    let name = name.map_or(String::new(), |n| format!(",\"name\":\"{}\"", escape(n)));
    let dur = match ev.kind {
        EventKind::Complete { dur_ns } => format!(",\"dur_ns\":{dur_ns}"),
        _ => String::new(),
    };
    format!(
        "{{\"kind\":\"{}\"{name},\"ts_ns\":{},\"tid\":{}{dur},\"attrs\":{}}}",
        escape(kind),
        ev.ts_ns,
        ev.tid,
        attrs_json(&ev.attrs)
    )
}

fn event_json(ev: &Event) -> String {
    let kind = match ev.kind {
        EventKind::Begin => "begin",
        EventKind::End => "end",
        EventKind::Complete { .. } => "complete",
        EventKind::Mark => "mark",
    };
    record_json(kind, Some(ev.name), ev)
}

/// Renders events as one JSON object per line (JSONL) — the raw event
/// stream, for ad-hoc processing with line-oriented tools.
pub fn jsonl(events: &[Event]) -> String {
    events.iter().map(|ev| event_json(ev) + "\n").collect()
}

/// Renders events as a Chrome trace-event JSON array, loadable in
/// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut records = Vec::with_capacity(events.len());
    for ev in events {
        let ts_us = ev.ts_ns as f64 / 1e3;
        let common = format!(
            "\"name\":\"{}\",\"ts\":{ts_us:.3},\"pid\":1,\"tid\":{},\"cat\":\"hecate\",\"args\":{}",
            escape(ev.name),
            ev.tid,
            attrs_json(&ev.attrs)
        );
        let record = match &ev.kind {
            EventKind::Begin => format!("{{\"ph\":\"B\",{common}}}"),
            EventKind::End => format!("{{\"ph\":\"E\",{common}}}"),
            EventKind::Complete { dur_ns } => {
                format!(
                    "{{\"ph\":\"X\",\"dur\":{:.3},{common}}}",
                    *dur_ns as f64 / 1e3
                )
            }
            EventKind::Mark => format!("{{\"ph\":\"i\",\"s\":\"t\",{common}}}"),
        };
        records.push(record);
    }
    format!("[\n{}\n]\n", records.join(",\n"))
}

/// Renders events as one compact JSON array — the embeddable form of
/// [`jsonl`], used by diagnostics snapshots and black-box dumps that
/// inline a retained trace inside a larger JSON document.
pub fn events_json(events: &[Event]) -> String {
    let records: Vec<String> = events.iter().map(event_json).collect();
    format!("[{}]", records.join(","))
}

/// Renders a precision trace: one JSON object per line for every
/// `precision`-family mark (`precision`, `precision-probe`) in the event
/// stream, carrying its timestamp, thread, and attributes verbatim.
///
/// This is the noise-budget analogue of [`jsonl`]: the executor's
/// per-op noise-ledger marks become a line-oriented file an operator can
/// grep or load into a dataframe, and the audit driver's decrypt probes
/// interleave in timestamp order.
pub fn precision_jsonl(events: &[Event]) -> String {
    events
        .iter()
        .filter(|ev| matches!(ev.kind, EventKind::Mark))
        .filter(|ev| ev.name == "precision" || ev.name == "precision-probe")
        .map(|ev| record_json(ev.name, None, ev) + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Attrs;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                kind: EventKind::Begin,
                name: "compile",
                ts_ns: 1_000,
                tid: 1,
                attrs: vec![("scheme", "hecate".into())],
            },
            Event {
                kind: EventKind::Complete { dur_ns: 500 },
                name: "queue-wait",
                ts_ns: 1_200,
                tid: 2,
                attrs: Attrs::new(),
            },
            Event {
                kind: EventKind::Mark,
                name: "tick",
                ts_ns: 1_300,
                tid: 1,
                attrs: vec![("n", 2.into()), ("f", 0.5.into())],
            },
            Event {
                kind: EventKind::End,
                name: "compile",
                ts_ns: 2_000,
                tid: 1,
                attrs: vec![("est_us", 12.5.into())],
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let text = jsonl(&sample_events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(lines[0].contains("\"kind\":\"begin\""));
        assert!(lines[1].contains("\"dur_ns\":500"));
        assert!(lines[3].contains("\"est_us\":12.5"));
    }

    #[test]
    fn events_json_is_one_compact_array() {
        let json = events_json(&sample_events());
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(!json.contains('\n'));
        assert_eq!(json.matches("\"kind\":").count(), 4);
        assert!(json.contains("\"dur_ns\":500"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn chrome_trace_has_the_event_phases() {
        let json = chrome_trace(&sample_events());
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1.000"), "ns converted to µs");
        assert!(json.contains("\"dur\":0.500"));
        assert!(json.contains("\"scheme\":\"hecate\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn precision_jsonl_selects_precision_marks() {
        let mut events = sample_events();
        events.push(Event {
            kind: EventKind::Mark,
            name: "precision",
            ts_ns: 1_400,
            tid: 1,
            attrs: vec![
                ("i", 7.into()),
                ("op", "rescale".into()),
                ("margin_bits", 2.5.into()),
            ],
        });
        events.push(Event {
            kind: EventKind::Mark,
            name: "precision-probe",
            ts_ns: 1_500,
            tid: 1,
            attrs: vec![("measured_rms", 1e-6.into())],
        });
        // A *span* named precision must not leak in — only marks do.
        events.push(Event {
            kind: EventKind::Begin,
            name: "precision",
            ts_ns: 1_600,
            tid: 1,
            attrs: vec![],
        });
        let text = precision_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "only the two precision marks: {text}");
        assert!(lines[0].contains("\"kind\":\"precision\""));
        assert!(lines[0].contains("\"margin_bits\":2.5"));
        assert!(lines[1].contains("\"kind\":\"precision-probe\""));
        assert!(lines[1].contains("\"measured_rms\":0.000001"));
        for line in &lines {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn strings_are_escaped() {
        let ev = Event {
            kind: EventKind::Mark,
            name: "m",
            ts_ns: 0,
            tid: 1,
            attrs: vec![("msg", "a\"b\\c\nd\u{1}".into())],
        };
        let line = jsonl(&[ev]);
        assert!(line.contains("a\\\"b\\\\c\\nd\\u0001"));
    }

    #[test]
    fn json_object_writes_typed_fields_in_order() {
        assert_eq!(JsonObject::default().finish(), "{}");
        let mut o = JsonObject::default();
        o.field("n", 3u64)
            .field("ok", true)
            .str("s", "a\"b")
            .list("xs", [1usize, 2])
            .float("f", 0.25, 2)
            .float("none", None, 1)
            .float("nan", f64::NAN, 1)
            .object("inner", |i| {
                i.list("empty", Vec::<u64>::new());
            })
            .objects("rows", [1u64, 2], |r, v| {
                r.field("v", v);
            })
            .field("doc", "[{}]");
        assert_eq!(
            o.finish(),
            "{\"n\":3,\"ok\":true,\"s\":\"a\\\"b\",\"xs\":[1,2],\"f\":0.25,\"none\":null,\
             \"nan\":null,\"inner\":{\"empty\":[]},\"rows\":[{\"v\":1},{\"v\":2}],\"doc\":[{}]}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let ev = Event {
            kind: EventKind::Mark,
            name: "m",
            ts_ns: 0,
            tid: 1,
            attrs: vec![("x", f64::NAN.into())],
        };
        assert!(jsonl(&[ev]).contains("\"x\":null"));
    }
}
