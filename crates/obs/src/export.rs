//! Trace export: journal events → Chrome `trace_event` JSON.
//!
//! The output loads directly in `chrome://tracing` or Perfetto. Each
//! [`Layer`](crate::Layer) becomes a synthetic process row, each
//! recording thread a
//! named thread row; spans become complete (`"X"`) events, instants
//! become `"i"` events, and `metrics` snapshots become counter (`"C"`)
//! tracks so gauges render as area charts over the timeline.

use std::collections::btree_map::{BTreeMap, Entry};
use std::io::{self, Write};
use std::path::Path;

use crate::journal::{FlowPhase, JournalEvent};
use crate::json::Value;

/// Converts journal events into a Chrome `trace_event` document.
pub fn chrome_trace(events: &[JournalEvent]) -> Value {
    let mut out = Vec::new();
    // Assign stable integer tids per (layer, thread label) in
    // first-seen order, and emit metadata naming events up front.
    let mut tids: BTreeMap<(u64, &str), u64> = BTreeMap::new();
    let mut next_tid = 1;
    let mut seen_pids: Vec<u64> = Vec::new();
    for event in events {
        let pid = event.layer.pid();
        if !seen_pids.contains(&pid) {
            seen_pids.push(pid);
            out.push(metadata_event(
                "process_name",
                pid,
                0,
                format!("sword: {}", event.layer.as_str()),
            ));
        }
        let tid = match tids.entry((pid, &*event.thread)) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(fresh) => {
                let tid = *fresh.insert(next_tid);
                next_tid += 1;
                out.push(metadata_event("thread_name", pid, tid, event.thread.to_string()));
                out.push(Value::Obj(vec![
                    ("name".to_string(), Value::Str("thread_sort_index".to_string())),
                    ("ph".to_string(), Value::Str("M".to_string())),
                    ("pid".to_string(), Value::Num(pid as f64)),
                    ("tid".to_string(), Value::Num(tid as f64)),
                    (
                        "args".to_string(),
                        Value::Obj(vec![("sort_index".to_string(), Value::Num(tid as f64))]),
                    ),
                ]));
                tid
            }
        };
        out.push(trace_event(event, pid, tid));
        if let Some(flow) = flow_event(event, pid, tid) {
            out.push(flow);
        }
    }
    Value::Obj(vec![
        ("traceEvents".to_string(), Value::Arr(out)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ])
}

fn metadata_event(name: &str, pid: u64, tid: u64, value: String) -> Value {
    Value::Obj(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::Num(pid as f64)),
        ("tid".to_string(), Value::Num(tid as f64)),
        ("args".to_string(), Value::Obj(vec![("name".to_string(), Value::Str(value))])),
    ])
}

fn trace_event(event: &JournalEvent, pid: u64, tid: u64) -> Value {
    let args: Vec<(String, Value)> =
        event.args.iter().map(|(k, v)| (k.to_string(), Value::Num(*v))).collect();
    let mut pairs = vec![
        ("name".to_string(), Value::Str(event.name.to_string())),
        ("cat".to_string(), Value::Str(event.layer.as_str().to_string())),
        ("pid".to_string(), Value::Num(pid as f64)),
        ("tid".to_string(), Value::Num(tid as f64)),
        ("ts".to_string(), Value::Num(event.t_us as f64)),
    ];
    match event.dur_us {
        Some(dur) => {
            pairs.push(("ph".to_string(), Value::Str("X".to_string())));
            pairs.push(("dur".to_string(), Value::Num(dur as f64)));
        }
        None if event.name == "metrics" => {
            pairs.push(("ph".to_string(), Value::Str("C".to_string())));
        }
        None => {
            pairs.push(("ph".to_string(), Value::Str("i".to_string())));
            pairs.push(("s".to_string(), Value::Str("t".to_string())));
        }
    }
    if !args.is_empty() {
        pairs.push(("args".to_string(), Value::Obj(args)));
    }
    Value::Obj(pairs)
}

// A flow arrow anchored to this event: `s` leaves the tail of the
// producer span, `t`/`f` arrive at the head of the consumer span. All
// hops of one channel handoff share a name/cat/id, which is how viewers
// join them into one arrow chain across threads and processes.
fn flow_event(event: &JournalEvent, pid: u64, tid: u64) -> Option<Value> {
    let (id, phase) = event.flow?;
    let ts = match phase {
        FlowPhase::Start => event.t_us + event.dur_us.unwrap_or(0),
        FlowPhase::Step | FlowPhase::End => event.t_us,
    };
    let mut pairs = vec![
        ("name".to_string(), Value::Str("queue-hop".to_string())),
        ("cat".to_string(), Value::Str("flow".to_string())),
        ("ph".to_string(), Value::Str(phase.as_str().to_string())),
        ("id".to_string(), Value::Num(id as f64)),
        ("pid".to_string(), Value::Num(pid as f64)),
        ("tid".to_string(), Value::Num(tid as f64)),
        ("ts".to_string(), Value::Num(ts as f64)),
    ];
    if phase == FlowPhase::End {
        // Bind to the enclosing slice so the arrow lands on the span
        // that dequeued the item, not on a zero-width point.
        pairs.push(("bp".to_string(), Value::Str("e".to_string())));
    }
    Some(Value::Obj(pairs))
}

/// Renders journal events to a Chrome trace file.
pub fn write_chrome_trace(path: &Path, events: &[JournalEvent]) -> io::Result<()> {
    let doc = chrome_trace(events);
    let mut file = std::fs::File::create(path)?;
    file.write_all(doc.render().as_bytes())?;
    file.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Layer;

    fn ev(
        layer: Layer,
        thread: &str,
        name: &'static str,
        t: u64,
        dur: Option<u64>,
    ) -> JournalEvent {
        JournalEvent {
            layer,
            thread: thread.into(),
            name: name.into(),
            t_us: t,
            dur_us: dur,
            args: vec![("bytes".into(), 10.0)],
            flow: None,
        }
    }

    #[test]
    fn export_shapes_spans_instants_and_counters() {
        let events = vec![
            ev(Layer::Runtime, "app-0", "flush-handoff", 5, Some(20)),
            ev(Layer::Runtime, "writer", "write", 10, Some(3)),
            ev(Layer::Offline, "analyzer", "build-structure", 40, Some(8)),
            JournalEvent {
                layer: Layer::Cli,
                thread: "metrics".into(),
                name: "metrics".into(),
                t_us: 50,
                dur_us: None,
                args: vec![("queue".into(), 2.0)],
                flow: None,
            },
            ev(Layer::Runtime, "app-0", "publish", 60, None),
        ];
        let doc = chrome_trace(&events);
        let items = doc.get("traceEvents").unwrap().as_arr().unwrap();

        // 3 process_name + 4 thread_name + 4 sort_index + 5 events.
        assert_eq!(items.len(), 16);
        let phase = |v: &Value| v.get("ph").unwrap().as_str().unwrap().to_string();
        let by_name = |n: &str| {
            items.iter().find(|v| v.get("name").unwrap().as_str() == Some(n)).unwrap().clone()
        };
        assert_eq!(phase(&by_name("flush-handoff")), "X");
        assert_eq!(by_name("flush-handoff").get("dur").unwrap().as_u64(), Some(20));
        assert_eq!(phase(&by_name("metrics")), "C");
        assert_eq!(phase(&by_name("publish")), "i");

        // Layers map to distinct pids; same thread label shares a tid.
        assert_eq!(by_name("flush-handoff").get("pid").unwrap().as_u64(), Some(1));
        assert_eq!(by_name("build-structure").get("pid").unwrap().as_u64(), Some(2));
        assert_eq!(
            by_name("flush-handoff").get("tid").unwrap().as_u64(),
            by_name("publish").get("tid").unwrap().as_u64()
        );
        assert_ne!(
            by_name("flush-handoff").get("tid").unwrap().as_u64(),
            by_name("write").get("tid").unwrap().as_u64()
        );

        // Round-trips through our own parser (valid JSON).
        let text = doc.render();
        assert_eq!(crate::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn flow_members_emit_linked_arrow_events() {
        let mut producer = ev(Layer::Runtime, "app-0", "flush-handoff", 5, Some(20));
        producer.flow = Some((9, FlowPhase::Start));
        let mut hop = ev(Layer::Runtime, "compress-0", "compress", 40, Some(10));
        hop.flow = Some((9, FlowPhase::Step));
        let mut consumer = ev(Layer::Runtime, "writer", "write", 70, Some(4));
        consumer.flow = Some((9, FlowPhase::End));
        let doc = chrome_trace(&[producer, hop, consumer]);
        let items = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<&Value> =
            items.iter().filter(|v| v.get("cat").and_then(Value::as_str) == Some("flow")).collect();
        assert_eq!(flows.len(), 3);
        let ph = |v: &Value| v.get("ph").unwrap().as_str().unwrap().to_string();
        assert_eq!(ph(flows[0]), "s");
        assert_eq!(ph(flows[1]), "t");
        assert_eq!(ph(flows[2]), "f");
        // One shared id and name joins the chain; the start anchors at
        // the producer span's tail (5 + 20).
        for f in &flows {
            assert_eq!(f.get("id").unwrap().as_u64(), Some(9));
            assert_eq!(f.get("name").unwrap().as_str(), Some("queue-hop"));
        }
        assert_eq!(flows[0].get("ts").unwrap().as_u64(), Some(25));
        assert_eq!(flows[2].get("ts").unwrap().as_u64(), Some(70));
        assert_eq!(flows[2].get("bp").unwrap().as_str(), Some("e"));
        // Flow arrows ride on the same pid/tid rows as their spans.
        assert_ne!(flows[0].get("tid").unwrap().as_u64(), flows[2].get("tid").unwrap().as_u64());
    }
}
