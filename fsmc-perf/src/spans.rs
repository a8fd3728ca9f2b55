//! In-memory span recorder for traced runs, written out once at exit as
//! Chrome trace-event JSON (loadable in Perfetto).

use crate::json;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
    end: Instant,
    args: Vec<(String, u64)>,
}

/// Spans of one traced run. Ids start at 1; parent 0 is the root.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Spans {
    /// Records a finished span and returns its id, for children to name
    /// as their parent.
    pub fn add(
        &self,
        parent: u64,
        name: &str,
        start: Instant,
        end: Instant,
        args: &[(&str, u64)],
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span list lock");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start,
            end,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
        id
    }

    /// Reserves an id for a span whose extent is known only later (a
    /// parent recorded after its children); fill it with [`Spans::set`].
    pub fn reserve(&self, parent: u64, name: &str) -> u64 {
        let now = Instant::now();
        self.add(parent, name, now, now, &[])
    }

    pub fn set(&self, id: u64, start: Instant, end: Instant) {
        let mut spans = self.spans.lock().expect("span list lock");
        if let Some(s) = spans.get_mut(id as usize - 1) {
            s.start = start;
            s.end = end;
        }
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, with its id and parent id in `args`.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span list lock");
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3;
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                let mut args = format!("\"id\": {}, \"parent\": {}", s.id, s.parent);
                for (k, v) in &s.args {
                    args.push_str(&format!(", {}: {v}", json::quote(k)));
                }
                format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"args\": {{{args}}}}}",
                    json::quote(&s.name),
                    us(s.start),
                    us(s.end) - us(s.start)
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}
