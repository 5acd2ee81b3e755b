//! In-memory spans recorded around the benchmark's calls into the
//! program, written out when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

/// A shared span log.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("no recorder panicked");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name,
            request,
            start,
            end,
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no recorder panicked").clone()
    }

    /// Self time per span name, in µs: each span's duration minus the
    /// part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let spans = self.spans();
        let mut child_us = vec![0.0; spans.len() + 1];
        for s in &spans {
            if let Some(p) = s.parent {
                let parent = &spans[p as usize - 1];
                let start = s.start.max(parent.start);
                let end = s.end.min(parent.end);
                child_us[p as usize] += end.saturating_duration_since(start).as_secs_f64() * 1e6;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for s in &spans {
            let total = (s.end - s.start).as_secs_f64() * 1e6;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (total - child_us[s.id as usize]).max(0.0);
        }
        out
    }

    /// The spans as a JSON array, times in µs since the tracer started.
    pub fn to_json(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let rows: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"request\": {}, \
                     \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    s.request,
                    us(s.start),
                    us(s.end)
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
