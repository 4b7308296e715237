//! The slow-query log: a bounded ring buffer of explain records.
//!
//! Requests whose service time exceeds the configured threshold append
//! one JSON object — trace id, canonical template hash, verdict, cache
//! outcome, chosen plan cost (when the session has a bound object base),
//! total duration and per-stage totals (one key per span name, summed
//! over its occurrences), and the full `explain_json` report —
//! to an in-memory ring buffer. The newest `capacity` entries are
//! retrievable over the wire with `{"op":"slowlog"}`, and each entry is
//! also appended as a JSON line to `--slowlog-path` when configured.

use sqo_obs as obs;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::Mutex;

/// Bounded ring buffer of slow-query JSON entries (newest kept).
pub struct SlowLog {
    capacity: usize,
    threshold_ns: u64,
    entries: Mutex<VecDeque<String>>,
    sink: Mutex<Option<File>>,
}

/// Everything a slow-query entry records about one request.
pub struct SlowEntry<'a> {
    /// Request trace id (`session:generation:seq`).
    pub trace_id: &'a str,
    /// Session name.
    pub session: &'a str,
    /// Canonical template hash of the translated query (hex), the key
    /// the plan cache groups requests by.
    pub template_hash: u64,
    /// `"contradiction"` or `"equivalents"`.
    pub verdict: &'a str,
    /// Plan-cache outcome label (`hit` / `rebind` / `miss`).
    pub cache: &'a str,
    /// Cost-model estimate of the chosen plan, when the session has a
    /// bound object base; `None` otherwise.
    pub plan_cost: Option<f64>,
    /// End-to-end service time (admission wait excluded).
    pub elapsed_ns: u64,
    /// The request's span events, rendered as per-stage totals, when
    /// traced.
    pub trace: Option<&'a obs::Trace>,
    /// The full machine-readable report, a slice of the reply line.
    pub explain: &'a str,
}

impl SlowLog {
    /// A log holding at most `capacity` entries for requests slower than
    /// `threshold_ms`, optionally appending each entry to `path`.
    pub fn new(capacity: usize, threshold_ms: u64, path: Option<&str>) -> std::io::Result<SlowLog> {
        let sink = match path {
            Some(p) => Some(OpenOptions::new().create(true).append(true).open(p)?),
            None => None,
        };
        Ok(SlowLog {
            capacity: capacity.max(1),
            threshold_ns: threshold_ms.saturating_mul(1_000_000),
            entries: Mutex::new(VecDeque::new()),
            sink: Mutex::new(sink),
        })
    }

    /// The slow threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Whether a request with this service time qualifies as slow.
    pub fn is_slow(&self, elapsed_ns: u64) -> bool {
        elapsed_ns >= self.threshold_ns
    }

    /// Appends one entry (assumes the caller already checked
    /// [`SlowLog::is_slow`]), evicting the oldest past capacity.
    pub fn record(&self, e: &SlowEntry<'_>) {
        obs::bump(obs::Counter::ServeSlowQueries);
        let line = render_entry(e);
        if let Ok(mut sink) = self.sink.lock() {
            if let Some(f) = sink.as_mut() {
                let _ = f.write_all(line.as_bytes());
                let _ = f.write_all(b"\n");
            }
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(line);
    }

    /// The retained entries, oldest first (each a JSON object string).
    pub fn entries(&self) -> Vec<String> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

fn render_entry(e: &SlowEntry<'_>) -> String {
    let plan_cost = match e.plan_cost {
        Some(c) => format!("{c:.1}"),
        None => "null".to_string(),
    };
    let mut stages = String::from("{");
    if let Some(trace) = e.trace {
        for (i, (name, ns)) in trace.stage_totals().into_iter().enumerate() {
            if i > 0 {
                stages.push(',');
            }
            stages.push_str(&format!("{}:{ns}", obs::json_string(name)));
        }
    }
    stages.push('}');
    format!(
        concat!(
            r#"{{"trace_id":{},"session":{},"template":"{:016x}","verdict":{},"#,
            r#""cache":{},"plan_cost":{},"elapsed_ns":{},"stages":{},"explain":{}}}"#
        ),
        obs::json_string(e.trace_id),
        obs::json_string(e.session),
        e.template_hash,
        obs::json_string(e.verdict),
        obs::json_string(e.cache),
        plan_cost,
        e.elapsed_ns,
        stages,
        e.explain
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry<'a>(trace_id: &'a str, explain: &'a str) -> SlowEntry<'a> {
        SlowEntry {
            trace_id,
            session: "default",
            template_hash: 0xfeed,
            verdict: "equivalents",
            cache: "miss",
            plan_cost: Some(12.5),
            elapsed_ns: 7_000_000,
            trace: None,
            explain,
        }
    }

    #[test]
    fn ring_buffer_keeps_newest_entries() {
        let log = SlowLog::new(2, 1, None).unwrap();
        assert!(log.is_slow(1_000_000));
        assert!(!log.is_slow(999_999));
        for id in ["a", "b", "c"] {
            log.record(&entry(id, "{}"));
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].contains(r#""trace_id":"b""#));
        assert!(entries[1].contains(r#""trace_id":"c""#));
        assert!(entries[1].contains(r#""template":"000000000000feed""#));
        assert!(entries[1].contains(r#""plan_cost":12.5"#));
    }

    #[test]
    fn sink_appends_json_lines() {
        let dir = std::env::temp_dir().join(format!("sqo-slowlog-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("slow.jsonl");
        let path_str = path.to_str().unwrap();
        {
            let log = SlowLog::new(4, 1, Some(path_str)).unwrap();
            log.record(&entry("x", r#"{"verdict":"equivalents"}"#));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains(r#""trace_id":"x""#));
        let _ = std::fs::remove_file(&path);
    }
}
