//! In-memory wall-clock spans around the benchmark's calls into each
//! layer, written out as a Perfetto (Chrome `trace_events`) JSON file at
//! the end of a traced run.
//!
//! A disabled probe runs the wrapped closure and nothing else, so the
//! untraced passes that produce the end-to-end metrics pay no tracing
//! cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Request or DAG id the span belongs to, when it has one.
    id: Option<u64>,
}

/// Span recorder for one workload (one Perfetto process).
#[derive(Debug)]
pub struct Probe {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Per span name: calls, total time and self time (total minus the
/// time covered by direct children), in seconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Probe {
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn off() -> Probe {
        Probe::new(false)
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, id: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                id,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        r
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn tallies(&self) -> BTreeMap<&'static str, Tally> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Tally> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Append this probe's spans as `X` events on process `pid`; each
    /// carries its parent span's index and its request/DAG id in `args`.
    pub fn write_events(&self, pid: u32, process: &str, out: &mut Vec<String>) {
        out.push(format!(
            r#"{{"ph":"M","name":"process_name","pid":{pid},"tid":1,"args":{{"name":"{process}"}}}}"#
        ));
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let mut args = format!(r#""span":{i}"#);
            if let Some(p) = s.parent {
                let _ = write!(args, r#","parent":{p}"#);
            }
            if let Some(id) = s.id {
                let _ = write!(args, r#","id":{id}"#);
            }
            out.push(format!(
                r#"{{"ph":"X","name":"{}","cat":"wall","pid":{pid},"tid":1,"ts":{:.3},"dur":{:.3},"args":{{{args}}}}}"#,
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
    }
}

/// Render collected events as one Perfetto-loadable JSON document.
pub fn perfetto_json(events: &[String]) -> String {
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::Probe;

    #[test]
    fn self_time_excludes_children() {
        let p = Probe::new(true);
        p.span("outer", None, || {
            p.span("inner", Some(7), || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let t = p.tallies();
        assert_eq!(t["outer"].calls, 1);
        assert!(t["outer"].total_s >= t["inner"].total_s);
        assert!(t["outer"].self_s < t["inner"].total_s);
        let mut ev = Vec::new();
        p.write_events(3, "w", &mut ev);
        assert_eq!(ev.len(), 3);
        assert!(ev[2].contains(r#""parent":0"#) && ev[2].contains(r#""id":7"#));
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let p = Probe::off();
        assert_eq!(p.span("x", None, || 5), 5);
        assert!(p.tallies().is_empty());
    }
}
