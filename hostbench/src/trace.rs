//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out as a Chrome trace when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op this span belongs to; all spans of one op share it.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span, child of the innermost open one. An `"op"` span
    /// starts a new op identifier.
    pub fn enter(&mut self, name: &'static str) {
        if name == "op" {
            self.next_op += 1;
        }
        let span = Span {
            name,
            op: self.next_op,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now();
    }

    /// Total duration and self time (duration minus the part its child
    /// spans cover) per span name.
    pub fn times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            e.0 += d;
            e.1 += d.saturating_sub(c);
        }
        out
    }

    /// The spans in Chrome `trace_event` JSON, one complete event each.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.op
            ));
        }
        s.push_str("]}\n");
        s
    }
}

/// Runs `f` inside a span named `name` when tracing, or just runs it.
pub fn span<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            t.enter(name);
            let r = f();
            t.exit();
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.enter("op");
        t.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let times = t.times();
        let (op_total, op_self) = times["op"];
        let (a_total, a_self) = times["a"];
        assert_eq!(a_total, a_self);
        assert_eq!(op_self, op_total - a_total);
        assert!(a_total >= 2_000_000);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, t.spans[0].op);
        assert!(t
            .chrome_json()
            .starts_with("{\"traceEvents\":[{\"name\":\"op\""));
    }
}
