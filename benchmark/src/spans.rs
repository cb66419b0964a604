//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! A span is (name, start, end, parent, op). A span opened while no
//! other is open is an *op root* and starts a new op id; spans opened
//! inside it inherit that id. Spans stay in memory and are written once,
//! when the run ends. A disabled tracer records nothing, so the same
//! measuring code runs in the untraced and the traced pass and their
//! difference is the tracing overhead.

use serde::Value;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `profiler.read`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for an op root.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    /// A recording tracer measuring from `origin`.
    pub fn enabled(origin: Instant) -> Self {
        Self { origin, enabled: true, spans: Vec::new(), stack: Vec::new(), next_op: 0 }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op - 1
            }
        };
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span. Spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Appends another tracer's finished spans (a client thread's),
    /// giving its ops fresh ids of this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbed tracer has open spans");
        let (base, first_op) = (self.spans.len(), self.next_op);
        self.next_op += other.next_op;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.op += first_op;
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// The span file: one object per span.
    pub fn to_value(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Obj(vec![
                        ("id".into(), Value::Int(id as i128)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::Int(i128::from(s.start_ns))),
                        ("end_ns".into(), Value::Int(i128::from(s.end_ns))),
                        ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Int(p as i128))),
                        ("op".into(), Value::Int(i128::from(s.op))),
                    ])
                })
                .collect(),
        )
    }
}

/// Checks a span file: every span has a parent or is an op root, a
/// child's interval lies inside its parent's, and it shares its op.
pub fn validate_span_file(spans: &Value) -> Result<usize, String> {
    let Value::Arr(items) = spans else { return Err("span file is not an array".into()) };
    let int = |v: &Value, key: &str| match v.get(key) {
        Some(Value::Int(i)) => Ok(*i),
        other => Err(format!("span field `{key}` is {other:?}")),
    };
    for (i, s) in items.iter().enumerate() {
        if int(s, "id")? != i as i128 {
            return Err(format!("span {i} has the wrong id"));
        }
        let (start, end) = (int(s, "start_ns")?, int(s, "end_ns")?);
        if end < start {
            return Err(format!("span {i} ends before it starts"));
        }
        match s.get("parent") {
            Some(Value::Null) => {}
            Some(Value::Int(p)) => {
                let parent =
                    usize::try_from(*p).ok().filter(|p| *p < i).map(|p| &items[p]).ok_or_else(
                        || format!("span {i} names a parent that does not precede it"),
                    )?;
                if start < int(parent, "start_ns")? || end > int(parent, "end_ns")? {
                    return Err(format!("span {i} is not inside its parent"));
                }
                if int(s, "op")? != int(parent, "op")? {
                    return Err(format!("span {i} and its parent belong to different ops"));
                }
            }
            other => return Err(format!("span {i} has parent {other:?}")),
        }
    }
    Ok(items.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_ops_and_self_time() {
        let mut t = Tracer::enabled(Instant::now());
        let root = t.enter("op");
        t.span("child", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit(root);
        t.span("op", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[0].op, s[1].op, s[2].op), (0, 0, 1));
        assert!(s[1].dur_ns() <= s[0].dur_ns());
        assert_eq!(validate_span_file(&t.to_value()), Ok(3));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        t.span("x", || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links_valid() {
        let origin = Instant::now();
        let mut a = Tracer::enabled(origin);
        let mut b = Tracer::enabled(origin);
        a.span("op", || ());
        let r = b.enter("op");
        b.span("child", || ());
        b.exit(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans().iter().map(|s| s.op).collect::<Vec<_>>(), [0, 1, 1]);
        assert_eq!(validate_span_file(&a.to_value()), Ok(3));
    }

    #[test]
    fn validator_rejects_escaping_child() {
        let bad = Value::Arr(vec![
            Value::Obj(vec![
                ("id".into(), Value::Int(0)),
                ("start_ns".into(), Value::Int(10)),
                ("end_ns".into(), Value::Int(20)),
                ("parent".into(), Value::Null),
                ("op".into(), Value::Int(0)),
            ]),
            Value::Obj(vec![
                ("id".into(), Value::Int(1)),
                ("start_ns".into(), Value::Int(15)),
                ("end_ns".into(), Value::Int(25)),
                ("parent".into(), Value::Int(0)),
                ("op".into(), Value::Int(0)),
            ]),
        ]);
        assert!(validate_span_file(&bad).is_err());
    }
}
