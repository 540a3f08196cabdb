//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own files, around each
//! call it makes into a layer crate. A disabled recorder does nothing
//! but a branch, so untraced iterations run the same code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// Iteration the span belongs to.
    pub iter: u64,
}

/// Handle of an open span; [`Recorder::exit`] closes it.
#[must_use]
pub struct Open(Option<u32>);

pub struct Recorder {
    on: bool,
    origin: Instant,
    iter: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            iter: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans opened from now on with iteration `iter`.
    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            iter: self.iter,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now_ns();
            assert_eq!(self.stack.pop(), Some(idx), "spans close in LIFO order");
            self.spans[idx as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: each span's duration
    /// minus the part its child spans cover. Only spans of iterations
    /// accepted by `keep` count.
    pub fn self_time_ns(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if keep(s.iter) {
                *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child);
            }
        }
        out
    }

    /// The spans as a JSON document: name, start and end in
    /// microseconds, parent index (-1 for a root) and iteration id.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"perfbench-spans/v1\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"iter\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                parent,
                s.iter
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
