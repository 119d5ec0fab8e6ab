//! In-memory span recorder.
//!
//! The benchmark records a span around each of its calls into a public
//! function of the product (one span per layer boundary); nothing inside
//! the product is instrumented. Spans stay in memory and are written out
//! once, when the run ends; each names the span that caused it, so a
//! reader can take a span's self time as its duration minus its
//! children's.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"compiler.compile"`.
    pub name: &'static str,
    /// Start, ns since [`Spans::new`].
    pub start_ns: u64,
    /// End, ns since [`Spans::new`] (0 while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// The recorder: a flat vector of spans plus the stack of open ones.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration in seconds of the spans named `name` recorded at
    /// index `from` or later.
    pub fn total_s(&self, name: &str, from: usize) -> f64 {
        let ns: u64 = self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Number of spans recorded so far (a mark for [`Spans::total_s`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_their_parent_and_nest_inside_it() {
        let mut sp = Spans::new();
        let outer = sp.enter("outer");
        sp.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.time("inner", || ());
        sp.exit(outer);
        let all = sp.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(outer));
        assert_eq!(all[2].parent, Some(outer));
        assert!(all[0].start_ns <= all[1].start_ns && all[2].end_ns <= all[0].end_ns);
        assert!(sp.total_s("inner", 0) >= 0.002);
        assert_eq!(sp.total_s("inner", sp.mark()), 0.0);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut sp = Spans::new();
        let a = sp.enter("a");
        let _b = sp.enter("b");
        sp.exit(a);
    }
}
