//! In-memory spans recorded around the calls the benchmark makes into each
//! layer's public functions. Spans stay in memory until the run ends; the
//! per-layer metrics are derived from them afterwards.

use std::time::Instant;

/// A monotonic clock shared by every thread of one traced run (copyable, so
/// pool workers can stamp their own spans).
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Clock {
            base: Instant::now(),
        }
    }

    /// Nanoseconds since the clock's zero.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// One recorded span: `[start, end)` in clock nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary crossed, e.g. `pmem.array.load_slice`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The request (operation) every span of one op shares.
    pub req: u64,
    /// Start, clock nanoseconds.
    pub start: u64,
    /// End, clock nanoseconds.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A worker-local span, parented by the caller once the worker returns.
#[derive(Debug, Clone, Copy)]
pub struct LocalSpan {
    /// The layer boundary crossed.
    pub name: &'static str,
    /// Start, clock nanoseconds.
    pub start: u64,
    /// End, clock nanoseconds.
    pub end: u64,
}

/// Times `f` as a worker-local span appended to `out`.
pub fn local<R>(
    clock: &Clock,
    out: &mut Vec<LocalSpan>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let start = clock.now();
    let result = f();
    out.push(LocalSpan {
        name,
        start,
        end: clock.now(),
    });
    result
}

/// The spans of one traced run.
#[derive(Debug)]
pub struct Trace {
    clock: Clock,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace starting now.
    pub fn new() -> Self {
        Trace {
            clock: Clock::start(),
            spans: Vec::new(),
        }
    }

    /// The trace's clock, for worker-local spans.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            req,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.clock.now();
        self.push(name, parent, req, now, now)
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.clock.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.dur()
    }

    /// Times `f` as a span and returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let result = f();
        self.close(id);
        result
    }

    /// Adopts worker-local spans as children of `parent`.
    pub fn adopt(&mut self, parent: usize, req: u64, spans: &[LocalSpan]) {
        for s in spans {
            self.push(s.name, Some(parent), req, s.start, s.end);
        }
    }

    /// Summed duration (ns) of every span named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.dur()).sum()
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.named(name).map(|s| s.dur()).collect()
    }

    /// Summed self time (ns) of every span named `name`: each span's duration
    /// minus the part of it its children cover.
    pub fn self_total(&self, name: &str) -> u64 {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let kids: Vec<(u64, u64)> = children[id]
                    .iter()
                    .map(|&c| (self.spans[c].start, self.spans[c].end))
                    .collect();
                self_time((s.start, s.end), &kids)
            })
            .sum()
    }

    /// Ids of the children of each span.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        children
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// Self time of a span `[start, end)`: its duration minus the union of its
/// children's intervals clipped to it. Overlapping children (parallel
/// workers) are counted once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
        // Overlapping children (two parallel workers) count once.
        assert_eq!(self_time((0, 100), &[(10, 60), (40, 80)]), 30);
        // Nested and duplicated children.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30), (10, 90)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 50), &[(0, 20), (40, 90)]), 20);
        // No children: the whole span; a fully covered span: nothing.
        assert_eq!(self_time((5, 9), &[]), 4);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn trace_self_total_uses_recorded_parents() {
        let mut t = Trace::new();
        let run = t.push("run", None, 1, 0, 100);
        t.push("w", Some(run), 1, 0, 60);
        t.push("w", Some(run), 1, 30, 90);
        let other = t.push("run", None, 2, 200, 250);
        t.adopt(
            other,
            2,
            &[LocalSpan {
                name: "w",
                start: 210,
                end: 220,
            }],
        );
        assert_eq!(t.self_total("run"), 10 + 40);
        assert_eq!(t.total("w"), 60 + 60 + 10);
        assert_eq!(t.self_total("w"), 130);
        assert_eq!(t.durations("run"), vec![100, 50]);
    }
}
