//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the self-time derivation over them.
//!
//! A span carries its name, start and end, the span that caused it, and
//! the `(home, tick)` request it served. Parent links are logical: the
//! layer replays time each layer's call separately, and link it to the
//! end-to-end push of the same request, so a span's self time is its
//! thread time minus its children's (see [`Tracer::self_times`]). Spans
//! are written out once, when the run ends.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// Request id of a span that serves no single tick (a round, a session).
pub const NO_TICK: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub home: u32,
    pub tick: u32,
    /// Worker threads the call kept busy; thread time = duration × threads.
    pub threads: u32,
    /// Allocator calls counted inside the span (0 unless counting was on).
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn thread_ns(&self) -> f64 {
        self.duration_ns() as f64 * f64::from(self.threads)
    }
}

/// Where a span sits in the causal tree and which request it serves.
#[derive(Debug, Clone, Copy)]
pub struct SpanKey {
    pub parent: Option<u32>,
    pub home: u32,
    pub tick: u32,
    pub threads: u32,
}

impl SpanKey {
    pub fn root(home: u32, tick: u32) -> Self {
        Self {
            parent: None,
            home,
            tick,
            threads: 1,
        }
    }

    pub fn child(parent: u32, home: u32, tick: u32) -> Self {
        Self {
            parent: Some(parent),
            ..Self::root(home, tick)
        }
    }

    pub fn on_threads(self, threads: usize) -> Self {
        Self {
            threads: threads as u32,
            ..self
        }
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span with explicit bounds; returns its id.
    pub fn record(&mut self, name: &'static str, key: SpanKey, start_ns: u64, end_ns: u64) -> u32 {
        self.push(name, key, start_ns, end_ns.max(start_ns), 0)
    }

    /// Times `f` as one span; allocator calls inside it are counted when
    /// `count_allocs` is set. Returns the span id and `f`'s result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        key: SpanKey,
        count_allocs: bool,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        if count_allocs {
            alloc::set_counting(true);
        }
        let allocs_before = alloc::allocations();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let allocs = alloc::allocations() - allocs_before;
        if count_allocs {
            alloc::set_counting(false);
        }
        let (start, end) = (self.ns(start), self.ns(end));
        (self.push(name, key, start, end, allocs), out)
    }

    fn push(&mut self, name: &'static str, key: SpanKey, start: u64, end: u64, allocs: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: key.parent.unwrap_or(NO_PARENT),
            home: key.home,
            tick: key.tick,
            threads: key.threads,
            allocs,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time and self allocations: its thread time
    /// (duration × threads) and allocations minus those of its children.
    pub fn self_times(&self) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = self
            .spans
            .iter()
            .map(|s| (s.thread_ns(), s.allocs as f64))
            .collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut out[s.parent as usize];
                p.0 -= s.thread_ns();
                p.1 -= s.allocs as f64;
            }
        }
        out
    }

    /// Totals over the spans named `name`: count, Σ duration, Σ self time,
    /// Σ allocations, Σ self allocations.
    pub fn totals(&self, name: &str) -> Totals {
        let selves = self.self_times();
        let mut t = Totals::default();
        for (s, (self_ns, self_allocs)) in self.spans.iter().zip(selves) {
            if s.name == name {
                t.count += 1;
                t.duration_ns += s.duration_ns() as f64;
                t.self_ns += self_ns;
                t.allocs += s.allocs as f64;
                t.self_allocs += self_allocs;
            }
        }
        t
    }

    /// Durations (ns) of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes every span as one tab-separated line under a `#` header.
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        writeln!(w, "# {header}")?;
        writeln!(
            w,
            "id\tname\tstart_ns\tend_ns\tparent\thome\ttick\tthreads\tallocs"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: u32| {
                if v == u32::MAX {
                    "-".to_string()
                } else {
                    v.to_string()
                }
            };
            writeln!(
                w,
                "{id}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.home),
                opt(s.tick),
                s.threads,
                s.allocs
            )?;
        }
        w.flush()
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: usize,
    pub duration_ns: f64,
    pub self_ns: f64,
    pub allocs: f64,
    pub self_allocs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_thread_time() {
        let mut t = Tracer::new();
        // A round on two threads for 100 ns, holding two pushes of 60 and
        // 70 ns: 200 ns of thread time, 70 ns of it not spent in a push.
        let round = t.record("round", SpanKey::root(7, NO_TICK).on_threads(2), 0, 100);
        let p0 = t.record("push", SpanKey::child(round, 1, 0), 0, 60);
        let p1 = t.record("push", SpanKey::child(round, 2, 0), 30, 100);
        // Each push holds one feature extraction.
        t.record("features", SpanKey::child(p0, 1, 0), 0, 20);
        t.record("features", SpanKey::child(p1, 2, 0), 30, 55);
        let selves = t.self_times();
        assert_eq!(selves[round as usize].0, 70.0);
        assert_eq!(selves[p0 as usize].0, 40.0);
        assert_eq!(selves[p1 as usize].0, 45.0);
        let push = t.totals("push");
        assert_eq!(push.count, 2);
        assert_eq!(push.duration_ns, 130.0);
        assert_eq!(push.self_ns, 85.0);
        assert_eq!(t.totals("features").self_ns, 45.0);
        assert_eq!(t.durations("push"), vec![60.0, 70.0]);
    }

    #[test]
    fn self_allocations_subtract_like_time() {
        let mut t = Tracer::new();
        let (outer, ()) = t.time("outer", SpanKey::root(0, 0), false, || ());
        t.spans[outer as usize].allocs = 10;
        let inner = t.record("inner", SpanKey::child(outer, 0, 0), 0, 0);
        t.spans[inner as usize].allocs = 4;
        let outer_totals = t.totals("outer");
        assert_eq!(outer_totals.allocs, 10.0);
        assert_eq!(outer_totals.self_allocs, 6.0);
    }

    #[test]
    fn counted_span_sees_its_own_allocations() {
        let mut t = Tracer::new();
        let (id, v) = t.time("alloc", SpanKey::root(0, 0), true, || {
            std::hint::black_box(vec![1u8; 64])
        });
        assert_eq!(v.len(), 64);
        assert!(t.spans()[id as usize].allocs >= 1);
    }
}
