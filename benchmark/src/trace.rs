//! Bench-side spans around calls into the layers. Spans stay in memory
//! while the run measures and are written as JSONL when it ends; the
//! code under test carries no tracing of its own yet.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// An open span; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Records spans up to a fixed capacity (allocated up front, so tracing
/// never reallocates inside a timed region); spans past it are dropped
/// and counted.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            dropped: 0,
        }
    }

    /// Whether a round's worth of spans still fits. A traced run stops
    /// tracing rounds once this is false, so no round is measured with
    /// half its spans dropped.
    pub fn has_room(&self) -> bool {
        self.spans.len() < self.spans.capacity() / 2
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open` and returns its duration in nanoseconds.
    #[inline]
    pub fn exit(&mut self, open: Open) -> u64 {
        if open.0 == NO_PARENT {
            return 0;
        }
        let end = self.now_ns();
        let s = &mut self.spans[open.0 as usize];
        s.end_ns = end;
        debug_assert_eq!(
            self.stack.last(),
            Some(&open.0),
            "spans close innermost first"
        );
        self.stack.pop();
        end - s.start_ns
    }

    /// Times one call as a leaf span.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.enter(name, request);
        let r = f();
        (r, self.exit(open))
    }

    /// Per span name: `(count, total self time in ns)`, where self time
    /// is the span's duration minus its direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(*kids);
        }
        by_name
    }

    /// Writes one JSON object per span.
    fn write_jsonl(&self, w: &mut impl std::io::Write, thread: &str) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"thread\": \"{thread}\", \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Ends a traced run: writes every tracer's spans to `path` as JSONL
/// and returns the self-time table as report lines.
pub fn finish(path: &Path, tracers: &[(&str, Option<&Tracer>)]) -> Vec<String> {
    let mut lines = Vec::new();
    let written = std::fs::File::create(path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        for (thread, tr) in tracers {
            if let Some(tr) = tr {
                tr.write_jsonl(&mut w, thread)?;
            }
        }
        w.flush()
    });
    match written {
        Ok(()) => lines.push(format!("trace: spans written to {}", path.display())),
        Err(e) => lines.push(format!("trace: cannot write {}: {e}", path.display())),
    }
    for (thread, tr) in tracers {
        let Some(tr) = tr else { continue };
        lines.push(format!(
            "trace[{thread}]: {} spans kept, {} dropped at capacity",
            tr.spans.len(),
            tr.dropped
        ));
        for (name, (count, self_ns)) in tr.self_times() {
            lines.push(format!(
                "trace[{thread}]: {name:<32} n={count:<8} self={:.3} ms ({:.0} ns each)",
                self_ns as f64 / 1e6,
                self_ns as f64 / count.max(1) as f64
            ));
        }
    }
    lines
}
