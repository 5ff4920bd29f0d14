//! In-memory spans for the traced run.
//!
//! The traced loop wraps each public call it makes in a span
//! `{request, span, parent, name, start_ns, end_ns}`. Spans go into a
//! buffer allocated up front, so recording never allocates; when the
//! buffer is full the loop stops (see [`Tracer::full`]). A span's *self
//! time* is its duration minus the time its children cover; children of
//! one span never overlap here because the traced loop is sequential.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a root span.
const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub request: u32,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            next_id: 0,
        }
    }

    /// True once fewer than `reserve` free slots remain: the caller stops
    /// before an operation could overflow the buffer.
    pub fn full(&self, reserve: usize) -> bool {
        self.spans.capacity() - self.spans.len() < reserve
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent` (`None` for a
    /// root); `f` receives the new span's id to parent its own children.
    pub fn span<R>(
        &mut self,
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce(&mut Tracer, u32) -> R,
    ) -> R {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        let out = f(self, id);
        let end_ns = self.now_ns();
        assert!(
            self.spans.len() < self.spans.capacity(),
            "span buffer overflow: check Tracer::full before each operation"
        );
        self.spans.push(Span {
            request,
            id,
            parent: parent.unwrap_or(NO_PARENT),
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in ns of every span, aligned with [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .map(|s| {
                (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0))
            })
            .collect()
    }

    /// Writes every span as JSON to `path`, creating parent directories.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{}{{\"request\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "\n" } else { ",\n" },
                s.request,
                s.id,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::with_capacity(8);
        t.span(0, None, "request", |t, root| {
            t.span(0, Some(root), "parse", |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span(0, Some(root), "eval", |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let own: BTreeMap<&str, u64> = t
            .spans()
            .iter()
            .zip(t.self_times())
            .map(|(s, own)| (s.name, own))
            .collect();
        assert!(own["parse"] >= 2_000_000);
        assert!(own["eval"] >= 1_000_000);
        let root = t.spans().iter().find(|s| s.name == "request").unwrap();
        let total = root.end_ns - root.start_ns;
        let sum: u64 = own.values().sum();
        assert_eq!(sum, total, "self times partition the root span");
    }
}
