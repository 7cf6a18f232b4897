//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's own code: name, start, end, the span that caused it, the
//! request it belongs to, and how much work it did (points or frames).
//! Each thread records into its own [`Tracer`]; [`Trace::merge`] joins
//! them when the run ends, and [`Trace::layers`] derives each layer's
//! self time (its duration minus the part its child spans cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
    pub work: u64,
}

/// One thread's span buffer. Times are nanoseconds since a shared origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id for [`Tracer::close`] and for
    /// children's `parent`.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            work: 0,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32, work: u64) {
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.work = work;
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        work: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id, work);
        out
    }
}

/// Aggregate of every span of one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl Layer {
    /// Mean duration per unit of work (ns per point or per frame).
    pub fn ns_per_work(&self) -> f64 {
        self.total_ns as f64 / self.work.max(1) as f64
    }
}

/// All spans of a run, thread buffers joined.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn merge(&mut self, t: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(t.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of the spans named `name` that have a parent.
    pub fn child_durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent != ROOT)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Durations of the root spans named `name`.
    pub fn root_durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == ROOT)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Per-name totals with self time = duration − children's durations.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let l = out.entry(s.name).or_default();
            l.spans += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(child);
            l.work += s.work;
        }
        out
    }

    /// Writes every span as a tab-separated line (`id parent req name
    /// start_ns end_ns work`, parent `-` for roots) and the per-layer
    /// self times as JSON beside it.
    pub fn write(&self, spans_path: &Path, layers_path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(spans_path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns\twork")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        w.flush()?;
        let body: Vec<String> = self
            .layers()
            .iter()
            .map(|(name, l)| {
                format!(
                    "  \"{name}\": {{\"spans\": {}, \"total_ns\": {}, \"self_ns\": {}, \"work\": {}}}",
                    l.spans, l.total_ns, l.self_ns, l.work
                )
            })
            .collect();
        std::fs::write(layers_path, format!("{{\n{}\n}}\n", body.join(",\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let root = t.open("frame", ROOT, 7);
        t.time("child", root, 7, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root, 1);
        let mut trace = Trace::default();
        trace.merge(Tracer::new(origin));
        trace.merge(t);
        let layers = trace.layers();
        let (f, c) = (layers["frame"], layers["child"]);
        assert_eq!(c.self_ns, c.total_ns);
        assert_eq!(f.self_ns, f.total_ns - c.total_ns);
        assert_eq!((f.work, c.work), (1, 3));
    }
}
