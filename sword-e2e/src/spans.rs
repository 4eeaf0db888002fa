//! The harness's own in-memory spans: one per call into a layer crate's
//! public functions, kept in memory during the traced pass and written
//! as Chrome-trace JSON when it ends. Nothing here touches the program's
//! own observability plane — tracing inside the layers is a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::manifest::json_string;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created.
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Records nested spans of one traced pass over one workload.
pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new(workload: &'static str) -> Self {
        Recorder { workload, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            layer,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        result
    }

    /// Self time in seconds summed per span name: each span's duration
    /// minus the part its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut self_us: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_us[parent] -= span.end_us - span.start_us;
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, us) in self.spans.iter().zip(self_us) {
            *by_name.entry(span.name).or_insert(0.0) += us / 1e6;
        }
        by_name
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{index},\"parent\":{parent},\"workload\":{}}}}}",
                if index == 0 { "" } else { ",\n" },
                json_string(s.name),
                json_string(s.layer),
                s.start_us,
                s.end_us - s.start_us,
                json_string(self.workload),
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut r = Recorder::new("t");
        r.span("a", "outer", |r| {
            r.span("b", "inner", |r| r.span("c", "leaf", |_| ()));
        });
        let dur = |i: usize| r.spans[i].end_us - r.spans[i].start_us;
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[2].parent, Some(1));
        let self_s = r.self_seconds();
        assert!((self_s["outer"] * 1e6 - (dur(0) - dur(1))).abs() < 1e-6);
        assert!((self_s["inner"] * 1e6 - (dur(1) - dur(2))).abs() < 1e-6);
    }
}
