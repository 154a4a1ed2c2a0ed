//! In-memory spans for the replay trace.
//!
//! A span is `(name, start, end, parent)`; the spans of one request share
//! its request index. Nothing is written while the replay runs — the
//! whole vector goes to `out/trace-<workload>.jsonl` at exit, one JSON
//! object per line, with each span's *self time*: its duration minus the
//! part of that interval its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the request this span belongs to.
    pub request: u32,
    /// Index of the parent span in the recorder, `None` for a root.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the span covered (rows, pages, iteration number, bytes
    /// — whatever its layer counts); 0 when it counts nothing.
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one clock.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Recorder::close`].
    pub fn open(&mut self, request: u32, name: &'static str, parent: Option<u32>) -> u32 {
        let now = self.now_ns();
        self.record(request, name, parent, now, now, 0)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a finished span (a phase callback reports a duration after
    /// the fact; aggregate spans come from counter deltas).
    pub fn record(
        &mut self,
        request: u32,
        name: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
        items: u64,
    ) -> u32 {
        self.spans.push(Span { request, parent, name, start_ns, end_ns, items });
        (self.spans.len() - 1) as u32
    }

    pub fn set_items(&mut self, id: u32, items: u64) {
        self.spans[id as usize].items = items;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in recording order: duration minus the length
/// of the union of its children's intervals, each clipped to the span's
/// own interval (aggregate children are reconstructed from counters and
/// may overlap each other or overhang their parent by clock granularity).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Writes every span as one JSON line, self time included.
pub fn write_jsonl(spans: &[Span], path: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    for (id, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"request\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{},\"self_ns\":{self_ns},\"items\":{}}}",
            span.request, span.name, span.start_ns, span.end_ns, span.items
        )
        .map_err(fail)?;
    }
    out.flush().map_err(fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { request: 0, parent, name: "t", start_ns, end_ns, items: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(None, 0, 100),    // 0: root
            span(Some(0), 10, 30), // 1
            span(Some(0), 40, 90), // 2
            span(Some(2), 50, 60), // 3: grandchild, not the root's business
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 50, 20, 50 - 10, 10]);
        // The parts sum to the whole: every nanosecond of the root is
        // some span's self time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span(None, 100, 200),
            span(Some(0), 110, 150),
            span(Some(0), 140, 170), // overlaps the previous child by 10
            span(Some(0), 190, 260), // overhangs the parent's end by 60
            span(Some(0), 20, 90),   // entirely before the parent: ignored
            span(Some(0), 120, 130), // nested inside the first child's cover
        ];
        // Cover = [110,170) ∪ [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
        // A child fully covering its parent leaves zero, never negative.
        let full = vec![span(None, 10, 20), span(Some(0), 0, 50)];
        assert_eq!(self_times(&full)[0], 0);
    }

    #[test]
    fn recorder_opens_closes_and_records() {
        let mut rec = Recorder::new();
        let root = rec.open(7, "request", None);
        let child = rec.record(7, "phase", Some(root), 5, 9, 3);
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[child as usize],
            Span {
                request: 7,
                parent: Some(root),
                name: "phase",
                start_ns: 5,
                end_ns: 9,
                items: 3
            }
        );
        assert!(spans[root as usize].end_ns >= spans[root as usize].start_ns);
        assert_eq!(spans[child as usize].duration_ns(), 4);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_self_time() {
        let spans = vec![span(None, 0, 100), span(Some(0), 10, 30)];
        let path =
            std::env::temp_dir().join(format!("swope-e2e-span-{}.jsonl", std::process::id()));
        write_jsonl(&spans, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let root = swope_obs::json::Json::parse(lines[0]).unwrap();
        assert_eq!(root.get("self_ns").unwrap().as_u64(), Some(80));
        assert_eq!(root.get("parent"), Some(&swope_obs::json::Json::Null));
        let child = swope_obs::json::Json::parse(lines[1]).unwrap();
        assert_eq!(child.get("parent").unwrap().as_u64(), Some(0));
    }
}
