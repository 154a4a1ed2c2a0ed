//! JSONL event sink: one JSON object per line per observer hook.
//!
//! The schema is documented in `docs/observability.md`. Every line carries
//! an `"event"` discriminator so a stream mixing several queries stays
//! self-describing (`jq 'select(.event == "iteration")'`).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::json::ObjectWriter;
use crate::{AttrBounds, Phase, QueryMeta, QueryObserver, RunStats};

/// Writes observer events as JSON lines into any [`Write`].
///
/// Lines are buffered by the caller-supplied writer (use
/// [`JsonlSink::create`] for a buffered file). I/O errors are sticky: the
/// first failure is remembered and surfaced by [`JsonlSink::finish`],
/// while later hook calls become no-ops — query loops never unwind because
/// a log disk filled up.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) `path` and wraps it in a buffered writer.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        Self { out, error: None }
    }

    /// Flushes and returns the first I/O error encountered, if any.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn emit(&mut self, line: String) {
        if self.error.is_some() {
            return;
        }
        let res = self.out.write_all(line.as_bytes()).and_then(|_| self.out.write_all(b"\n"));
        if let Err(e) = res {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.flush() {
            self.error = Some(e);
        }
    }
}

/// Parses a JSONL event stream back into values, tolerating a truncated
/// final record.
///
/// Sinks flush at `query_end`, so a crash (or a reader racing the writer)
/// can leave at most one partial line at the end of the file — and only
/// there. A final fragment without a trailing newline that fails to parse
/// is silently skipped; a malformed *newline-terminated* line is still an
/// error, because that indicates corruption, not truncation.
pub fn parse_jsonl(text: &str) -> Result<Vec<crate::json::Json>, String> {
    let mut out = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let (line, terminated, next) = match rest.find('\n') {
            Some(i) => (&rest[..i], true, &rest[i + 1..]),
            None => (rest, false, ""),
        };
        rest = next;
        let line = line.trim_end_matches('\r');
        if line.trim().is_empty() {
            continue;
        }
        match crate::json::Json::parse(line) {
            Ok(v) => out.push(v),
            Err(_) if !terminated => break, // truncated tail, drop it
            Err(e) => return Err(format!("bad JSONL line {}: {e}", out.len() + 1)),
        }
    }
    Ok(out)
}

impl<W: Write> QueryObserver for JsonlSink<W> {
    fn query_start(&mut self, meta: &QueryMeta) {
        let mut w = ObjectWriter::new();
        w.str_field("event", "query_start")
            .str_field("kind", meta.kind.name())
            .usize_field("h", meta.num_attrs)
            .usize_field("n", meta.plan.n)
            .f64_field("epsilon", meta.epsilon)
            .usize_field("threads", meta.threads);
        self.emit(w.finish());
    }

    fn iteration(&mut self, iteration: usize, m: usize, live_candidates: usize, lambda: f64) {
        let mut w = ObjectWriter::new();
        w.str_field("event", "iteration")
            .usize_field("iteration", iteration)
            .usize_field("m", m)
            .usize_field("live_candidates", live_candidates)
            .f64_field("lambda", lambda);
        self.emit(w.finish());
    }

    fn phase(&mut self, phase: Phase, iteration: usize, nanos: u64) {
        let mut w = ObjectWriter::new();
        w.str_field("event", "phase")
            .str_field("phase", phase.name())
            .usize_field("iteration", iteration)
            .u64_field("nanos", nanos);
        self.emit(w.finish());
    }

    fn attr_retired(&mut self, attr: usize, iteration: usize, bounds: AttrBounds) {
        let mut w = ObjectWriter::new();
        w.str_field("event", "attr_retired")
            .usize_field("attr", attr)
            .usize_field("iteration", iteration)
            .f64_field("lower", bounds.lower)
            .f64_field("upper", bounds.upper);
        self.emit(w.finish());
    }

    fn query_end(&mut self, stats: &RunStats) {
        let mut w = ObjectWriter::new();
        w.str_field("event", "query_end")
            .usize_field("sample_size", stats.sample_size)
            .usize_field("iterations", stats.iterations)
            .u64_field("rows_scanned", stats.rows_scanned)
            .bool_field("converged_early", stats.converged_early);
        self.emit(w.finish());
        // Queries are complete units: flush so a tail of the file is never
        // more than one query stale, even if the process dies before
        // `finish()` runs.
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::{Plan, QueryKind};

    fn sample_events(sink: &mut JsonlSink<Vec<u8>>) {
        sink.query_start(&QueryMeta {
            kind: QueryKind::MiTopK,
            num_attrs: 20,
            epsilon: 0.5,
            threads: 4,
            plan: Plan { n: 5000, ..Plan::default() },
        });
        sink.iteration(1, 128, 20, 1.25);
        sink.phase(Phase::SampleGrow, 1, 3000);
        sink.attr_retired(7, 1, AttrBounds { lower: 0.25, upper: 0.75 });
        sink.query_end(&RunStats {
            sample_size: 128,
            iterations: 1,
            rows_scanned: 5248,
            converged_early: true,
        });
    }

    #[test]
    fn every_line_parses_with_event_tag() {
        let mut sink = JsonlSink::new(Vec::new());
        sample_events(&mut sink);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let events: Vec<String> = lines
            .iter()
            .map(|l| Json::parse(l).unwrap().get("event").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert_eq!(events, vec!["query_start", "iteration", "phase", "attr_retired", "query_end"]);
    }

    #[test]
    fn field_values_round_trip() {
        let mut sink = JsonlSink::new(Vec::new());
        sample_events(&mut sink);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines[0].get("kind").unwrap().as_str(), Some("mi_top_k"));
        assert_eq!(lines[0].get("h").unwrap().as_u64(), Some(20));
        assert_eq!(lines[1].get("lambda").unwrap().as_f64(), Some(1.25));
        assert_eq!(lines[2].get("phase").unwrap().as_str(), Some("sample_grow"));
        assert_eq!(lines[2].get("nanos").unwrap().as_u64(), Some(3000));
        assert_eq!(lines[3].get("attr").unwrap().as_u64(), Some(7));
        assert_eq!(lines[4].get("rows_scanned").unwrap().as_u64(), Some(5248));
        assert_eq!(lines[4].get("converged_early").unwrap().as_bool(), Some(true));
    }

    struct FailingWriter {
        failed: bool,
    }

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            self.failed = true;
            Err(io::Error::other("disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn io_errors_are_sticky_not_panics() {
        let mut sink = JsonlSink::new(FailingWriter { failed: false });
        sink.iteration(1, 10, 5, 0.1);
        sink.iteration(2, 20, 5, 0.1); // swallowed, no panic
        assert!(sink.finish().is_err());
    }

    #[test]
    fn query_end_flushes_through_buffered_writers() {
        // Shared byte buffer observed *without* calling finish(): only a
        // flush can have pushed the lines through the BufWriter.
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let shared = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut sink = JsonlSink::new(BufWriter::with_capacity(1 << 20, shared.clone()));
        sink.iteration(1, 128, 20, 1.25);
        assert!(shared.0.lock().unwrap().is_empty(), "BufWriter should still hold the line");
        sink.query_end(&RunStats::default());
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2, "query_end must flush: {text:?}");
        drop(sink);
    }

    #[test]
    fn parse_jsonl_skips_truncated_final_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sample_events(&mut sink);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();

        // Cut mid-way through the final record (no trailing newline).
        let cut = &text[..text.len() - 17];
        assert!(!cut.ends_with('\n'));
        let events = parse_jsonl(cut).unwrap();
        assert_eq!(events.len(), 4, "truncated tail dropped");
        assert_eq!(events[3].get("event").unwrap().as_str(), Some("attr_retired"));

        // The intact stream parses fully, with or without final newline.
        assert_eq!(parse_jsonl(&text).unwrap().len(), 5);
        assert_eq!(parse_jsonl(text.trim_end()).unwrap().len(), 5);

        // A malformed line in the *middle* (newline-terminated) is real
        // corruption and still errors.
        let corrupt = text.replacen("\"iteration\"", "\"iteration", 1);
        assert!(parse_jsonl(&corrupt).is_err());

        // Blank lines are tolerated.
        assert_eq!(parse_jsonl("\n\n{\"a\":1}\n\n").unwrap().len(), 1);
    }
}
