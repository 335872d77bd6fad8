//! Plain-text trace persistence.
//!
//! Traces serialize to a simple CSV (`id,arrival_us,work_us`) so they can
//! be exported for inspection, plotted, or replayed across tool versions —
//! the moral equivalent of the benchmark trace files the paper consumed.

use std::io::{BufRead, Write};

use crate::{Task, Trace};

/// Error type for trace (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceIoError {
    /// Human-readable description.
    pub reason: String,
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace io error: {}", self.reason)
    }
}

impl std::error::Error for TraceIoError {}

fn err(reason: impl Into<String>) -> TraceIoError {
    TraceIoError {
        reason: reason.into(),
    }
}

/// Writes a trace as CSV with a header row.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure.
///
/// # Example
///
/// ```
/// use protemp_workload::{io, Task, Trace};
///
/// let trace = Trace::new(vec![Task::new(0, 0, 1_000)]);
/// let mut buf = Vec::new();
/// io::write_trace_csv(&trace, &mut buf).unwrap();
/// let parsed = io::read_trace_csv(buf.as_slice()).unwrap();
/// assert_eq!(parsed, trace);
/// ```
pub fn write_trace_csv<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    writeln!(w, "id,arrival_us,work_us").map_err(|e| err(format!("write failed: {e}")))?;
    for t in trace.tasks() {
        writeln!(w, "{},{},{}", t.id, t.arrival_us, t.work_us)
            .map_err(|e| err(format!("write failed: {e}")))?;
    }
    Ok(())
}

/// Reads a trace written by [`write_trace_csv`].
///
/// Strict and total: every data line must hold exactly the three `u64`
/// fields `write_trace_csv` writes (blank lines are skipped), and any
/// input, however malformed, yields a trace or an error, never a panic.
///
/// # Errors
///
/// Returns [`TraceIoError`] on malformed input: a missing or wrong header,
/// a line with fewer or more than three fields, a field that is not a
/// `u64`, or a zero `work_us`.
pub fn read_trace_csv<R: BufRead>(r: R) -> Result<Trace, TraceIoError> {
    let mut lines = r.lines();
    let header = lines
        .next()
        .ok_or_else(|| err("empty input"))?
        .map_err(|e| err(format!("read failed: {e}")))?;
    if header.trim() != "id,arrival_us,work_us" {
        return Err(err(format!("unexpected header `{header}`")));
    }
    let mut tasks = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.map_err(|e| err(format!("read failed: {e}")))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let mut field = |name: &str| -> Result<u64, TraceIoError> {
            parts
                .next()
                .ok_or_else(|| err(format!("line {}: missing {name}", lineno + 2)))?
                .trim()
                .parse::<u64>()
                .map_err(|_| err(format!("line {}: bad {name}", lineno + 2)))
        };
        let id = field("id")?;
        let arrival = field("arrival_us")?;
        let work = field("work_us")?;
        if parts.next().is_some() {
            return Err(err(format!("line {}: more than three fields", lineno + 2)));
        }
        if work == 0 {
            return Err(err(format!("line {}: zero work", lineno + 2)));
        }
        tasks.push(Task::new(id, arrival, work));
    }
    Ok(Trace::new(tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchmarkProfile, TraceGenerator};

    #[test]
    fn round_trip_generated_trace() {
        let trace = TraceGenerator::new(3).generate(&BenchmarkProfile::web_serving(), 2.0, 8);
        let mut buf = Vec::new();
        write_trace_csv(&trace, &mut buf).unwrap();
        let parsed = read_trace_csv(buf.as_slice()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_trace_csv("nope\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_bad_fields() {
        let text = "id,arrival_us,work_us\n1,2\n";
        assert!(read_trace_csv(text.as_bytes()).is_err());
        let text = "id,arrival_us,work_us\n1,x,3\n";
        assert!(read_trace_csv(text.as_bytes()).is_err());
        let text = "id,arrival_us,work_us\n1,2,0\n";
        assert!(read_trace_csv(text.as_bytes()).is_err());
        let text = "id,arrival_us,work_us\n1,2,3,junk\n";
        assert!(read_trace_csv(text.as_bytes()).is_err());
        let text = "id,arrival_us,work_us\n1,2,3,\n";
        assert!(read_trace_csv(text.as_bytes()).is_err());
    }

    #[test]
    fn skips_blank_lines() {
        let text = "id,arrival_us,work_us\n1,100,200\n\n2,300,400\n";
        let trace = read_trace_csv(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
    }
}
