//! Plain-text (de)serialization of frequency tables and build artifacts.
//!
//! Two generations of one line-oriented key/value layout, chosen so tables
//! can be inspected, diffed and shipped to run-time firmware without any
//! serialization dependency.
//!
//! **v1** is the bare run-time table (what the controller needs):
//!
//! ```text
//! protemp-table v1
//! mode variable
//! tstarts 50 70 90
//! ftargets 200000000 600000000
//! entry 0 0 freqs 2e8 2e8 ... powers 0.16 ... tgrad 1.5 objective 1.3
//! entry 0 1 infeasible
//! ...
//! ```
//!
//! **v2** ([`write_table_v2`] / [`read_table_v2`]) carries the whole
//! [`BuildArtifact`] minus its certificates: per-cell optimal points
//! (`x r c …`), per-cell solve statistics (`stats r c …` — status, Newton
//! steps, phase-I flag, warm flag, rows pruned by the solver's reduction
//! pass, polish flag; the last two are optional so pre-reduction v2 files
//! still load, with zeros), the build context fingerprint, and a trailing
//! FNV-1a checksum line so truncated or hand-edited files are rejected
//! instead of silently reused:
//!
//! ```text
//! protemp-table v2
//! fingerprint 1a2b3c4d5e6f7081
//! warmstart 1
//! mode variable
//! tstarts ...
//! ftargets ...
//! entry 0 0 freqs ... powers ... tgrad ... objective ...
//! x 0 0 1.2e-1 ...
//! stats 0 0 feasible 14 1 0 1976 0
//! entry 0 1 infeasible
//! stats 0 1 infeasible 96 1 0 1976 1
//! ...
//! checksum 9f8e7d6c5b4a3921
//! ```
//!
//! Certificates live in a sibling file ([`write_certificates`] /
//! [`read_certificates`]) with the same fingerprint + checksum framing,
//! each block delimited by `cert <tstart> <ftarget>` … `endcert` and
//! serialized by [`protemp_cvx::Certificate::write_text`]. Both readers
//! reject duplicate and out-of-range cells explicitly (tracked in a
//! bitset), and [`crate::TableStore`] degrades a bad `.certs` file to "no
//! certificates" — the table itself is never reconstructed from one.

use std::io::{BufRead, Write};

use protemp_cvx::Certificate;

use crate::{
    BuildArtifact, CellRecord, CellStatus, FreqMode, FrequencyAssignment, FrequencyTable,
    ProTempError, Result, StoredCertificate,
};

/// 64-bit FNV-1a over raw bytes — the checksum guarding v2 files. Not
/// cryptographic; it catches truncation, bit rot and casual hand edits,
/// while certificate *soundness* never rests on it (every certificate is
/// re-verified against live problem data before use).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bad(reason: impl Into<String>) -> ProTempError {
    ProTempError::TableFormat {
        reason: reason.into(),
    }
}

/// Fixed-size bitset tracking which grid cells a reader has populated, so
/// duplicate `entry r c` lines are rejected explicitly instead of each
/// counting toward the completeness total while silently overwriting.
struct SeenCells {
    words: Vec<u64>,
    count: usize,
}

impl SeenCells {
    fn new(n: usize) -> Self {
        SeenCells {
            words: vec![0; n.div_ceil(64)],
            count: 0,
        }
    }

    /// Marks cell `i`; `false` when it was already marked.
    fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & b != 0 {
            return false;
        }
        self.words[w] |= b;
        self.count += 1;
        true
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }
}

/// Bounds-checks `(r, c)` *before* computing the flat index, so a
/// malformed file with a huge row index reports a format error instead of
/// overflowing the multiply in debug builds.
fn cell_index(r: usize, c: usize, rows: usize, cols: usize, what: &str) -> Result<usize> {
    if r >= rows || c >= cols {
        return Err(bad(format!("{what} ({r},{c}) out of range")));
    }
    Ok(r * cols + c)
}

fn format_nums(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.17e}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_nums(s: &str) -> Result<Vec<f64>> {
    s.split_whitespace()
        .map(|t| {
            t.parse::<f64>()
                .map_err(|_| bad(format!("bad number `{t}`")))
        })
        .collect()
}

/// Writes a v1 table to any writer.
///
/// # Errors
///
/// Returns [`ProTempError::TableFormat`] on I/O failure.
pub fn write_table<W: Write>(table: &FrequencyTable, mut w: W) -> Result<()> {
    let io_err = |e: std::io::Error| bad(format!("write failed: {e}"));
    let mut buf = String::new();
    buf.push_str("protemp-table v1\n");
    push_table_body(table, &mut buf);
    for r in 0..table.tstarts_c().len() {
        for c in 0..table.ftargets_hz().len() {
            push_entry_line(table, r, c, &mut buf);
        }
    }
    w.write_all(buf.as_bytes()).map_err(io_err)
}

/// The v1 body (grids + entry lines), shared verbatim by the v2 layout.
fn push_table_body(table: &FrequencyTable, buf: &mut String) {
    buf.push_str(&format!("mode {}\n", table.mode()));
    buf.push_str(&format!("tstarts {}\n", format_nums(table.tstarts_c())));
    buf.push_str(&format!("ftargets {}\n", format_nums(table.ftargets_hz())));
}

fn push_entry_line(table: &FrequencyTable, r: usize, c: usize, buf: &mut String) {
    match table.entry(r, c) {
        Some(a) => {
            let tg = a
                .tgrad_c
                .map_or("none".to_string(), |t| format!("{t:.17e}"));
            buf.push_str(&format!(
                "entry {r} {c} freqs {} powers {} tgrad {tg} objective {:.17e}\n",
                format_nums(&a.freqs_hz),
                format_nums(&a.powers_w),
                a.objective
            ));
        }
        None => buf.push_str(&format!("entry {r} {c} infeasible\n")),
    }
}

/// Parses the tail of an `entry ` line: `r c infeasible` or
/// `r c freqs … powers … tgrad … objective …`.
fn parse_entry(rest: &str) -> Result<(usize, usize, Option<FrequencyAssignment>)> {
    let mut parts = rest.split_whitespace();
    let row: usize = parts
        .next()
        .ok_or_else(|| bad("entry missing row"))?
        .parse()
        .map_err(|_| bad("bad entry row"))?;
    let col: usize = parts
        .next()
        .ok_or_else(|| bad("entry missing col"))?
        .parse()
        .map_err(|_| bad("bad entry col"))?;
    let tail: Vec<&str> = parts.collect();
    if tail == ["infeasible"] {
        return Ok((row, col, None));
    }
    let text = tail.join(" ");
    let after_freqs = text
        .strip_prefix("freqs ")
        .ok_or_else(|| bad("entry missing freqs"))?;
    let (freq_part, rest) = after_freqs
        .split_once(" powers ")
        .ok_or_else(|| bad("entry missing powers"))?;
    let (power_part, rest) = rest
        .split_once(" tgrad ")
        .ok_or_else(|| bad("entry missing tgrad"))?;
    let (tgrad_part, obj_part) = rest
        .split_once(" objective ")
        .ok_or_else(|| bad("entry missing objective"))?;
    let freqs_hz = parse_nums(freq_part)?;
    let powers_w = parse_nums(power_part)?;
    let tgrad_c = match tgrad_part.trim() {
        "none" => None,
        v => Some(v.parse::<f64>().map_err(|_| bad("bad tgrad"))?),
    };
    let objective = obj_part
        .trim()
        .parse::<f64>()
        .map_err(|_| bad("bad objective"))?;
    Ok((
        row,
        col,
        Some(FrequencyAssignment {
            freqs_hz,
            powers_w,
            tgrad_c,
            objective,
        }),
    ))
}

/// Reads a table written by [`write_table`] — or, transparently, the table
/// part of a v2 file written by [`write_table_v2`] (the extra artifact
/// data is parsed, validated and dropped).
///
/// # Errors
///
/// Returns [`ProTempError::TableFormat`] on malformed input.
pub fn read_table<R: BufRead>(mut r: R) -> Result<FrequencyTable> {
    let mut text = String::new();
    r.read_to_string(&mut text)
        .map_err(|e| bad(format!("read failed: {e}")))?;
    let header = text.lines().next().unwrap_or("").trim();
    match header {
        "protemp-table v1" => read_table_v1_text(&text),
        "protemp-table v2" => Ok(read_table_v2_text(&text)?.table),
        other => Err(bad(format!("unknown header `{other}`"))),
    }
}

fn read_table_v1_text(text: &str) -> Result<FrequencyTable> {
    let mut mode = None;
    let mut tstarts: Option<Vec<f64>> = None;
    let mut ftargets: Option<Vec<f64>> = None;
    let mut entries: Vec<(usize, usize, Option<FrequencyAssignment>)> = Vec::new();

    for line in text.lines().skip(1) {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("mode ") {
            mode = Some(parse_mode(rest)?);
        } else if let Some(rest) = line.strip_prefix("tstarts ") {
            tstarts = Some(parse_nums(rest)?);
        } else if let Some(rest) = line.strip_prefix("ftargets ") {
            ftargets = Some(parse_nums(rest)?);
        } else if let Some(rest) = line.strip_prefix("entry ") {
            entries.push(parse_entry(rest)?);
        } else {
            return Err(bad(format!("unknown line `{line}`")));
        }
    }

    let mode = mode.ok_or_else(|| bad("missing mode"))?;
    let tstarts = tstarts.ok_or_else(|| bad("missing tstarts"))?;
    let ftargets = ftargets.ok_or_else(|| bad("missing ftargets"))?;
    check_grid_axis("tstarts", &tstarts)?;
    check_grid_axis("ftargets", &ftargets)?;
    let grid = assemble_grid(entries, tstarts.len(), ftargets.len())?;
    Ok(FrequencyTable::new(tstarts, ftargets, grid, mode))
}

fn parse_mode(rest: &str) -> Result<FreqMode> {
    match rest.trim() {
        "uniform" => Ok(FreqMode::Uniform),
        "variable" => Ok(FreqMode::Variable),
        other => Err(bad(format!("unknown mode `{other}`"))),
    }
}

/// Rejects grid axes [`FrequencyTable::new`] would panic on — untrusted
/// files must fail with [`ProTempError::TableFormat`], never an assert.
fn check_grid_axis(what: &str, axis: &[f64]) -> Result<()> {
    if !axis.iter().all(|v| v.is_finite()) {
        return Err(bad(format!("{what} contains a non-finite value")));
    }
    if !axis.windows(2).all(|w| w[0] < w[1]) {
        return Err(bad(format!("{what} must be strictly ascending")));
    }
    Ok(())
}

/// Places parsed `entry` lines into a row-major grid, rejecting
/// out-of-range cells, a wrong entry count and duplicate cells
/// (bitset-tracked) — the shared tail of both the v1 and v2 readers.
///
/// The grid is allocated only once the entry count matches `rows × cols`:
/// a file that declares huge axes but holds few entries is rejected
/// without allocating the cells its axes describe.
fn assemble_grid(
    entries: Vec<(usize, usize, Option<FrequencyAssignment>)>,
    rows: usize,
    cols: usize,
) -> Result<Vec<Option<FrequencyAssignment>>> {
    for &(r, c, _) in &entries {
        cell_index(r, c, rows, cols, "entry")?;
    }
    if rows.checked_mul(cols) != Some(entries.len()) {
        return Err(bad(format!(
            "expected {} entries, found {}",
            rows as u128 * cols as u128,
            entries.len()
        )));
    }
    let mut grid: Vec<Option<FrequencyAssignment>> = vec![None; entries.len()];
    let mut seen = SeenCells::new(grid.len());
    for (r, c, a) in entries {
        let idx = r * cols + c;
        if !seen.insert(idx) {
            return Err(bad(format!("duplicate entry ({r},{c})")));
        }
        grid[idx] = a;
    }
    Ok(grid)
}

/// Splits checksum-framed text into `(content, stored_checksum)` and
/// verifies the checksum over the content bytes.
fn verify_checksum(text: &str) -> Result<&str> {
    let pos = text
        .rfind("checksum ")
        .ok_or_else(|| bad("missing checksum line"))?;
    if pos != 0 && !text[..pos].ends_with('\n') {
        return Err(bad("checksum marker not at line start"));
    }
    let stored = text[pos..]
        .trim_start_matches("checksum ")
        .trim()
        .to_string();
    let content = &text[..pos];
    let sum = u64::from_str_radix(&stored, 16).map_err(|_| bad("bad checksum value"))?;
    let actual = fnv1a(content.as_bytes());
    if sum != actual {
        return Err(bad(format!(
            "checksum mismatch: file says {stored}, content hashes to {actual:016x}"
        )));
    }
    Ok(content)
}

/// Writes a [`BuildArtifact`] (minus its certificates, which go to a
/// sibling file via [`write_certificates`]) in the `protemp-table v2`
/// format with a trailing checksum line.
///
/// # Errors
///
/// Returns [`ProTempError::TableFormat`] on I/O failure.
pub fn write_table_v2<W: Write>(artifact: &BuildArtifact, mut w: W) -> Result<()> {
    let table = &artifact.table;
    if artifact.cells.len() != table.len() {
        return Err(bad(format!(
            "artifact cell records must cover the grid: {} records for {} cells",
            artifact.cells.len(),
            table.len()
        )));
    }
    let mut buf = String::new();
    buf.push_str("protemp-table v2\n");
    buf.push_str(&format!("fingerprint {:016x}\n", artifact.fingerprint));
    buf.push_str(&format!("warmstart {}\n", u8::from(artifact.warm_start)));
    push_table_body(table, &mut buf);
    let cols = table.ftargets_hz().len();
    for r in 0..table.tstarts_c().len() {
        for c in 0..cols {
            push_entry_line(table, r, c, &mut buf);
            let rec = &artifact.cells[r * cols + c];
            if let Some(x) = &rec.x {
                buf.push_str(&format!("x {r} {c} {}\n", format_nums(x)));
            }
            buf.push_str(&format!(
                "stats {r} {c} {} {} {} {} {} {}\n",
                rec.status.tag(),
                rec.newton_steps,
                u8::from(rec.phase1),
                u8::from(rec.warm),
                rec.rows_pruned,
                u8::from(rec.polish)
            ));
        }
    }
    let sum = fnv1a(buf.as_bytes());
    buf.push_str(&format!("checksum {sum:016x}\n"));
    w.write_all(buf.as_bytes())
        .map_err(|e| bad(format!("write failed: {e}")))
}

/// Reads a v2 file written by [`write_table_v2`]. The returned artifact
/// has an empty certificate list — certificates live in the sibling file
/// read by [`read_certificates`].
///
/// # Errors
///
/// Returns [`ProTempError::TableFormat`] on malformed input, a checksum
/// mismatch, duplicate or out-of-range cells, or records inconsistent
/// with their entries (an `x` line on an infeasible cell, a feasible cell
/// without one).
pub fn read_table_v2<R: BufRead>(mut r: R) -> Result<BuildArtifact> {
    let mut text = String::new();
    r.read_to_string(&mut text)
        .map_err(|e| bad(format!("read failed: {e}")))?;
    read_table_v2_text(&text)
}

fn read_table_v2_text(text: &str) -> Result<BuildArtifact> {
    let content = verify_checksum(text)?;
    let mut lines = content.lines();
    let header = lines.next().ok_or_else(|| bad("empty input"))?;
    if header.trim() != "protemp-table v2" {
        return Err(bad(format!("unknown header `{header}`")));
    }

    let mut fingerprint = None;
    let mut warm_start = None;
    let mut mode = None;
    let mut tstarts: Option<Vec<f64>> = None;
    let mut ftargets: Option<Vec<f64>> = None;
    let mut entries: Vec<(usize, usize, Option<FrequencyAssignment>)> = Vec::new();
    let mut xs: Vec<(usize, usize, Vec<f64>)> = Vec::new();
    #[allow(clippy::type_complexity)]
    let mut stats: Vec<(usize, usize, CellStatus, u64, bool, bool, u64, bool)> = Vec::new();

    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("fingerprint ") {
            fingerprint =
                Some(u64::from_str_radix(rest.trim(), 16).map_err(|_| bad("bad fingerprint"))?);
        } else if let Some(rest) = line.strip_prefix("warmstart ") {
            warm_start = Some(match rest.trim() {
                "0" => false,
                "1" => true,
                other => return Err(bad(format!("bad warmstart flag `{other}`"))),
            });
        } else if let Some(rest) = line.strip_prefix("mode ") {
            mode = Some(parse_mode(rest)?);
        } else if let Some(rest) = line.strip_prefix("tstarts ") {
            tstarts = Some(parse_nums(rest)?);
        } else if let Some(rest) = line.strip_prefix("ftargets ") {
            ftargets = Some(parse_nums(rest)?);
        } else if let Some(rest) = line.strip_prefix("entry ") {
            entries.push(parse_entry(rest)?);
        } else if let Some(rest) = line.strip_prefix("x ") {
            let mut parts = rest.splitn(3, ' ');
            let r: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("bad x row"))?;
            let c: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("bad x col"))?;
            let v = parse_nums(parts.next().unwrap_or(""))?;
            xs.push((r, c, v));
        } else if let Some(rest) = line.strip_prefix("stats ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            // 6 fields: pre-reduction v2 files (no rows_pruned/polish —
            // they load with zeros). 8 fields: current layout.
            if parts.len() != 6 && parts.len() != 8 {
                return Err(bad(format!("malformed stats line `{line}`")));
            }
            let r: usize = parts[0].parse().map_err(|_| bad("bad stats row"))?;
            let c: usize = parts[1].parse().map_err(|_| bad("bad stats col"))?;
            let status = CellStatus::from_tag(parts[2])
                .ok_or_else(|| bad(format!("unknown cell status `{}`", parts[2])))?;
            let newton: u64 = parts[3].parse().map_err(|_| bad("bad stats newton"))?;
            let flag = |s: &str| match s {
                "0" => Ok(false),
                "1" => Ok(true),
                other => Err(bad(format!("bad stats flag `{other}`"))),
            };
            let (rows_pruned, polish) = if parts.len() == 8 {
                (
                    parts[6]
                        .parse::<u64>()
                        .map_err(|_| bad("bad stats rows_pruned"))?,
                    flag(parts[7])?,
                )
            } else {
                (0, false)
            };
            stats.push((
                r,
                c,
                status,
                newton,
                flag(parts[4])?,
                flag(parts[5])?,
                rows_pruned,
                polish,
            ));
        } else {
            return Err(bad(format!("unknown line `{line}`")));
        }
    }

    let fingerprint = fingerprint.ok_or_else(|| bad("missing fingerprint"))?;
    let warm_start = warm_start.ok_or_else(|| bad("missing warmstart"))?;
    let mode = mode.ok_or_else(|| bad("missing mode"))?;
    let tstarts = tstarts.ok_or_else(|| bad("missing tstarts"))?;
    let ftargets = ftargets.ok_or_else(|| bad("missing ftargets"))?;
    check_grid_axis("tstarts", &tstarts)?;
    check_grid_axis("ftargets", &ftargets)?;
    let rows = tstarts.len();
    let cols = ftargets.len();
    let grid = assemble_grid(entries, rows, cols)?;
    let total = grid.len();

    let mut cells: Vec<Option<CellRecord>> = vec![None; total];
    let mut seen_stats = SeenCells::new(total);
    for (r, c, status, newton_steps, phase1, warm, rows_pruned, polish) in stats {
        let idx = cell_index(r, c, rows, cols, "stats")?;
        if !seen_stats.insert(idx) {
            return Err(bad(format!("duplicate stats ({r},{c})")));
        }
        if (status == CellStatus::Feasible) != grid[idx].is_some() {
            return Err(bad(format!(
                "stats ({r},{c}) status `{}` contradicts its entry",
                status.tag()
            )));
        }
        cells[idx] = Some(CellRecord {
            status,
            newton_steps,
            phase1,
            warm,
            rows_pruned,
            polish,
            x: None,
        });
    }
    if seen_stats.count != total {
        return Err(bad(format!(
            "expected {total} stats lines, found {}",
            seen_stats.count
        )));
    }

    let mut seen_x = SeenCells::new(total);
    for (r, c, v) in xs {
        let idx = cell_index(r, c, rows, cols, "x")?;
        if !seen_x.insert(idx) {
            return Err(bad(format!("duplicate x ({r},{c})")));
        }
        if grid[idx].is_none() {
            return Err(bad(format!("x line on infeasible cell ({r},{c})")));
        }
        if !v.iter().all(|t| t.is_finite()) {
            return Err(bad(format!("non-finite x on cell ({r},{c})")));
        }
        cells[idx]
            .as_mut()
            .expect("stats validated complete above")
            .x = Some(v);
    }
    for (idx, cell) in grid.iter().enumerate() {
        if cell.is_some() && !seen_x.contains(idx) {
            return Err(bad(format!(
                "feasible cell ({},{}) missing its x line",
                idx / cols,
                idx % cols
            )));
        }
    }

    Ok(BuildArtifact {
        table: FrequencyTable::new(tstarts, ftargets, grid, mode),
        cells: cells.into_iter().map(|c| c.expect("validated")).collect(),
        certificates: Vec::new(),
        fingerprint,
        warm_start,
    })
}

/// Writes the certificate side-file (`protemp-certs v1`): the build
/// fingerprint, one `cert <tstart> <ftarget>` … `endcert` block per
/// certificate, and a trailing checksum line.
///
/// # Errors
///
/// Returns [`ProTempError::TableFormat`] on I/O failure.
pub fn write_certificates<W: Write>(
    fingerprint: u64,
    certs: &[StoredCertificate],
    mut w: W,
) -> Result<()> {
    let mut buf = String::new();
    buf.push_str("protemp-certs v1\n");
    buf.push_str(&format!("fingerprint {fingerprint:016x}\n"));
    for sc in certs {
        buf.push_str(&format!("cert {:e} {:e}\n", sc.tstart_c, sc.ftarget_hz));
        let mut body = Vec::new();
        sc.certificate
            .write_text(&mut body)
            .map_err(|e| bad(format!("certificate serialization failed: {e}")))?;
        buf.push_str(std::str::from_utf8(&body).expect("certificate text is ASCII"));
        buf.push_str("endcert\n");
    }
    let sum = fnv1a(buf.as_bytes());
    buf.push_str(&format!("checksum {sum:016x}\n"));
    w.write_all(buf.as_bytes())
        .map_err(|e| bad(format!("write failed: {e}")))
}

/// Reads a certificate side-file written by [`write_certificates`],
/// returning the recorded fingerprint and the certificates in file order.
/// Each certificate is structurally validated on parse
/// ([`Certificate::read_text`]); semantic re-verification against live
/// problem data is the caller's job
/// ([`BuildArtifact::verify_certificates`]).
///
/// # Errors
///
/// Returns [`ProTempError::TableFormat`] on malformed input, a checksum
/// mismatch, or a structurally invalid certificate.
pub fn read_certificates<R: BufRead>(mut r: R) -> Result<(u64, Vec<StoredCertificate>)> {
    let mut text = String::new();
    r.read_to_string(&mut text)
        .map_err(|e| bad(format!("read failed: {e}")))?;
    let content = verify_checksum(&text)?;
    let mut lines = content.lines();
    let header = lines.next().ok_or_else(|| bad("empty input"))?;
    if header.trim() != "protemp-certs v1" {
        return Err(bad(format!("unknown header `{header}`")));
    }

    let mut fingerprint = None;
    let mut certs = Vec::new();
    let mut current: Option<(f64, f64, String)> = None;
    for line in lines {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("fingerprint ") {
            if current.is_some() {
                return Err(bad("fingerprint inside a cert block"));
            }
            fingerprint =
                Some(u64::from_str_radix(rest.trim(), 16).map_err(|_| bad("bad fingerprint"))?);
        } else if let Some(rest) = trimmed.strip_prefix("cert ") {
            if current.is_some() {
                return Err(bad("nested cert block"));
            }
            let mut parts = rest.split_whitespace();
            let t: f64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("bad cert tstart"))?;
            let f: f64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("bad cert ftarget"))?;
            if parts.next().is_some() {
                return Err(bad("trailing tokens on cert line"));
            }
            current = Some((t, f, String::new()));
        } else if trimmed == "endcert" {
            let (t, f, body) = current.take().ok_or_else(|| bad("endcert without cert"))?;
            let certificate = Certificate::read_text(&body)
                .map_err(|e| bad(format!("certificate rejected on load: {e}")))?;
            certs.push(StoredCertificate {
                tstart_c: t,
                ftarget_hz: f,
                certificate,
            });
        } else if let Some((_, _, body)) = &mut current {
            body.push_str(trimmed);
            body.push('\n');
        } else {
            return Err(bad(format!("unknown line `{trimmed}`")));
        }
    }
    if current.is_some() {
        return Err(bad("unterminated cert block"));
    }
    let fingerprint = fingerprint.ok_or_else(|| bad("missing fingerprint"))?;
    Ok((fingerprint, certs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> FrequencyTable {
        let asg = FrequencyAssignment {
            freqs_hz: vec![0.25e9, 0.75e9],
            powers_w: vec![0.25, 2.25],
            tgrad_c: Some(3.25),
            objective: 5.75,
        };
        FrequencyTable::new(
            vec![60.0, 90.0],
            vec![0.3e9, 0.6e9],
            vec![Some(asg.clone()), Some(asg), None, None],
            FreqMode::Variable,
        )
    }

    fn sample_artifact() -> BuildArtifact {
        let table = sample_table();
        let cells = (0..table.len())
            .map(|i| {
                let feasible = table.entry(i / 2, i % 2).is_some();
                CellRecord {
                    status: if feasible {
                        CellStatus::Feasible
                    } else if i == 2 {
                        CellStatus::Infeasible
                    } else {
                        CellStatus::Pruned
                    },
                    newton_steps: 10 + i as u64,
                    phase1: !feasible,
                    warm: i == 1,
                    rows_pruned: 7 * i as u64,
                    polish: i == 2,
                    x: feasible.then(|| vec![0.125 * i as f64, -3.0, 1e-15]),
                }
            })
            .collect();
        BuildArtifact {
            table,
            cells,
            certificates: vec![StoredCertificate {
                tstart_c: 90.0,
                ftarget_hz: 0.6e9,
                certificate: Certificate {
                    lambda_lin: vec![0.5, 0.5],
                    lambda_quad: vec![],
                    anchor: vec![0.25, 0.75],
                },
            }],
            fingerprint: 0xdead_beef_0bad_f00d,
            warm_start: true,
        }
    }

    #[test]
    fn round_trip_exact() {
        let table = sample_table();
        let mut buf = Vec::new();
        write_table(&table, &mut buf).unwrap();
        let parsed = read_table(buf.as_slice()).unwrap();
        assert_eq!(parsed, table);
    }

    #[test]
    fn v2_round_trip_exact() {
        let artifact = sample_artifact();
        let mut buf = Vec::new();
        write_table_v2(&artifact, &mut buf).unwrap();
        let parsed = read_table_v2(buf.as_slice()).unwrap();
        assert_eq!(parsed.table, artifact.table);
        assert_eq!(parsed.cells, artifact.cells);
        assert_eq!(parsed.fingerprint, artifact.fingerprint);
        assert_eq!(parsed.warm_start, artifact.warm_start);
        assert!(
            parsed.certificates.is_empty(),
            "certs live in the side file"
        );
    }

    #[test]
    fn read_table_accepts_v2_transparently() {
        let artifact = sample_artifact();
        let mut buf = Vec::new();
        write_table_v2(&artifact, &mut buf).unwrap();
        let table = read_table(buf.as_slice()).unwrap();
        assert_eq!(table, artifact.table);
    }

    #[test]
    fn certs_round_trip_exact() {
        let artifact = sample_artifact();
        let mut buf = Vec::new();
        write_certificates(artifact.fingerprint, &artifact.certificates, &mut buf).unwrap();
        let (fp, certs) = read_certificates(buf.as_slice()).unwrap();
        assert_eq!(fp, artifact.fingerprint);
        assert_eq!(certs, artifact.certificates);
    }

    #[test]
    fn rejects_bad_header() {
        let e = read_table("garbage\n".as_bytes());
        assert!(matches!(e, Err(ProTempError::TableFormat { .. })));
    }

    #[test]
    fn rejects_missing_entries() {
        let table = sample_table();
        let mut buf = Vec::new();
        write_table(&table, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Drop the last entry line.
        let truncated: Vec<&str> = text.lines().collect();
        let shorter = truncated[..truncated.len() - 1].join("\n");
        assert!(read_table(shorter.as_bytes()).is_err());
    }

    #[test]
    fn rejects_duplicate_entries() {
        // One duplicated + one missing entry: the count matches, so the old
        // `seen == expected` check passed and the last write silently won.
        let table = sample_table();
        let mut buf = Vec::new();
        write_table(&table, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut forged: Vec<&str> = lines[..lines.len() - 1].to_vec();
        forged.push(lines[lines.len() - 2]); // duplicate the second-to-last
        let forged = forged.join("\n");
        let e = read_table(forged.as_bytes()).unwrap_err();
        assert!(
            e.to_string().contains("duplicate"),
            "want duplicate rejection, got: {e}"
        );
    }

    #[test]
    fn rejects_out_of_range_entry() {
        let text =
            "protemp-table v1\nmode variable\ntstarts 60\nftargets 1e8\nentry 5 0 infeasible\n";
        assert!(read_table(text.as_bytes()).is_err());
    }

    #[test]
    fn malformed_grid_axes_are_errors_not_panics() {
        // Unsorted, duplicated or non-finite axes previously reached the
        // `FrequencyTable::new` asserts and panicked on untrusted input.
        for (tag, text) in [
            (
                "descending",
                "protemp-table v1\nmode variable\ntstarts 60 50\nftargets 1e8\n\
                 entry 0 0 infeasible\nentry 1 0 infeasible\n",
            ),
            (
                "duplicate",
                "protemp-table v1\nmode variable\ntstarts 60 60\nftargets 1e8\n\
                 entry 0 0 infeasible\nentry 1 0 infeasible\n",
            ),
            (
                "non-finite",
                "protemp-table v1\nmode variable\ntstarts 60\nftargets nan\n\
                 entry 0 0 infeasible\n",
            ),
        ] {
            let e = read_table(text.as_bytes());
            assert!(
                matches!(e, Err(ProTempError::TableFormat { .. })),
                "{tag} axis must be a format error"
            );
        }
    }

    #[test]
    fn huge_row_index_is_an_error_not_an_overflow() {
        // Before the fix, `r * cols` was computed before the range check and
        // overflowed usize in debug builds.
        let text = format!(
            "protemp-table v1\nmode variable\ntstarts 60\nftargets 1e8 2e8\nentry {} 1 infeasible\n",
            usize::MAX / 2 + 1,
        );
        let e = read_table(text.as_bytes()).unwrap_err();
        assert!(
            e.to_string().contains("out of range"),
            "want range rejection, got: {e}"
        );
    }

    #[test]
    fn v2_stats_without_reduction_fields_still_load() {
        // Pre-reduction v2 files carry 6-field stats lines; they must keep
        // loading, with `rows_pruned`/`polish` defaulting to zero.
        let artifact = sample_artifact();
        let mut buf = Vec::new();
        write_table_v2(&artifact, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let content: String = text
            .lines()
            .filter(|l| !l.starts_with("checksum "))
            .map(|l| {
                if l.starts_with("stats ") {
                    let kept: Vec<&str> = l.split_whitespace().take(7).collect();
                    format!("{}\n", kept.join(" "))
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let reframed = format!("{content}checksum {:016x}\n", fnv1a(content.as_bytes()));
        let parsed = read_table_v2(reframed.as_bytes()).unwrap();
        assert_eq!(parsed.table, artifact.table);
        for (old, new) in artifact.cells.iter().zip(&parsed.cells) {
            assert_eq!(new.status, old.status);
            assert_eq!(new.newton_steps, old.newton_steps);
            assert_eq!(new.phase1, old.phase1);
            assert_eq!(new.warm, old.warm);
            assert_eq!(new.x, old.x);
            assert_eq!(new.rows_pruned, 0, "missing field defaults to zero");
            assert!(!new.polish, "missing field defaults to false");
        }
    }

    #[test]
    fn v2_rejects_corrupt_checksum() {
        let artifact = sample_artifact();
        let mut buf = Vec::new();
        write_table_v2(&artifact, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // Flip one digit inside an entry line (keeps the file well-formed).
        let pos = text.find("5.75").expect("objective literal present");
        text.replace_range(pos..pos + 4, "5.76");
        let e = read_table_v2(text.as_bytes()).unwrap_err();
        assert!(
            e.to_string().contains("checksum"),
            "want checksum rejection, got: {e}"
        );
    }

    #[test]
    fn v2_rejects_missing_x_and_inconsistent_stats() {
        let artifact = sample_artifact();
        let mut buf = Vec::new();
        write_table_v2(&artifact, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Remove an x line: feasible cell without its point must reject.
        let without_x: String = text
            .lines()
            .filter(|l| !l.starts_with("x 0 0 "))
            .map(|l| format!("{l}\n"))
            .collect();
        // Re-frame the checksum so only the structural error can fire.
        let content: String = without_x
            .lines()
            .filter(|l| !l.starts_with("checksum "))
            .map(|l| format!("{l}\n"))
            .collect();
        let reframed = format!("{content}checksum {:016x}\n", fnv1a(content.as_bytes()));
        let e = read_table_v2(reframed.as_bytes()).unwrap_err();
        assert!(
            e.to_string().contains("missing its x"),
            "want missing-x rejection, got: {e}"
        );
    }

    #[test]
    fn certs_file_rejects_tampering() {
        let artifact = sample_artifact();
        let mut buf = Vec::new();
        write_certificates(artifact.fingerprint, &artifact.certificates, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Corrupt a multiplier to a negative value and re-frame the
        // checksum: the structural validation must still reject it.
        let content: String = text
            .lines()
            .filter(|l| !l.starts_with("checksum "))
            .map(|l| {
                if let Some(rest) = l.strip_prefix("lambda_lin ") {
                    format!("lambda_lin -{rest}\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let reframed = format!("{content}checksum {:016x}\n", fnv1a(content.as_bytes()));
        let e = read_certificates(reframed.as_bytes()).unwrap_err();
        assert!(
            e.to_string().contains("rejected on load"),
            "want load-time rejection, got: {e}"
        );
        // And plain truncation fails the checksum.
        let truncated = &text[..text.len() / 2];
        assert!(read_certificates(truncated.as_bytes()).is_err());
    }
}
