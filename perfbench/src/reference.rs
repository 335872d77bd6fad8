//! The stored full-model feasibility map of `design_sweep`'s grid, and
//! the soundness check against it.
//!
//! The map was generated once with the full thermal model (modal
//! truncation off) by `perfbench --write-reference`. A built table must
//! never mark feasible a cell the full model proves infeasible; cells it
//! loses the other way are counted, not fatal.

use protemp::FrequencyTable;

/// The stored map, compiled into the benchmark.
pub const STORED: &str = include_str!("../data/design_sweep_reference.txt");

/// Per-cell feasibility over one grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityMap {
    /// Row temperatures, °C.
    pub tstarts_c: Vec<f64>,
    /// Column targets, Hz.
    pub ftargets_hz: Vec<f64>,
    /// Row-major feasibility.
    pub feasible: Vec<bool>,
}

impl FeasibilityMap {
    /// The feasibility map of a built table.
    pub fn of_table(table: &FrequencyTable) -> Self {
        let (rows, cols) = (table.tstarts_c().len(), table.ftargets_hz().len());
        FeasibilityMap {
            tstarts_c: table.tstarts_c().to_vec(),
            ftargets_hz: table.ftargets_hz().to_vec(),
            feasible: (0..rows * cols)
                .map(|i| table.entry(i / cols, i % cols).is_some())
                .collect(),
        }
    }

    /// Parses the text form written by [`FeasibilityMap::render`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let mut axis = |key: &str| -> Result<Vec<f64>, String> {
            let line = lines.next().ok_or(format!("missing `{key}` line"))?;
            let rest = line
                .strip_prefix(key)
                .ok_or(format!("expected `{key}`, found `{line}`"))?;
            rest.split_whitespace()
                .map(|v| v.parse::<f64>().map_err(|e| format!("{key} `{v}`: {e}")))
                .collect()
        };
        let tstarts_c = axis("tstarts_c")?;
        let ftargets_hz = axis("ftargets_hz")?;
        let mut feasible = Vec::with_capacity(tstarts_c.len() * ftargets_hz.len());
        for (r, t) in tstarts_c.iter().enumerate() {
            let line = lines.next().ok_or(format!("missing row {r}"))?;
            let (label, cells) = line
                .split_once(char::is_whitespace)
                .ok_or(format!("row {r}: `{line}`"))?;
            if label.parse::<f64>() != Ok(*t) {
                return Err(format!("row {r} is labelled `{label}`, expected {t}"));
            }
            let cells = cells.trim();
            if cells.len() != ftargets_hz.len() {
                return Err(format!("row {r} has {} cells", cells.len()));
            }
            for ch in cells.chars() {
                feasible.push(match ch {
                    'F' => true,
                    '.' => false,
                    other => return Err(format!("row {r}: unknown cell `{other}`")),
                });
            }
        }
        if let Some(extra) = lines.next() {
            return Err(format!("unexpected line `{extra}`"));
        }
        Ok(FeasibilityMap {
            tstarts_c,
            ftargets_hz,
            feasible,
        })
    }

    /// The text form: a comment header, the two axes, then one line per
    /// row with `F` (feasible) or `.` (infeasible) per column.
    pub fn render(&self, header: &str) -> String {
        let axis = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        let mut out = String::new();
        for line in header.lines() {
            out += &format!("# {line}\n");
        }
        out += &format!("tstarts_c {}\n", axis(&self.tstarts_c));
        out += &format!("ftargets_hz {}\n", axis(&self.ftargets_hz));
        let cols = self.ftargets_hz.len();
        for (r, t) in self.tstarts_c.iter().enumerate() {
            let cells: String = self.feasible[r * cols..(r + 1) * cols]
                .iter()
                .map(|&f| if f { 'F' } else { '.' })
                .collect();
            out += &format!("{t} {cells}\n");
        }
        out
    }
}

/// Checks `built` against the full-model `reference`.
///
/// # Errors
///
/// Fails when the grids differ or when a cell the reference proves
/// infeasible is feasible in `built` (an unsound table).
///
/// Returns the number of cells the reference proves feasible that
/// `built` marks infeasible (`cells_lost`).
pub fn check(reference: &FeasibilityMap, built: &FeasibilityMap) -> Result<usize, String> {
    if reference.tstarts_c != built.tstarts_c || reference.ftargets_hz != built.ftargets_hz {
        return Err("the built grid differs from the reference grid".to_string());
    }
    let cols = reference.ftargets_hz.len();
    let mut lost = 0;
    for (i, (&want, &got)) in reference.feasible.iter().zip(&built.feasible).enumerate() {
        match (want, got) {
            (false, true) => {
                return Err(format!(
                    "unsound: cell ({} C, {} Hz) is feasible but the full-model reference \
                     proves it infeasible",
                    reference.tstarts_c[i / cols],
                    reference.ftargets_hz[i % cols]
                ))
            }
            (true, false) => lost += 1,
            _ => {}
        }
    }
    Ok(lost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored() -> FeasibilityMap {
        FeasibilityMap::parse(STORED).expect("the stored reference parses")
    }

    #[test]
    fn stored_reference_covers_the_paper_grid() {
        let map = stored();
        assert_eq!(map.tstarts_c, crate::design_sweep::grid_tstarts());
        assert_eq!(map.ftargets_hz, crate::design_sweep::grid_ftargets());
        assert!(map.feasible.contains(&true) && map.feasible.contains(&false));
    }

    #[test]
    fn render_parse_round_trip() {
        let map = stored();
        assert_eq!(FeasibilityMap::parse(&map.render("x\ny")), Ok(map));
    }

    #[test]
    fn identical_table_passes_with_nothing_lost() {
        let map = stored();
        assert_eq!(check(&map, &map), Ok(0));
    }

    #[test]
    fn one_reference_infeasible_cell_flipped_to_feasible_fails() {
        let reference = stored();
        let mut built = reference.clone();
        let i = built
            .feasible
            .iter()
            .position(|&f| !f)
            .expect("an infeasible cell");
        built.feasible[i] = true;
        let err = check(&reference, &built).expect_err("an unsound table must fail");
        assert!(err.starts_with("unsound"), "{err}");
    }

    #[test]
    fn reference_feasible_cell_marked_infeasible_counts_as_lost() {
        let reference = stored();
        let mut built = reference.clone();
        let i = built
            .feasible
            .iter()
            .position(|&f| f)
            .expect("a feasible cell");
        built.feasible[i] = false;
        assert_eq!(check(&reference, &built), Ok(1));
    }

    #[test]
    fn grid_mismatch_fails() {
        let reference = stored();
        let mut built = reference.clone();
        built.tstarts_c[0] += 1.0;
        assert!(check(&reference, &built).is_err());
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(FeasibilityMap::parse("").is_err());
        assert!(FeasibilityMap::parse("tstarts_c 30\nftargets_hz 1\n30 X\n").is_err());
        assert!(FeasibilityMap::parse("tstarts_c 30\nftargets_hz 1 2\n30 F\n").is_err());
        assert!(FeasibilityMap::parse("tstarts_c 30\nftargets_hz 1\n40 F\n").is_err());
    }
}
