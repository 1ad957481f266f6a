//! Output checks: a stored reference for the default seed, and invariants
//! that hold on every seed.
//!
//! A pass's outputs are flattened into [`Cell`]s — one number per table
//! cell, keyed by section, row and column. LP-derived cells must match the
//! reference to 1e-6 relative; cells measured by simulator replay to 1e-2,
//! which absorbs the small shifts a different optimal vertex of a
//! degenerate LP causes in the replayed schedule.

use std::collections::BTreeMap;

/// Where a cell's number comes from, which fixes its tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An LP optimum or a quantity computed from one.
    Lp,
    /// A simulator replay (jittered or not) of a schedule.
    Replay,
}

impl Kind {
    fn tolerance(self) -> f64 {
        match self {
            Kind::Lp => 1e-6,
            Kind::Replay => 1e-2,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Kind::Lp => "lp",
            Kind::Replay => "replay",
        }
    }

    fn parse(tag: &str) -> Option<Kind> {
        match tag {
            "lp" => Some(Kind::Lp),
            "replay" => Some(Kind::Replay),
            _ => None,
        }
    }
}

/// One checked number of a pass's output.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `section/row/column`.
    pub key: String,
    /// Tolerance class.
    pub kind: Kind,
    /// The value, full precision unless it was read off a rendered table.
    pub value: f64,
    /// Absolute slack for values read off a rendered table (one unit in the
    /// last printed digit); 0 for full-precision values.
    pub slack: f64,
}

impl Cell {
    /// A full-precision cell.
    pub fn new(key: String, kind: Kind, value: f64) -> Cell {
        Cell {
            key,
            kind,
            value,
            slack: 0.0,
        }
    }
}

/// Renders cells as a reference document: one `kind<TAB>key<TAB>value<TAB>slack`
/// line per cell.
pub fn render_reference(cells: &[Cell]) -> String {
    let mut out = String::new();
    for c in cells {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            c.kind.tag(),
            c.key,
            c.value,
            c.slack
        ));
    }
    out
}

fn parse_reference(doc: &str) -> Result<BTreeMap<String, Cell>, String> {
    let mut cells = BTreeMap::new();
    for (i, line) in doc.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let parsed = match fields.as_slice() {
            [kind, key, value, slack] => Kind::parse(kind).and_then(|kind| {
                Some(Cell {
                    key: key.to_string(),
                    kind,
                    value: value.parse().ok()?,
                    slack: slack.parse().ok()?,
                })
            }),
            _ => None,
        };
        let cell =
            parsed.ok_or_else(|| format!("reference line {}: malformed: {line:?}", i + 1))?;
        cells.insert(cell.key.clone(), cell);
    }
    Ok(cells)
}

fn agrees(reference: &Cell, value: f64) -> bool {
    if reference.value.is_nan() || value.is_nan() {
        return reference.value.is_nan() && value.is_nan();
    }
    let scale = reference.value.abs().max(value.abs());
    (reference.value - value).abs() <= reference.kind.tolerance() * scale + reference.slack
}

/// Compares `cells` with the reference document; returns one message per
/// disagreeing, unexpected or missing cell.
pub fn against_reference(reference: &str, cells: &[Cell]) -> Vec<String> {
    let expected = match parse_reference(reference) {
        Ok(map) => map,
        Err(e) => return vec![e],
    };
    let mut failures = Vec::new();
    let mut seen = 0;
    for c in cells {
        match expected.get(&c.key) {
            Some(r) => {
                seen += 1;
                if !agrees(r, c.value) {
                    failures.push(format!(
                        "{}: {} differs from reference {} ({} tolerance)",
                        c.key,
                        c.value,
                        r.value,
                        r.kind.tag()
                    ));
                }
            }
            None => failures.push(format!("{}: not in the reference", c.key)),
        }
    }
    if seen < expected.len() {
        let produced: std::collections::BTreeSet<&str> =
            cells.iter().map(|c| c.key.as_str()).collect();
        for key in expected.keys().filter(|k| !produced.contains(k.as_str())) {
            failures.push(format!("{key}: in the reference but not produced"));
        }
    }
    failures
}

/// Invariants every seed satisfies:
///
/// * Theorem 1 — `INC_C` is the optimal FIFO order for `z < 1`, so every
///   `INC_W lp/INC_C lp` ratio is at least 1;
/// * more installment rounds never hurt the LP planner — the
///   `MR_LP mk/OPT_FIFO mk` ratios are at most 1 and non-increasing in R.
///
/// Each invariant must find its cells; finding none is itself a failure.
pub fn invariants(cells: &[Cell]) -> Vec<String> {
    const EPS: f64 = 1e-9;
    let mut failures = Vec::new();

    let inc_w: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.key.ends_with("/INC_W lp/INC_C lp"))
        .collect();
    if inc_w.is_empty() {
        failures.push("invariant INC_W lp >= INC_C lp: no INC_W lp cells".to_string());
    }
    for c in inc_w
        .iter()
        .filter(|c| c.value.is_nan() || c.value < 1.0 - EPS)
    {
        failures.push(format!(
            "{}: INC_W lp below INC_C lp ({} < 1)",
            c.key, c.value
        ));
    }

    let mr_lp: Vec<&Cell> = cells
        .iter()
        .filter(|c| {
            c.key.starts_with("multiround_sweep/R=") && c.key.ends_with("/MR_LP mk/OPT_FIFO mk")
        })
        .collect();
    if mr_lp.is_empty() {
        failures.push("invariant MR_LP <= 1: no MR_LP cells".to_string());
    }
    for c in mr_lp
        .iter()
        .filter(|c| c.value.is_nan() || c.value > 1.0 + EPS)
    {
        failures.push(format!("{}: MR_LP ratio {} above 1", c.key, c.value));
    }
    // Cells are emitted in increasing R.
    for pair in mr_lp.windows(2) {
        if pair[1].value > pair[0].value + EPS {
            failures.push(format!(
                "{}: MR_LP ratio {} rose from {} at {}",
                pair[1].key, pair[1].value, pair[0].value, pair[0].key
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<Cell> {
        vec![
            Cell::new("fig11/n=40/INC_W lp/INC_C lp".into(), Kind::Lp, 1.25),
            Cell::new("fig11/n=40/INC_W real/INC_C lp".into(), Kind::Replay, 1.5),
            Cell::new(
                "multiround_sweep/R=1/MR_LP mk/OPT_FIFO mk".into(),
                Kind::Lp,
                1.0,
            ),
            Cell::new(
                "multiround_sweep/R=2/MR_LP mk/OPT_FIFO mk".into(),
                Kind::Lp,
                0.8,
            ),
        ]
    }

    #[test]
    fn reference_round_trips() {
        let doc = render_reference(&cells());
        assert!(against_reference(&doc, &cells()).is_empty());
    }

    #[test]
    fn tolerances_follow_the_kind() {
        let doc = render_reference(&cells());
        let mut moved = cells();
        moved[1].value *= 1.005; // replay: inside 1e-2
        assert!(against_reference(&doc, &moved).is_empty());
        moved[0].value *= 1.0 + 1e-5; // LP: outside 1e-6
        assert_eq!(against_reference(&doc, &moved).len(), 1);
    }

    #[test]
    fn missing_and_extra_cells_fail() {
        let doc = render_reference(&cells()[..3]);
        assert_eq!(against_reference(&doc, &cells()).len(), 1);
        let doc = render_reference(&cells());
        assert_eq!(against_reference(&doc, &cells()[..3]).len(), 1);
    }

    #[test]
    fn invariants_catch_violations() {
        assert!(invariants(&cells()).is_empty());
        let mut bad = cells();
        bad[0].value = 0.99;
        bad[3].value = 1.01;
        // INC_W below 1; MR_LP above 1 and rising.
        assert_eq!(invariants(&bad).len(), 3);
        assert_eq!(invariants(&[]).len(), 2);
    }
}
