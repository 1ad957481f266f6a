//! Source-level convention linter for the workspace (`cargo xtask lint`).
//!
//! Clippy enforces language-level hygiene (see `[workspace.lints]` and
//! `clippy.toml`); this linter enforces the *project* conventions that no
//! general-purpose tool knows about:
//!
//! * **`ir-lowering`** — every LP row in the workspace must lower through
//!   the `dls_lp::ScheduleModel` IR, so the pre-solve static analyzer
//!   (`dls_lp::analyze`) sees it. Hand-rolled `Problem::add_constraint`
//!   calls are forbidden outside the IR's own home
//!   (`crates/lp/src/model.rs`, `crates/lp/src/problem.rs`).
//! * **`lp-core-discipline`** — in the LP core (`crates/lp/src/*`,
//!   `crates/core/src/lp_model.rs`), float-literal `==`/`!=` comparisons
//!   are forbidden: compare against the `Scalar` tolerance helpers.
//!   Clippy's `float_cmp` lets comparisons with zero through, so this
//!   rule covers them. (`partial_cmp` needs no rule here: `clippy.toml`
//!   disallows it in every target.)
//! * **`baseline-keys`** — every `benches/*_baseline.json` must parse as
//!   a JSON object (read with [`parse_json`]), and every measurement key
//!   in it must be referenced by its sibling smoke gate
//!   (`benches/<name>.rs`), so a renamed gate cannot silently stop
//!   comparing against its checked-in baseline.
//! * **`obs-metric-names`** — every metric-name literal passed to the
//!   `dls-obs` recording macros (`counter!`, `gauge!`, `histogram!`,
//!   `trace_span!`, `trace_event!`) must be listed, backticked,
//!   in the README's observability inventory, so the documented name
//!   table cannot silently go stale when instrumentation is added or
//!   renamed.
//!
//! Beyond linting, [`check_chrome_trace`] validates a Chrome Trace Event
//! Format export produced by `DLS_TRACE=chrome:<path>` (the
//! `cargo xtask check-trace` task CI runs on a quick `repro_all` trace).
//!
//! The scanner is textual, not syntactic: it strips `//` comments and
//! string literals, and stops at a file's trailing `#[cfg(test)]` module
//! (tests may build raw problems and compare exact floats). A line may
//! carry an explicit waiver: `// xtask: allow(<rule>)`.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the violation is in (relative to the linted root when
    /// produced by [`lint_workspace`]).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (`ir-lowering`, `lp-core-discipline`,
    /// `baseline-keys`, `obs-metric-names`).
    pub rule: &'static str,
    /// What went wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A source line with comments and string-literal *contents* blanked out
/// (delimiters kept), so pattern checks cannot fire inside either.
#[derive(Debug)]
struct CodeLine {
    number: usize,
    code: String,
    waivers: Vec<String>,
}

/// Strips a Rust source file down to the lines the rules look at: comment
/// text and string contents blanked, everything from a trailing
/// `#[cfg(test)]` module onward dropped. Good enough for a convention
/// linter; not a parser.
fn code_lines(content: &str) -> Vec<CodeLine> {
    let mut out = Vec::new();
    let mut in_block_comment = 0usize;
    for (idx, raw) in content.lines().enumerate() {
        let trimmed = raw.trim();
        if in_block_comment == 0 && trimmed == "#[cfg(test)]" {
            // Convention: the trailing unit-test module. Tests are exempt.
            break;
        }
        let mut code = String::with_capacity(raw.len());
        let mut waivers = Vec::new();
        let mut chars = raw.chars().peekable();
        let mut in_string = false;
        while let Some(ch) = chars.next() {
            if in_block_comment > 0 {
                if ch == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    in_block_comment -= 1;
                } else if ch == '/' && chars.peek() == Some(&'*') {
                    chars.next();
                    in_block_comment += 1;
                }
                continue;
            }
            if in_string {
                match ch {
                    '\\' => {
                        chars.next();
                    }
                    '"' => {
                        in_string = false;
                        code.push('"');
                    }
                    _ => code.push('_'),
                }
                continue;
            }
            match ch {
                '/' if chars.peek() == Some(&'/') => {
                    // Line comment: scan the rest for an explicit waiver.
                    let rest: String = chars.collect();
                    if let Some(pos) = rest.find("xtask: allow(") {
                        let tail = &rest[pos + "xtask: allow(".len()..];
                        if let Some(end) = tail.find(')') {
                            waivers.push(tail[..end].trim().to_string());
                        }
                    }
                    break;
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    in_block_comment += 1;
                }
                '"' => {
                    in_string = true;
                    code.push('"');
                }
                '\'' => {
                    // Char literal or lifetime; skip a possible escaped or
                    // plain char so '"' cannot open a string.
                    code.push('\'');
                    match chars.peek() {
                        Some('\\') => {
                            chars.next();
                            chars.next();
                        }
                        Some(&c) if c != ' ' => {
                            // Lifetimes ('a) have no closing quote; chars do.
                            let mut look = chars.clone();
                            look.next();
                            if look.peek() == Some(&'\'') {
                                chars.next();
                            }
                        }
                        _ => {}
                    }
                }
                _ => code.push(ch),
            }
        }
        out.push(CodeLine {
            number: idx + 1,
            code,
            waivers,
        });
    }
    out
}

fn waived(line: &CodeLine, rule: &str) -> bool {
    line.waivers.iter().any(|w| w == rule)
}

/// `true` when `s[at..]` (after optional spaces and a sign) starts with a
/// float literal such as `1.0`, `.5` or `3.`.
fn float_literal_follows(s: &str, at: usize) -> bool {
    let rest = s[at..].trim_start().trim_start_matches('-').trim_start();
    let mut chars = rest.chars().peekable();
    let mut digits = 0;
    while let Some(c) = chars.peek() {
        if c.is_ascii_digit() || *c == '_' {
            digits += 1;
            chars.next();
        } else {
            break;
        }
    }
    match chars.peek() {
        Some('.') => {
            chars.next();
            // `1.0`, `.5`, `3.` but not `1..4` (range) or `x.method()`.
            digits > 0 || chars.peek().is_some_and(|c| c.is_ascii_digit())
        }
        _ => false,
    }
}

/// `true` when the text *ending* at `at` ends with a float literal.
fn float_literal_precedes(s: &str, at: usize) -> bool {
    let rest = s[..at].trim_end();
    let bytes = rest.as_bytes();
    let mut i = bytes.len();
    while i > 0 && (bytes[i - 1].is_ascii_digit() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    if i == 0 || bytes[i - 1] != b'.' {
        return false;
    }
    let before_dot = i - 1;
    let mut j = before_dot;
    let mut digits_before = 0;
    while j > 0 && (bytes[j - 1].is_ascii_digit() || bytes[j - 1] == b'_') {
        j -= 1;
        digits_before += 1;
    }
    // `1.0 ==`, `3. ==`; reject `..3 ==` (range) and `x.0 ==` (tuple field).
    digits_before > 0
        && (j == 0
            || !bytes[j - 1].is_ascii_alphanumeric()
                && bytes[j - 1] != b'.'
                && bytes[j - 1] != b'_')
}

/// Rule `ir-lowering`: no hand-rolled `Problem` rows outside the IR's home.
pub fn check_ir_lowering(path: &Path, content: &str) -> Vec<Violation> {
    const RULE: &str = "ir-lowering";
    let mut out = Vec::new();
    for line in code_lines(content) {
        if waived(&line, RULE) {
            continue;
        }
        if line.code.contains(".add_constraint(") {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line.number,
                rule: RULE,
                message: "hand-rolled Problem row construction — declare the row through \
                          dls_lp::ScheduleModel (deadline/one_port/capacity/precedence/\
                          constraint) so the static analyzer sees it"
                    .to_string(),
            });
        }
    }
    out
}

/// Rule `lp-core-discipline`: no float-literal equality in the LP core.
pub fn check_lp_core_discipline(path: &Path, content: &str) -> Vec<Violation> {
    const RULE: &str = "lp-core-discipline";
    let mut out = Vec::new();
    for line in code_lines(content) {
        if waived(&line, RULE) {
            continue;
        }
        for op in ["==", "!="] {
            let mut from = 0;
            while let Some(pos) = line.code[from..].find(op) {
                let at = from + pos;
                // Skip `===`-like runs and `<=`, `>=`, `!=` handled by op.
                let before_ok =
                    at == 0 || !matches!(line.code.as_bytes()[at - 1], b'=' | b'<' | b'>' | b'!');
                let after = at + op.len();
                let after_ok = after >= line.code.len() || line.code.as_bytes()[after] != b'=';
                if before_ok
                    && after_ok
                    && (float_literal_follows(&line.code, after)
                        || float_literal_precedes(&line.code, at))
                {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: line.number,
                        rule: RULE,
                        message: format!(
                            "float-literal `{op}` comparison in the LP core — compare \
                             against the engine tolerances (Scalar::is_zero, \
                             coefficient_scale-relative bounds) instead"
                        ),
                    });
                }
                from = after;
            }
        }
    }
    out
}

/// Keys every smoke gate reads generically, exempt from the reference
/// check (see `dls_bench::smoke::run_gate`).
const GENERIC_BASELINE_KEYS: &[&str] = &["comment", "calibration_ns", "max_regression"];

/// Rule `baseline-keys`: every measurement key of `*_baseline.json` must
/// appear (quoted) in the sibling `<name>.rs` smoke gate.
pub fn check_baseline_keys(
    json_path: &Path,
    json: &str,
    bench_path: &Path,
    bench_src: Option<&str>,
) -> Vec<Violation> {
    const RULE: &str = "baseline-keys";
    let violation = |line, message| Violation {
        file: json_path.to_path_buf(),
        line,
        rule: RULE,
        message,
    };
    let Some(bench_src) = bench_src else {
        return vec![violation(
            1,
            format!(
                "baseline has no sibling smoke gate {} — every baseline must be \
                 compared by a bench",
                bench_path.display()
            ),
        )];
    };
    let fields = match parse_json(json) {
        Ok(Json::Obj(fields)) => fields,
        other => {
            let why = other.err().unwrap_or_else(|| "not an object".into());
            return vec![violation(
                1,
                format!("baseline does not parse as a JSON object ({why}) — no gate can read it"),
            )];
        }
    };
    let mut out = Vec::new();
    // Keys come back in document order: find each after the previous one
    // (a quoted name followed by `:` is a key, never a string value).
    let mut from = 0;
    for (key, _) in fields {
        let quoted = format!("\"{key}\"");
        if let Some(at) = json[from..]
            .match_indices(&quoted)
            .map(|(i, _)| from + i + quoted.len())
            .find(|&end| json[end..].trim_start().starts_with(':'))
        {
            from = at;
        }
        if GENERIC_BASELINE_KEYS.contains(&key.as_str()) || bench_src.contains(&quoted) {
            continue;
        }
        out.push(violation(
            1 + json[..from].matches('\n').count(),
            format!(
                "baseline key \"{key}\" is never referenced by {} — the smoke gate \
                 no longer compares it (rename the key or wire it back in)",
                bench_path.display()
            ),
        ));
    }
    out
}

/// The `dls-obs` recording macros whose first argument names a metric.
const OBS_MACROS: &[&str] = &[
    "counter!(",
    "gauge!(",
    "histogram!(",
    "trace_span!(",
    "trace_event!(",
];

/// `true` when the match at `pos` starts the macro name rather than being
/// the suffix of a longer identifier (`counter!(` inside `my_counter!(`).
fn macro_name_starts_at(s: &str, pos: usize) -> bool {
    pos == 0 || !matches!(s.as_bytes()[pos - 1], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
}

/// The metric-name literals handed to a `dls-obs` macro in the non-test
/// code of `content`, as `(line, waived, name)`: the 1-based line holding
/// the literal, and whether a line of the call waives `obs-metric-names`.
/// The literal follows the macro's `(` on the same line or, where rustfmt
/// breaks the call after the `(`, opens the next line. Dynamically-built
/// names (`dls_obs::histogram(&format!(..))`) are out of scope — the
/// README documents those as patterns.
fn obs_metric_literals(content: &str) -> Vec<(usize, bool, String)> {
    const RULE: &str = "obs-metric-names";
    // The blanked code hides a literal's contents; recover them from the
    // raw line (metric names contain no escapes).
    fn literal(raw: &str) -> Option<String> {
        let rest = raw.trim_start().strip_prefix('"')?;
        Some(rest[..rest.find('"')?].to_string())
    }
    let raw_lines: Vec<&str> = content.lines().collect();
    let raw = |number: usize| raw_lines.get(number - 1).copied().unwrap_or_default();
    let lines = code_lines(content);
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for mac in OBS_MACROS {
            // Gate on the comment/string-blanked code: a definition-side
            // `histogram!($name)` or a name quoted in a comment never fires.
            let (mut same_line, mut next_line) = (false, false);
            for (abs, _) in line.code.match_indices(mac) {
                if macro_name_starts_at(&line.code, abs) {
                    let rest = line.code[abs + mac.len()..].trim_start();
                    same_line |= rest.starts_with('"');
                    next_line |= rest.is_empty();
                }
            }
            if same_line {
                let raw = raw(line.number);
                for (abs, _) in raw.match_indices(mac) {
                    if macro_name_starts_at(raw, abs) {
                        if let Some(name) = literal(&raw[abs + mac.len()..]) {
                            out.push((line.number, waived(line, RULE), name));
                        }
                    }
                }
            }
            let next = lines.get(i + 1).filter(|next| {
                next_line
                    && next.number == line.number + 1
                    && next.code.trim_start().starts_with('"')
            });
            if let Some(next) = next {
                if let Some(name) = literal(raw(next.number)) {
                    let waived = waived(line, RULE) || waived(next, RULE);
                    out.push((next.number, waived, name));
                }
            }
        }
    }
    out
}

/// Rule `obs-metric-names`: every metric-name literal handed to a
/// `dls-obs` macro must appear backticked in the README (the
/// observability inventory), mirroring how `baseline-keys` pins the smoke
/// baselines. `check_obs_inventory` is the reverse direction.
pub fn check_obs_metric_names(path: &Path, content: &str, readme: &str) -> Vec<Violation> {
    obs_metric_literals(content)
        .into_iter()
        .filter(|(_, waived, name)| !waived && !readme.contains(&format!("`{name}`")))
        .map(|(line, _, name)| Violation {
            file: path.to_path_buf(),
            line,
            rule: "obs-metric-names",
            message: format!(
                "metric name \"{name}\" is missing from the README \
                 observability inventory — add `{name}` to the metric \
                 table in README.md (or rename the metric)"
            ),
        })
        .collect()
}

/// Rule `obs-metric-names`, reverse direction: every row of the README's
/// metric inventory (the table whose header's first cell is `metric`)
/// must name a metric in `emitted`, the literals the source hands to the
/// `dls-obs` macros, so a row cannot outlive the code that recorded it.
/// Each stale row is reported at its README line.
fn check_obs_inventory(path: &Path, readme: &str, emitted: &BTreeSet<String>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_table = false;
    for (idx, line) in readme.lines().enumerate() {
        let Some(row) = line.trim().strip_prefix('|') else {
            in_table = false;
            continue;
        };
        let first = row.split('|').next().unwrap_or_default().trim();
        if !in_table {
            in_table = first == "metric";
            continue;
        }
        let Some(name) = first.strip_prefix('`').and_then(|n| n.strip_suffix('`')) else {
            continue; // the header separator
        };
        if !emitted.contains(name) {
            out.push(Violation {
                file: path.to_path_buf(),
                line: idx + 1,
                rule: "obs-metric-names",
                message: format!(
                    "inventory row `{name}` names a metric no source literal emits — \
                     delete the row (or restore the metric)"
                ),
            });
        }
    }
    out
}

/// Files rule `ir-lowering` must never flag: the IR and raw-builder home.
fn ir_exempt(rel: &Path) -> bool {
    rel == Path::new("crates/lp/src/model.rs") || rel == Path::new("crates/lp/src/problem.rs")
}

/// `true` when `rel` is in the LP core (rule `lp-core-discipline` scope).
fn lp_core_scoped(rel: &Path) -> bool {
    rel.starts_with("crates/lp/src") || rel == Path::new("crates/core/src/lp_model.rs")
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`). Returns every violation, in path order.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();

    // Rules 1 + 2 over crates/*/src (vendor/ and benches/tests/ are out of
    // scope by construction; xtask itself is skipped — its fixtures and
    // pattern strings would self-flag).
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let src = entry.path().join("src");
            if entry.path().file_name().is_some_and(|n| n == "xtask") {
                continue;
            }
            if src.is_dir() {
                walk_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    let readme = fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let mut emitted = BTreeSet::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        let content = fs::read_to_string(path)?;
        if !ir_exempt(&rel) {
            for mut v in check_ir_lowering(&rel, &content) {
                v.file = rel.clone();
                violations.push(v);
            }
        }
        if lp_core_scoped(&rel) {
            violations.extend(check_lp_core_discipline(&rel, &content));
        }
        violations.extend(check_obs_metric_names(&rel, &content, &readme));
        emitted.extend(obs_metric_literals(&content).into_iter().map(|(_, _, n)| n));
    }
    violations.extend(check_obs_inventory(
        Path::new("README.md"),
        &readme,
        &emitted,
    ));

    // Rule 3 over crates/bench/benches/*_baseline.json.
    let benches = root.join("crates/bench/benches");
    if benches.is_dir() {
        let mut jsons: Vec<PathBuf> = fs::read_dir(&benches)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with("_baseline.json"))
            })
            .collect();
        jsons.sort();
        for json_path in jsons {
            let stem = json_path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix("_baseline.json"))
                .unwrap_or_default()
                .to_string();
            let bench_path = benches.join(format!("{stem}.rs"));
            let json = fs::read_to_string(&json_path)?;
            let bench_src = fs::read_to_string(&bench_path).ok();
            let rel_json = json_path
                .strip_prefix(root)
                .unwrap_or(&json_path)
                .to_path_buf();
            let rel_bench = bench_path
                .strip_prefix(root)
                .unwrap_or(&bench_path)
                .to_path_buf();
            violations.extend(check_baseline_keys(
                &rel_json,
                &json,
                &rel_bench,
                bench_src.as_deref(),
            ));
        }
    }

    Ok(violations)
}

// ---------------------------------------------------------------------------
// Chrome-trace checker (`cargo xtask check-trace <file>`)
// ---------------------------------------------------------------------------

/// Minimal JSON value for the trace checker (std-only by design, like the
/// rest of this crate).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document. Strict on structure (a torn or truncated
/// export fails), tolerant on nothing: trailing garbage is an error too.
pub fn parse_json(doc: &str) -> Result<Json, String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn err<T>(&self, what: &str) -> Result<T, String> {
            Err(format!("{what} at byte {}", self.i))
        }
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.b.get(self.i) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.lit(b"true", Json::Bool(true)),
                Some(b'f') => self.lit(b"false", Json::Bool(false)),
                Some(b'n') => self.lit(b"null", Json::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => self.err("expected a JSON value"),
            }
        }
        fn lit(&mut self, lit: &[u8], v: Json) -> Result<Json, String> {
            if self.b[self.i..].starts_with(lit) {
                self.i += lit.len();
                Ok(v)
            } else {
                self.err("malformed literal")
            }
        }
        fn number(&mut self) -> Result<Json, String> {
            let start = self.i;
            while self.i < self.b.len()
                && matches!(
                    self.b[self.i],
                    b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                )
            {
                self.i += 1;
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("malformed number at byte {start}"))
        }
        fn string(&mut self) -> Result<String, String> {
            self.i += 1; // opening quote
            let mut out = String::new();
            while let Some(&c) = self.b.get(self.i) {
                match c {
                    b'"' => {
                        self.i += 1;
                        return Ok(out);
                    }
                    b'\\' => {
                        let esc = self.b.get(self.i + 1).copied();
                        self.i += 2;
                        match esc {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .b
                                    .get(self.i..self.i + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                                self.i += 4;
                                match hex.and_then(char::from_u32) {
                                    Some(ch) => out.push(ch),
                                    None => return self.err("bad \\u escape"),
                                }
                            }
                            _ => return self.err("bad escape"),
                        }
                    }
                    _ => {
                        // Copy the full UTF-8 scalar: decode just this
                        // sequence (validating the whole tail per char
                        // would make parsing quadratic).
                        let len = match c {
                            0x00..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let seq = self
                            .b
                            .get(self.i..self.i + len)
                            .and_then(|s| std::str::from_utf8(s).ok())
                            .ok_or_else(|| format!("invalid UTF-8 at byte {}", self.i))?;
                        out.push_str(seq);
                        self.i += len;
                    }
                }
            }
            self.err("unterminated string")
        }
        fn object(&mut self) -> Result<Json, String> {
            self.i += 1;
            let mut fields = Vec::new();
            self.ws();
            if self.b.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.ws();
                if self.b.get(self.i) != Some(&b'"') {
                    return self.err("expected object key");
                }
                let key = self.string()?;
                self.ws();
                if self.b.get(self.i) != Some(&b':') {
                    return self.err("expected ':'");
                }
                self.i += 1;
                let v = self.value()?;
                fields.push((key, v));
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return self.err("expected ',' or '}'"),
                }
            }
        }
        fn array(&mut self) -> Result<Json, String> {
            self.i += 1;
            let mut items = Vec::new();
            self.ws();
            if self.b.get(self.i) == Some(&b']') {
                self.i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return self.err("expected ',' or ']'"),
                }
            }
        }
    }
    let mut p = P {
        b: doc.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

/// Summary of a validated chrome trace (printed by `xtask check-trace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `ph:"X"` complete (span) events.
    pub complete: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
    /// `par_map.item.seconds` spans.
    pub par_map_items: usize,
    /// `core.solve_scenario.seconds` spans nesting (transitively, via the
    /// `args.span_id`/`args.parent_id` chain) under a `par_map` item.
    pub nested_solves: usize,
}

/// Validates a `DLS_TRACE=chrome:<path>` export:
///
/// * the document parses and has a `traceEvents` array;
/// * every event carries `name`, `ph` and `pid`; complete events (`"X"`)
///   also `tid`, `ts` and `dur`, and span/instant events an
///   `args.span_id`;
/// * at least one `par_map.item.seconds` span exists and at least one
///   `core.solve_scenario.seconds` span nests under one through the
///   parent chain — the causal-propagation contract of the solve path.
pub fn check_chrome_trace(doc: &str) -> Result<TraceCheck, String> {
    let root = parse_json(doc)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("document has no traceEvents array")?;

    let mut check = TraceCheck {
        events: events.len(),
        complete: 0,
        instants: 0,
        par_map_items: 0,
        nested_solves: 0,
    };
    // span id -> (name, parent id) over all span events.
    let mut span_index: std::collections::HashMap<u64, (String, Option<u64>)> =
        std::collections::HashMap::new();
    let mut solve_parents: Vec<Option<u64>> = Vec::new();
    for (n, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {n} has no name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {n} ({name}) has no ph"))?;
        if ev.get("pid").and_then(Json::as_f64).is_none() {
            return Err(format!("event {n} ({name}) has no pid"));
        }
        match ph {
            "M" => continue, // process_name metadata
            "i" => check.instants += 1,
            "X" => {
                check.complete += 1;
                for field in ["tid", "ts", "dur"] {
                    if ev.get(field).and_then(Json::as_f64).is_none() {
                        return Err(format!("complete event {n} ({name}) has no {field}"));
                    }
                }
            }
            other => return Err(format!("event {n} ({name}) has unexpected ph {other:?}")),
        }
        let args = ev
            .get("args")
            .ok_or_else(|| format!("event {n} ({name}) has no args"))?;
        let span_id = args
            .get("span_id")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {n} ({name}) has no args.span_id"))?
            as u64;
        let parent_id = args
            .get("parent_id")
            .and_then(Json::as_f64)
            .map(|p| p as u64);
        if ph == "X" {
            span_index.insert(span_id, (name.to_string(), parent_id));
            if name == "par_map.item.seconds" {
                check.par_map_items += 1;
            }
            if name == "core.solve_scenario.seconds" {
                solve_parents.push(parent_id);
            }
        }
    }

    if check.par_map_items == 0 {
        return Err("no par_map.item.seconds spans in the trace".into());
    }
    if solve_parents.is_empty() {
        return Err("no core.solve_scenario.seconds spans in the trace".into());
    }
    for mut parent in solve_parents {
        // Walk up the parent chain (depth-capped against cycles).
        for _ in 0..64 {
            let Some(pid) = parent else { break };
            let Some((pname, pparent)) = span_index.get(&pid) else {
                break;
            };
            if pname == "par_map.item.seconds" {
                check.nested_solves += 1;
                break;
            }
            parent = *pparent;
        }
    }
    if check.nested_solves == 0 {
        return Err(
            "no core.solve_scenario.seconds span nests under a par_map.item.seconds span \
             (TraceContext propagation broken?)"
                .into(),
        );
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ir_lowering_flags_raw_rows_but_not_comments_tests_or_waivers() {
        let src = "\
use dls_lp::Problem;

fn build() {
    let mut p = Problem::maximize();
    // p.add_constraint(\"in a comment\", [], Relation::Le, 1.0);
    p.add_constraint(\"bad\", [], Relation::Le, 1.0);
    p.add_constraint(\"waived\", [], Relation::Le, 1.0); // xtask: allow(ir-lowering)
}

#[cfg(test)]
mod tests {
    fn in_tests() {
        p.add_constraint(\"fine here\", [], Relation::Le, 1.0);
    }
}
";
        let v = check_ir_lowering(Path::new("crates/foo/src/bad.rs"), src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);
        assert_eq!(v[0].rule, "ir-lowering");
        assert!(v[0].to_string().starts_with("crates/foo/src/bad.rs:6:"));
    }

    #[test]
    fn lp_core_discipline_flags_float_eq_and_leaves_partial_cmp_to_clippy() {
        let src = "\
fn hot(xs: &mut [f64], t: f64) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs.sort_by(|a, b| a.partial_cmp(b).expect(\"no NaN\"));
    xs.sort_by(|a, b| a.total_cmp(b));
    if t == 1.0 {}
    if 0.5 != t {}
    if t <= 1.0 {}
    let r = 1..2;
    let _ = r;
}
";
        let v = check_lp_core_discipline(Path::new("crates/lp/src/simplex.rs"), src);
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![5, 6], "{v:?}");
    }

    #[test]
    fn lp_core_scope_covers_every_solver_module() {
        // The discipline rule guards the whole LP core by directory, so a
        // new solver module (the sparse LU factorization most recently) is
        // in scope the day it lands — pin the boundary on both sides.
        for covered in [
            "crates/lp/src/simplex.rs",
            "crates/lp/src/revised.rs",
            "crates/lp/src/sparse_lu.rs",
            "crates/lp/src/scalar.rs",
            "crates/core/src/lp_model.rs",
        ] {
            assert!(
                lp_core_scoped(Path::new(covered)),
                "{covered} must be in scope"
            );
        }
        for outside in [
            "crates/lp/tests/property.rs",
            "crates/core/src/lib.rs",
            "crates/bench/benches/solver.rs",
        ] {
            assert!(
                !lp_core_scoped(Path::new(outside)),
                "{outside} must be out of scope"
            );
        }
        // And the rule itself fires on the exact-float tests the
        // factorization must not use.
        let src = "fn pick(a: f64) -> bool { a == 0.0 }\n";
        let v = check_lp_core_discipline(Path::new("crates/lp/src/sparse_lu.rs"), src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn float_literal_detection_avoids_ranges_and_ints() {
        // Integer equality and range syntax are not float comparisons.
        let src = "\
fn f(n: usize) {
    if n == 1 {}
    for _ in 0..2 {}
    if n == 10 {}
}
";
        let v = check_lp_core_discipline(Path::new("crates/lp/src/x.rs"), src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn string_contents_never_match_patterns() {
        let src = "fn f() { let s = \"call .add_constraint( and x == 1.0 here\"; }\n";
        assert!(check_ir_lowering(Path::new("a.rs"), src).is_empty());
        assert!(check_lp_core_discipline(Path::new("a.rs"), src).is_empty());
    }

    #[test]
    fn baseline_keys_flags_unreferenced_measurements_only() {
        let json = "{\n  \"comment\": \"mentions \\\"ghost_ns\\\" harmlessly\",\n  \
                    \"p128_ns\": 10,\n  \"ghost_ns\": 20,\n  \"calibration_ns\": 5,\n  \
                    \"max_regression\": 2.0\n}\n";
        let bench = "run_gate(path, \"p128_ns\", \"label\", f);\n";
        let v = check_baseline_keys(
            Path::new("crates/bench/benches/foo_baseline.json"),
            json,
            Path::new("crates/bench/benches/foo.rs"),
            Some(bench),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("ghost_ns"));
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn obs_metric_names_flags_undocumented_literals_only() {
        let src = "\
fn f() {
    dls_obs::counter!(\"documented.count\").incr();
    dls_obs::histogram!(\"ghost.seconds\").record(1.5);
    // a comment quoting counter!(\"commented.out\") never fires
    dls_obs::trace_span!(\"waived.seconds\"); // xtask: allow(obs-metric-names)
    dls_obs::histogram(&name); // dynamic name: out of scope
}

#[cfg(test)]
mod tests {
    fn g() {
        dls_obs::counter!(\"test.only\").incr();
    }
}
";
        let readme = "| `documented.count` | solves |\n";
        let v = check_obs_metric_names(Path::new("crates/foo/src/lib.rs"), src, readme);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "obs-metric-names");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("ghost.seconds"));
    }

    #[test]
    fn obs_metric_names_skips_macro_definitions() {
        // The macro definition forwards `$name` — no literal, no firing.
        let src = "macro_rules! trace_span {\n    ($name:expr) => {{ let h = $crate::histogram!($name); }};\n}\n";
        assert!(check_obs_metric_names(Path::new("crates/obs/src/macros.rs"), src, "").is_empty());
    }

    #[test]
    fn obs_metric_names_covers_trace_macros_at_identifier_boundaries() {
        let src = "\
fn f() {
    let _s = dls_obs::trace_span!(\"ghost.span.seconds\", \"k\" => 1);
    dls_obs::trace_event!(\"ghost.instant\");
    dls_obs::trace_span!(\"known.span.seconds\");
    my_counter!(\"not.an.obs.metric\");
}
";
        let readme = "| `known.span.seconds` | phase |\n";
        let v = check_obs_metric_names(Path::new("crates/foo/src/lib.rs"), src, readme);
        // One violation per undocumented name; `counter!(` inside
        // `my_counter!(` is not an obs macro and must not fire.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].message.contains("ghost.span.seconds"));
        assert!(v[1].message.contains("ghost.instant"));
    }

    #[test]
    fn obs_metric_names_reads_literals_on_the_line_after_the_call() {
        // rustfmt breaks a call with attributes after its `(`.
        let src = "\
fn f() {
    let _s = dls_obs::trace_span!(
        \"wrapped.seconds\",
        \"rows\" => 3,
    );
}
";
        let v = check_obs_metric_names(Path::new("crates/foo/src/lib.rs"), src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("wrapped.seconds"));
        let readme = "| `wrapped.seconds` | phase |\n";
        assert!(check_obs_metric_names(Path::new("crates/foo/src/lib.rs"), src, readme).is_empty());
    }

    #[test]
    fn json_parser_round_trips_and_rejects_torn_documents() {
        let doc = r#"{"a":[1,-2.5e3,"x\"A"],"b":{"c":null,"d":true},"e":false}"#;
        let v = parse_json(doc).expect("parses");
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert!(parse_json("{\"a\":1").is_err(), "truncated object");
        assert!(parse_json("{\"a\":1} x").is_err(), "trailing garbage");
        assert!(parse_json("{\"a\":\"tor").is_err(), "torn string");
    }

    fn span_event(name: &str, span_id: u64, parent_id: Option<u64>) -> String {
        let parent = parent_id
            .map(|p| format!(",\"parent_id\":{p}"))
            .unwrap_or_default();
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"dls\",\"ph\":\"X\",\"ts\":1,\"dur\":2,\
             \"pid\":1,\"tid\":0,\"args\":{{\"span_id\":{span_id}{parent}}}}}"
        )
    }

    #[test]
    fn check_trace_accepts_nested_solves_and_reports_counts() {
        let doc = format!(
            "{{\"traceEvents\":[\n\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"trace 1\"}}}},\n{},\n{},\n{}\n],\
             \"displayTimeUnit\":\"ms\"}}",
            span_event("sweep.run.seconds", 1, None),
            span_event("par_map.item.seconds", 2, Some(1)),
            span_event("core.solve_scenario.seconds", 3, Some(2)),
        );
        let check = check_chrome_trace(&doc).expect("valid trace");
        assert_eq!(check.events, 4);
        assert_eq!(check.complete, 3);
        assert_eq!(check.par_map_items, 1);
        assert_eq!(check.nested_solves, 1);
    }

    #[test]
    fn check_trace_rejects_orphan_solves_and_schema_gaps() {
        // Solve span present but not under a par_map item.
        let orphan = format!(
            "{{\"traceEvents\":[\n{},\n{}\n]}}",
            span_event("par_map.item.seconds", 2, None),
            span_event("core.solve_scenario.seconds", 3, None),
        );
        let err = check_chrome_trace(&orphan).unwrap_err();
        assert!(err.contains("nests under"), "{err}");

        // A complete event missing `dur` is a schema error.
        let torn = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\
                     \"pid\":1,\"tid\":0,\"args\":{\"span_id\":1}}]}";
        let err = check_chrome_trace(torn).unwrap_err();
        assert!(err.contains("no dur"), "{err}");
    }

    #[test]
    fn baseline_that_is_not_a_json_object_is_a_violation() {
        for json in ["{\"x_ns\": 1", "[1, 2]"] {
            let v = check_baseline_keys(
                Path::new("crates/bench/benches/foo_baseline.json"),
                json,
                Path::new("crates/bench/benches/foo.rs"),
                Some("run_gate(path, \"x_ns\", \"label\", f);"),
            );
            assert_eq!(v.len(), 1, "{json}: {v:?}");
            assert_eq!(v[0].line, 1);
            assert!(v[0].message.contains("JSON object"), "{}", v[0].message);
        }
    }

    #[test]
    fn baseline_without_gate_is_a_violation() {
        let v = check_baseline_keys(
            Path::new("crates/bench/benches/orphan_baseline.json"),
            "{\"x_ns\": 1}",
            Path::new("crates/bench/benches/orphan.rs"),
            None,
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("no sibling smoke gate"));
    }
}
