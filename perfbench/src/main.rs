//! `perfbench` — the repository benchmark: end-to-end metrics of three
//! workloads and, in a separate traced run, per-layer metrics measured from
//! outside the program. See `perfbench/README.md` for workloads, metrics and
//! the output contract.
//!
//! ```text
//! perfbench --workload <repro_paper|large_lp|repro_paper_traced>
//!           [--seed N] [--seconds S] [--trace 0|1] [--scale paper|quick]
//!           [--reference PATH] [--write-reference PATH]
//! ```
//!
//! The command is an orchestrator: every measurement runs in a fresh child
//! process of this same executable (`--child e2e|layers`), one after the
//! other, so each process is a closed loop, set-up is sampled once per
//! process, and `repro_paper_traced` gets `DLS_TRACE=summary` in a fresh
//! environment. The last line of standard output is the JSON result.

mod check;
mod large_lp;
mod replay;
mod repro;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dls_obs::Snapshot;

/// The workload seed whose outputs the stored reference describes.
const DEFAULT_SEED: u64 = 0;
/// Processes an end-to-end run spawns at least, whatever `--seconds` says.
const MIN_PROCESSES: usize = 3;
/// `large_lp` requests the traced run replays (its times scale to a pass).
const LARGE_LP_REPLAY: usize = 100;

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics (`--trace 1`), in output order.
const PER_LAYER: [(&str, &str); 32] = [
    ("figures.fig10_13_s", "s"),
    ("figures.multiround_s", "s"),
    ("figures.tree_s", "s"),
    ("figures.interleaved_s", "s"),
    ("figures.other_s", "s"),
    ("figures.coverage", "ratio"),
    ("par_map.speedup", "ratio"),
    ("platform.build_s", "s"),
    ("engine.requests", "count"),
    ("engine.skips", "count"),
    ("engine.paper.solve_s", "s"),
    ("engine.multiround.solve_s", "s"),
    ("engine.tree.solve_s", "s"),
    ("engine.interleaved.solve_s", "s"),
    ("lp_model.scenario_build_s", "s"),
    ("lp_model.warm_hit_rate", "ratio"),
    ("lp_model.tableau_retries", "count"),
    ("ir.lower_s", "s"),
    ("lp.solves", "count"),
    ("lp.iterations_per_solve", "count"),
    ("lp.revised_cold_us", "us"),
    ("lp.tableau_cold_us", "us"),
    ("lp.refactor_per_solve", "count"),
    ("lp.ft_updates_per_solve", "count"),
    ("lp.lu_fill_ratio", "ratio"),
    ("rounding_s", "s"),
    ("sim.replay_s", "s"),
    ("obs.trace_events", "count"),
    ("obs.events_dropped", "count"),
    ("obs.overhead", "ratio"),
    ("replay.wall_s", "s"),
    ("pass.wall_s", "s"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReproPaper,
    LargeLp,
    ReproPaperTraced,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "repro_paper" => Some(Workload::ReproPaper),
            "large_lp" => Some(Workload::LargeLp),
            "repro_paper_traced" => Some(Workload::ReproPaperTraced),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ReproPaper => "repro_paper",
            Workload::LargeLp => "large_lp",
            Workload::ReproPaperTraced => "repro_paper_traced",
        }
    }

    fn traced(self) -> bool {
        self == Workload::ReproPaperTraced
    }

    /// Timed passes per end-to-end process. A traced process runs one, so
    /// every traced pass has the same history: the warm-up pass's trace
    /// buffers and nothing more.
    fn passes_per_process(self) -> usize {
        match self {
            Workload::ReproPaper => 4,
            Workload::LargeLp => 2,
            Workload::ReproPaperTraced => 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    E2e,
    Layers,
}

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    reference: Option<String>,
    write_reference: Option<String>,
    role: Option<Role>,
    process: u64,
    passes: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ReproPaper,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
        reference: None,
        write_reference: None,
        role: None,
        process: 0,
        passes: 1,
    };
    let mut workload = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| {
                        bad("expected repro_paper, large_lp or repro_paper_traced")
                    })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                args.quick = match value {
                    "paper" => false,
                    "quick" => true,
                    _ => return Err(bad("expected paper or quick")),
                }
            }
            "--reference" => args.reference = Some(value.to_string()),
            "--write-reference" => args.write_reference = Some(value.to_string()),
            "--child" => {
                args.role = Some(match value {
                    "e2e" => Role::E2e,
                    "layers" => Role::Layers,
                    _ => return Err(bad("expected e2e or layers")),
                })
            }
            "--process" => args.process = value.parse().map_err(|_| bad("expected an integer"))?,
            "--passes" => {
                args.passes = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_reference {
        return write_reference(&args, path);
    }
    match args.role {
        Some(role) => {
            let report = match args.workload {
                Workload::LargeLp => child_large_lp(&args, role, started),
                _ => child_repro(&args, role, started),
            };
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        None => orchestrate(&args),
    }
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

// ---------------------------------------------------------------------------
// Child processes: measurement.
// ---------------------------------------------------------------------------

/// One timed pass: its wall time and the median and 99th-percentile
/// latency of the requests it made.
#[derive(Debug, Clone, Copy)]
struct Pass {
    wall: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl Pass {
    fn new(wall: f64, latencies_ms: &[f64]) -> Pass {
        Pass {
            wall,
            p50_ms: quantile(latencies_ms, 0.5).unwrap_or(0.0),
            p99_ms: quantile(latencies_ms, 0.99).unwrap_or(0.0),
        }
    }
}

/// The smallest value of `f` over `passes` — the pass least disturbed by
/// other load on the machine.
fn best(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Option<f64> {
    passes.iter().map(f).min_by(f64::total_cmp)
}

/// The median of `f` over `passes`. End-to-end times use it: the fastest
/// of a few dozen noisy passes is an extreme value that moves more from
/// run to run than their median.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Option<f64> {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// What one child process measured, passed to the orchestrator as text
/// lines on standard output.
#[derive(Debug, Default)]
struct ChildReport {
    setup_s: Option<f64>,
    passes: Vec<Pass>,
    requests: usize,
    rss_mb: Option<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    values: BTreeMap<String, f64>,
    threads: Option<f64>,
}

impl ChildReport {
    fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        if let Some(v) = self.setup_s {
            line(format!("setup {v}"));
        }
        for p in &self.passes {
            line(format!("pass {} {} {}", p.wall, p.p50_ms, p.p99_ms));
        }
        line(format!("requests {}", self.requests));
        if let Some(v) = self.rss_mb {
            line(format!("rss {v}"));
        }
        if let Some(v) = self.threads {
            line(format!("threads {v}"));
        }
        line(format!("attempted {}", self.attempted));
        line(format!("failed {}", self.failed));
        for f in &self.failures {
            line(format!("fail {}", f.replace('\n', " ")));
        }
        for (k, v) in &self.values {
            line(format!("value {k} {v}"));
        }
        out
    }

    fn parse(text: &str) -> Result<ChildReport, String> {
        let mut r = ChildReport::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("bad child line {line:?}");
            let number = || -> Result<f64, String> { rest.parse().map_err(|_| bad()) };
            match tag {
                "setup" => r.setup_s = Some(number()?),
                "pass" => {
                    let v: Vec<f64> = rest
                        .split(' ')
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad())?;
                    let [wall, p50_ms, p99_ms] = v[..] else {
                        return Err(bad());
                    };
                    r.passes.push(Pass {
                        wall,
                        p50_ms,
                        p99_ms,
                    });
                }
                "requests" => r.requests = number()? as usize,
                "rss" => r.rss_mb = Some(number()?),
                "threads" => r.threads = Some(number()?),
                "attempted" => r.attempted = number()? as u64,
                "failed" => r.failed = number()? as u64,
                "fail" => r.failures.push(rest.to_string()),
                "value" => {
                    let (name, v) = rest.split_once(' ').ok_or_else(bad)?;
                    r.values
                        .insert(name.to_string(), v.parse().map_err(|_| bad())?);
                }
                _ => return Err(format!("unexpected child line {line:?}")),
            }
        }
        if r.setup_s.is_none() || r.passes.is_empty() {
            return Err("child reported no timed pass".into());
        }
        Ok(r)
    }

    fn account(&mut self, attempted: u64, failed: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.failures.extend(failures);
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The reference the default seed's outputs must match (`--reference`
/// overrides); other seeds run the invariant checks only.
fn reference_text(args: &Args) -> Result<Option<String>, String> {
    if let Some(path) = &args.reference {
        return std::fs::read_to_string(path)
            .map(Some)
            .map_err(|e| format!("reading reference {path}: {e}"));
    }
    if args.seed != DEFAULT_SEED {
        return Ok(None);
    }
    Ok(Some(
        if args.quick {
            include_str!("../reference/repro_paper_quick.tsv")
        } else {
            include_str!("../reference/repro_paper.tsv")
        }
        .to_string(),
    ))
}

/// Checks one repro pass: invariants always, the reference when given.
fn check_repro(
    inputs: &repro::Inputs,
    runs: &[repro::SectionRun],
    reference: Option<&str>,
) -> (u64, u64, Vec<String>) {
    let outcome = repro::outcome(inputs, runs);
    let mut failures = outcome.errors;
    let mut mismatches = check::invariants(&outcome.cells);
    if let Some(reference) = reference {
        mismatches.extend(check::against_reference(reference, &outcome.cells));
    }
    let failed = outcome.failed + mismatches.len() as u64;
    failures.extend(mismatches);
    (outcome.attempted, failed, failures)
}

fn write_reference(args: &Args, path: &str) -> ExitCode {
    repro::install_providers();
    let inputs = repro::Inputs::new(args.quick, args.seed);
    let (_, runs) = repro::run_pass(&inputs);
    let outcome = repro::outcome(&inputs, &runs);
    if !outcome.errors.is_empty() || outcome.failed > 0 {
        eprintln!(
            "perfbench: not writing a reference from a failing pass: {:?}",
            outcome.errors
        );
        return ExitCode::FAILURE;
    }
    match std::fs::write(path, check::render_reference(&outcome.cells)) {
        Ok(()) => {
            eprintln!("perfbench: wrote {} cells to {path}", outcome.cells.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: writing {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Counter and histogram reads by `dls_obs::snapshot()` difference.
struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Delta<'_> {
    /// Growth of a counter; `None` when the program has no such counter.
    fn counter(&self, name: &str) -> Option<f64> {
        let after = self.after.counter(name)?;
        Some(after.saturating_sub(self.before.counter(name).unwrap_or(0)) as f64)
    }

    /// A counter that only registers when it first fires: missing reads 0.
    fn event_count(&self, name: &str) -> f64 {
        self.counter(name).unwrap_or(0.0)
    }

    /// Growth of a histogram's `(count, sum)`.
    fn histogram(&self, name: &str) -> Option<(f64, f64)> {
        let after = self.after.histogram(name)?;
        let (c0, s0) = self
            .before
            .histogram(name)
            .map_or((0, 0.0), |h| (h.count, h.sum));
        Some(((after.count - c0) as f64, after.sum - s0))
    }
}

/// Per-pass counts of the program's always-on counters over `passes`
/// passes. A ratio whose base counter is missing is left out (reported
/// absent); a count that never fired reads 0.
fn counter_values(d: &Delta, passes: f64, values: &mut BTreeMap<String, f64>) {
    let mut put = |name: &str, v: Option<f64>| {
        if let Some(v) = v.filter(|v| v.is_finite()) {
            values.insert(name.to_string(), v);
        }
    };
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (_, None) => None,
        (_, Some(d)) if d <= 0.0 => None,
        (n, Some(d)) => Some(n.unwrap_or(0.0) / d),
    };
    let add = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(0.0) + b.unwrap_or(0.0)),
    };

    let revised = d.counter("revised.solve");
    let solves = add(revised, d.counter("tableau.solve"));
    put("lp.solves", solves.map(|s| s / passes));
    let revised_it = d.histogram("revised.iterations");
    let tableau_it = d.histogram("tableau.iterations");
    put(
        "lp.iterations_per_solve",
        ratio(
            add(revised_it.map(|h| h.1), tableau_it.map(|h| h.1)),
            add(revised_it.map(|h| h.0), tableau_it.map(|h| h.0)),
        ),
    );
    let hits = d.counter("basis_cache.hit");
    let misses = d.counter("basis_cache.miss");
    put("lp_model.warm_hit_rate", ratio(hits, add(hits, misses)));
    put(
        "lp_model.tableau_retries",
        Some(d.event_count("lp_model.tableau_retry") / passes),
    );
    put(
        "lp.refactor_per_solve",
        ratio(d.counter("revised.refactorizations"), revised),
    );
    put(
        "lp.ft_updates_per_solve",
        ratio(d.counter("revised.lu.ft_updates"), revised),
    );
    put(
        "lp.lu_fill_ratio",
        d.histogram("revised.lu.fill_ratio")
            .and_then(|(c, s)| ratio(Some(s), Some(c))),
    );
    put(
        "obs.events_dropped",
        Some(d.event_count("trace.events.dropped") / passes),
    );
}

/// Per-pass self times and call costs from a replay, scaled by `scale`
/// replays per pass.
fn replay_values(r: &replay::Replay, scale: f64, values: &mut BTreeMap<String, f64>) {
    let totals = r.rec.totals();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_time) * scale;
    let mean_us = |name: &str| {
        totals
            .get(name)
            .filter(|t| t.count > 0)
            .map(|t| t.total / t.count as f64 * 1e6)
    };
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    put("platform.build_s", self_s("platform.build"));
    put("engine.paper.solve_s", self_s("engine.paper"));
    put("engine.multiround.solve_s", self_s("engine.multiround"));
    put("engine.tree.solve_s", self_s("engine.tree"));
    put("engine.interleaved.solve_s", self_s("engine.interleaved"));
    put(
        "lp_model.scenario_build_s",
        self_s("lp_model.scenario_model"),
    );
    put("ir.lower_s", self_s("ir.lower"));
    put("rounding_s", self_s("rounding.integer_schedule"));
    put("sim.replay_s", self_s("sim.simulate"));
    put("engine.requests", r.requests as f64 * scale);
    put("engine.skips", r.skips as f64 * scale);
    put("replay.wall_s", r.wall * scale);
    if let Some(us) = mean_us("lp.solve_revised_with") {
        put("lp.revised_cold_us", us);
    }
    if let Some(us) = mean_us("lp.solve_with") {
        put("lp.tableau_cold_us", us);
    }
}

/// Sum of the replay's cells (inclusive) for the given cell span names.
fn cell_time(r: &replay::Replay, names: &[&str]) -> f64 {
    let totals = r.rec.totals();
    names
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.total)
        .sum()
}

/// Writes the replay's spans as collapsed stacks next to the executable.
fn write_spans(args: &Args, r: &replay::Replay) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-trace")))
    else {
        return;
    };
    let path = dir.join(format!("{}-seed{}.folded", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, r.rec.folded())) {
        Ok(()) => eprintln!("perfbench: replay spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Buffered trace events, counted only by the per-layer run: reading them
/// copies every event, which would inflate an end-to-end run's peak RSS.
fn trace_event_count(role: Role) -> f64 {
    match role {
        Role::Layers => dls_obs::trace_events().len() as f64,
        Role::E2e => 0.0,
    }
}

fn child_repro(args: &Args, role: Role, started: Instant) -> ChildReport {
    let mut report = ChildReport::default();
    repro::install_providers();
    let inputs = repro::Inputs::new(args.quick, args.seed);
    let reference = match reference_text(args) {
        Ok(r) => r,
        Err(e) => {
            report.failures.push(e);
            None
        }
    };

    // Warm-up: one untimed pass (allocator, lazy statics, first-touch
    // pages); its outputs are checked like every other pass.
    let (_, runs) = repro::run_pass(&inputs);
    let (a, f, msgs) = check_repro(&inputs, &runs, reference.as_deref());
    report.account(a, f, msgs);

    report.setup_s = Some(started.elapsed().as_secs_f64());
    let before = dls_obs::snapshot();
    let events_before = trace_event_count(role);
    // Section times of the fastest pass: (wall, per-group seconds, seconds
    // in sections that fan out through par_map).
    let mut fastest: Option<(f64, BTreeMap<&str, f64>, f64)> = None;
    for _ in 0..args.passes {
        let (wall, runs) = repro::run_pass(&inputs);
        let latencies: Vec<f64> = runs.iter().map(|r| r.seconds * 1e3).collect();
        report.passes.push(Pass::new(wall, &latencies));
        report.requests += runs.len();
        if fastest.as_ref().is_none_or(|(w, _, _)| wall < *w) {
            let mut groups: BTreeMap<&str, f64> = BTreeMap::new();
            for run in &runs {
                *groups.entry(run.section.group()).or_default() += run.seconds;
            }
            let fan_out = runs
                .iter()
                .filter(|r| r.section.fans_out())
                .map(|r| r.seconds)
                .sum();
            fastest = Some((wall, groups, fan_out));
        }
        let (a, f, msgs) = check_repro(&inputs, &runs, reference.as_deref());
        report.account(a, f, msgs);
    }
    let after = dls_obs::snapshot();
    let events_after = trace_event_count(role);
    report.threads = after.gauge("par_map.threads");

    if role == Role::Layers {
        let passes = args.passes as f64;
        let values = &mut report.values;
        counter_values(
            &Delta {
                before: &before,
                after: &after,
            },
            passes,
            values,
        );
        values.insert(
            "obs.trace_events".into(),
            (events_after - events_before) / passes,
        );
        let (wall, groups, fan_out) = fastest.expect("at least one timed pass");
        for (g, t) in &groups {
            values.insert(format!("figures.{g}_s"), *t);
        }
        values.insert(
            "figures.coverage".into(),
            groups.values().sum::<f64>() / wall,
        );
        values.insert("pass.wall_s".into(), wall);

        let replayed = replay::repro(&inputs);
        replay_values(&replayed, 1.0, values);
        let cells = cell_time(
            &replayed,
            &[
                "cell.fig10_13",
                "cell.multiround",
                "cell.tree",
                "cell.interleaved",
            ],
        );
        if fan_out > 0.0 {
            values.insert("par_map.speedup".into(), cells / fan_out);
        }
        report.failures.extend(replayed.failures.iter().cloned());
        report.failed += replayed.failures.len() as u64;
        write_spans(args, &replayed);
    }
    report.rss_mb = peak_rss_mb();
    report
}

fn child_large_lp(args: &Args, role: Role, started: Instant) -> ChildReport {
    let mut report = ChildReport::default();
    let cfg = large_lp::Config::new(args.quick);
    let scheduler = dls_core::lookup("optimal_fifo").expect("optimal_fifo is a built-in strategy");
    let mut stream = large_lp::Stream::new(&cfg, args.seed, args.process);

    let check = |report: &mut ChildReport,
                 platforms: &[dls_platform::Platform],
                 requests: &[large_lp::Request]| {
        let failures: Vec<String> = platforms
            .iter()
            .zip(requests)
            .filter_map(|(p, r)| large_lp::verify(p, &r.result).err())
            .collect();
        report.account(requests.len() as u64, failures.len() as u64, failures);
    };

    // Warm-up requests, then the first pass's inputs: both are set-up.
    let warm = stream.take(cfg.warmup);
    let (_, requests) = large_lp::run_pass(scheduler.as_ref(), &warm);
    check(&mut report, &warm, &requests);
    let mut platforms = stream.take(cfg.requests);

    report.setup_s = Some(started.elapsed().as_secs_f64());
    let before = dls_obs::snapshot();
    let events_before = trace_event_count(role);
    for pass in 0..args.passes {
        let (wall, requests) = large_lp::run_pass(scheduler.as_ref(), &platforms);
        let latencies: Vec<f64> = requests.iter().map(|r| r.latency * 1e3).collect();
        report.passes.push(Pass::new(wall, &latencies));
        report.requests += requests.len();
        check(&mut report, &platforms, &requests);
        if pass + 1 < args.passes {
            platforms = stream.take(cfg.requests);
        }
    }
    let after = dls_obs::snapshot();
    let events_after = trace_event_count(role);

    if role == Role::Layers {
        let passes = args.passes as f64;
        let values = &mut report.values;
        counter_values(
            &Delta {
                before: &before,
                after: &after,
            },
            passes,
            values,
        );
        values.insert(
            "obs.trace_events".into(),
            (events_after - events_before) / passes,
        );
        // No figure section runs in this workload.
        for g in ["fig10_13", "multiround", "tree", "interleaved", "other"] {
            values.insert(format!("figures.{g}_s"), 0.0);
        }
        values.insert("figures.coverage".into(), 0.0);
        let pass_wall = best(&report.passes, |p| p.wall).unwrap_or(0.0);
        values.insert("pass.wall_s".into(), pass_wall);

        let replayed_requests = LARGE_LP_REPLAY.min(cfg.requests);
        let replayed = replay::large_lp(&mut stream, replayed_requests);
        let scale = cfg.requests as f64 / replayed_requests as f64;
        replay_values(&replayed, scale, values);
        // One thread: the replayed request time over the pass wall.
        if pass_wall > 0.0 {
            let cells = cell_time(&replayed, &["cell.large_lp"]) * scale;
            values.insert("par_map.speedup".into(), cells / pass_wall);
        }
        report.failures.extend(replayed.failures.iter().cloned());
        report.failed += replayed.failures.len() as u64;
        write_spans(args, &replayed);
    }
    report.rss_mb = peak_rss_mb();
    report
}

// ---------------------------------------------------------------------------
// The orchestrator.
// ---------------------------------------------------------------------------

/// Runs one measurement child and waits for it. A child that fails to
/// start, crashes or reports garbage counts as one failed request.
fn spawn(args: &Args, role: Role, traced: bool, process: u64, passes: usize) -> ChildReport {
    let crashed = |why: String| ChildReport {
        attempted: 1,
        failed: 1,
        failures: vec![why],
        ..ChildReport::default()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return crashed(format!("cannot locate the benchmark executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        match role {
            Role::E2e => "e2e",
            Role::Layers => "layers",
        },
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--process",
        &process.to_string(),
        "--passes",
        &passes.to_string(),
        "--scale",
        if args.quick { "quick" } else { "paper" },
    ]);
    if let Some(path) = &args.reference {
        cmd.args(["--reference", path]);
    }
    if traced {
        cmd.env("DLS_TRACE", "summary");
    } else {
        cmd.env_remove("DLS_TRACE");
    }
    cmd.stdin(Stdio::null()).stderr(Stdio::inherit());
    match cmd.output() {
        Ok(out) if out.status.success() => {
            ChildReport::parse(&String::from_utf8_lossy(&out.stdout)).unwrap_or_else(crashed)
        }
        Ok(out) => crashed(format!("measurement process exited with {}", out.status)),
        Err(e) => crashed(format!("cannot start a measurement process: {e}")),
    }
}

/// A command's first output line, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything a run measured, merged over its processes.
#[derive(Default)]
struct Merged {
    setups: Vec<f64>,
    passes: Vec<Pass>,
    requests: usize,
    rss: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    threads: Option<f64>,
}

impl Merged {
    fn add(&mut self, r: ChildReport) {
        self.setups.extend(r.setup_s);
        self.passes.extend(r.passes);
        self.requests += r.requests;
        self.rss.extend(r.rss_mb);
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.failures.extend(r.failures);
        self.threads = self.threads.or(r.threads);
    }
}

fn orchestrate(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["--version"]);
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    let calibration_ns = dls_bench::smoke::time_calibration_ns(5);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} scale={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick { "quick" } else { "paper" }
    );

    let mut merged = Merged::default();
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let layers = spawn(
            args,
            Role::Layers,
            args.workload.traced(),
            0,
            if args.workload.traced() { 1 } else { 2 },
        );
        let mut values = layers.values.clone();
        let own_wall = best(&layers.passes, |p| p.wall);
        merged.add(layers);
        // The same workload with tracing flipped, for the overhead ratio.
        let flipped = spawn(args, Role::E2e, !args.workload.traced(), 1, 1);
        let flipped_wall = best(&flipped.passes, |p| p.wall);
        merged.add(flipped);
        if let (Some(own), Some(other)) = (own_wall, flipped_wall) {
            let (traced, untraced) = if args.workload.traced() {
                (own, other)
            } else {
                (other, own)
            };
            values.insert("obs.overhead".into(), traced / untraced);
        }
        for (name, unit) in PER_LAYER {
            match values.get(name) {
                Some(&v) => metrics.push((name, unit, v)),
                None => {
                    eprintln!("perfbench: {name} is absent (a program counter it reads is missing)")
                }
            }
        }
    } else {
        let started = Instant::now();
        let mut process = 0;
        while (process as usize) < MIN_PROCESSES || started.elapsed().as_secs_f64() < args.seconds {
            merged.add(spawn(
                args,
                Role::E2e,
                args.workload.traced(),
                process,
                args.workload.passes_per_process(),
            ));
            process += 1;
        }
        let ok_share = if merged.attempted == 0 {
            0.0
        } else {
            1.0 - merged.failed as f64 / merged.attempted as f64
        };
        // In END_TO_END order.
        let values = [
            median_of(&merged.passes, |p| p.wall),
            median(&merged.setups),
            median_of(&merged.passes, |p| p.p50_ms),
            median_of(&merged.passes, |p| p.p99_ms),
            median(&merged.rss),
            Some(ok_share),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            if let Some(v) = value {
                metrics.push((name, unit, v));
            }
        }
        let what = if args.workload == Workload::LargeLp {
            "Scheduler::solve requests"
        } else {
            "figure-section calls"
        };
        println!(
            "samples: {} passes in {} processes, {} {what}; times are medians over passes \
             (request percentiles within one pass), set-up and peak RSS the median process's",
            merged.passes.len(),
            merged.setups.len(),
            merged.requests
        );
    }

    let threads = merged
        .threads
        .map_or_else(|| "unused".to_string(), |t| t.to_string());
    println!(
        "meta: nproc={nproc} par_map_threads={threads} rustc=\"{rustc}\" commit={commit} calibration_ns={calibration_ns}"
    );
    for (name, unit, value) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "failed_share = {} ({} of {} requests failed)",
        if merged.attempted == 0 {
            1.0
        } else {
            merged.failed as f64 / merged.attempted as f64
        },
        merged.failed,
        merged.attempted
    );
    for f in merged.failures.iter().take(20) {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = merged.failures.is_empty() && merged.failed == 0 && merged.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, _, v)| v.is_finite())
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        merged.attempted.max(1),
        merged.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
