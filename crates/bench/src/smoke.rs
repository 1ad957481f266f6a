//! Shared harness for the `--smoke` CI regression gates.
//!
//! Each gated bench (`benches/solver.rs`, `benches/multiround.rs`,
//! `benches/tree.rs`, `benches/ir.rs`) times one hot-path operation and
//! compares it against a checked-in baseline JSON through [`run_gate`]:
//! the measurement is normalized by a machine-speed probe (a fixed matrix
//! product timed on both the baseline machine and the runner) so the gate
//! compares solver work, not runner hardware. A wildly off calibration is
//! clamped so it cannot mask a real regression.
//!
//! The solver bench also pins same-machine ratios between two operations
//! through [`run_ratio_gate`], which gates on the median of alternating
//! paired timings rather than on two separately timed best-of blocks.

use std::hint::black_box;

use dls_report::percentile;

/// Reads the `"key": <number>` field out of a flat baseline JSON document.
///
/// A real (tiny) scanner rather than a substring search: it walks the
/// document string-by-string, so a key name quoted inside the `comment`
/// field can never be mistaken for the key itself, and string *values* are
/// consumed whole. Accepts `+` exponents.
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    // Returns (string contents, index just past the closing quote).
    fn read_string(bytes: &[u8], open: usize) -> (usize, usize) {
        let mut j = open + 1;
        while j < bytes.len() && bytes[j] != b'"' {
            if bytes[j] == b'\\' {
                j += 1;
            }
            j += 1;
        }
        (open + 1, j)
    }
    let bytes = doc.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let (start, end) = read_string(bytes, i);
        let name = &doc[start..end.min(doc.len())];
        i = end + 1;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b':' {
            continue; // a string value or malformed input; keep scanning
        }
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == b'"' {
            // String value (the comment): consume it so its contents are
            // never scanned for keys.
            let (_, vend) = read_string(bytes, i);
            i = vend + 1;
            continue;
        }
        let vstart = i;
        while i < bytes.len() && matches!(bytes[i], b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E')
        {
            i += 1;
        }
        if name == key {
            return doc[vstart..i].parse().ok();
        }
    }
    None
}

/// Machine-speed probe: a fixed 160x160 f64 matrix product, solver-free,
/// so gates normalize for the runner's speed relative to the machine that
/// recorded the baseline instead of comparing absolute wall clocks.
pub fn time_calibration_ns(runs: usize) -> f64 {
    const N: usize = 160;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 97) as f64 * 0.013).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 89) as f64 * 0.011).collect();
    let matmul = |a: &[f64], b: &[f64]| -> f64 {
        let mut c = vec![0.0f64; N * N];
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        c[N + 1]
    };
    black_box(matmul(&a, &b)); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = std::time::Instant::now();
        black_box(matmul(&a, &b));
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Runs one smoke gate: reads `baseline_key` (and `calibration_ns` /
/// `max_regression`, default 2.0) from the JSON at `baseline_path`, calls
/// `measure(runs)` for the best-of-`runs` wall time in nanoseconds,
/// normalizes by machine speed and exits nonzero past the gate.
///
/// `label` names the measured operation in the printed report.
pub fn run_gate(
    baseline_path: &str,
    baseline_key: &str,
    label: &str,
    measure: impl FnOnce(usize) -> f64,
) {
    let doc = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));
    let baseline_ns = json_number(&doc, baseline_key)
        .unwrap_or_else(|| panic!("baseline JSON missing {baseline_key}"));
    let baseline_cal_ns =
        json_number(&doc, "calibration_ns").expect("baseline JSON missing calibration_ns");
    let max_ratio = json_number(&doc, "max_regression").unwrap_or(2.0);

    // Speed factor of this machine vs the baseline machine, clamped so a
    // wildly off calibration cannot mask a real regression.
    let calibration_ns = time_calibration_ns(5);
    let speed = (calibration_ns / baseline_cal_ns).clamp(0.25, 4.0);
    let measured_ns = measure(5);
    let ratio = measured_ns / (baseline_ns * speed);
    // Three decimals of a millisecond, and the probe's own time, so a
    // baseline can be re-recorded from the printed line.
    println!(
        "smoke: {label} {:.3} ms (baseline {:.3} ms, probe {:.3} ms, machine speed \
         {speed:.2}x, normalized ratio {ratio:.2}, gate {max_ratio:.1}x)",
        measured_ns / 1e6,
        baseline_ns / 1e6,
        calibration_ns / 1e6
    );
    if ratio > max_ratio {
        eprintln!(
            "smoke: FAIL — {label} regressed {ratio:.2}x over the checked-in baseline \
             after machine-speed normalization \
             (update the baseline JSON only with an explanation)"
        );
        std::process::exit(1);
    }
    println!("smoke: OK");

    // Opt-in per-gate snapshot artifact: with `DLS_TRACE` set, every gate
    // emits the metrics accumulated by the measured operation (labelled by
    // gate), so a regression investigation starts from iteration and
    // refactorization histograms instead of a bare wall-clock ratio. Gauges
    // record the gate's own numbers alongside.
    if !matches!(dls_obs::mode(), dls_obs::Mode::Disabled) {
        dls_obs::gauge!("smoke.measured_ns").set(measured_ns);
        dls_obs::gauge!("smoke.normalized_ratio").set(ratio);
        dls_obs::emit(&format!("smoke:{label}"));
    }
}

/// Paired samples a ratio gate takes. Odd, so the median is one sample.
const RATIO_PAIRS: usize = 41;

/// Runs one *ratio* smoke gate: asserts that the median over 41
/// (`RATIO_PAIRS`) paired timings of `op` over `reference` is at most
/// `baseline_key` (the baseline value is the maximum allowed ratio, not a
/// time). Each pair times one call of each, back to back, and the pairs
/// alternate which one goes first, so drift in machine speed (frequency
/// scaling, a noisy neighbour) lands on both sides of a pair instead of
/// on one of two separately timed blocks. Both sides run on the same
/// machine in the same process, so no speed normalization applies.
///
/// This is how the solver gate pins *relative* wins (e.g. "cold revised
/// beats the tableau": ratio ≤ 1.0) that an absolute-time gate with a 2x
/// regression allowance could never express.
pub fn run_ratio_gate(
    baseline_path: &str,
    baseline_key: &str,
    label: &str,
    mut op: impl FnMut(),
    mut reference: impl FnMut(),
) {
    let doc = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));
    let max_ratio = json_number(&doc, baseline_key)
        .unwrap_or_else(|| panic!("baseline JSON missing {baseline_key}"));
    let pairs = paired_timings(&mut op, &mut reference);
    let ratios: Vec<f64> = pairs.iter().map(|&(a, b)| a / b).collect();
    let [q1, ratio, q3] =
        [25.0, 50.0, 75.0].map(|p| percentile(&ratios, p).expect("RATIO_PAIRS > 0"));
    let median = |side: Vec<f64>| percentile(&side, 50.0).expect("RATIO_PAIRS > 0");
    let measured_ns = median(pairs.iter().map(|p| p.0).collect());
    let reference_ns = median(pairs.iter().map(|p| p.1).collect());
    println!(
        "smoke: {label} {:.2} ms vs reference {:.2} ms (median of {RATIO_PAIRS} paired \
         ratios {ratio:.3}, quartiles {q1:.3}..{q3:.3}, gate {max_ratio:.2})",
        measured_ns / 1e6,
        reference_ns / 1e6
    );
    if ratio > max_ratio {
        eprintln!(
            "smoke: FAIL — {label} is {ratio:.3}x the reference on this machine \
             (median paired ratio), above the {max_ratio:.2} gate"
        );
        std::process::exit(1);
    }
    println!("smoke: OK");
    if !matches!(dls_obs::mode(), dls_obs::Mode::Disabled) {
        dls_obs::gauge!("smoke.measured_ns").set(measured_ns);
        dls_obs::gauge!("smoke.normalized_ratio").set(ratio);
        dls_obs::emit(&format!("smoke:{label}"));
    }
}

/// Times [`RATIO_PAIRS`] back-to-back pairs of `op` and `reference`
/// after one warm-up call each, alternating which goes first. Returns each
/// pair's `(op, reference)` times in nanoseconds.
fn paired_timings(op: &mut dyn FnMut(), reference: &mut dyn FnMut()) -> Vec<(f64, f64)> {
    fn time_ns(f: &mut dyn FnMut()) -> f64 {
        let t = std::time::Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    }
    op();
    reference();
    (0..RATIO_PAIRS)
        .map(|k| {
            if k % 2 == 0 {
                let a = time_ns(op);
                (a, time_ns(reference))
            } else {
                let b = time_ns(reference);
                (time_ns(op), b)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_scans_keys_not_comment_contents() {
        let doc = r#"{
          "comment": "mentions \"p128_revised_ns\": 1 inside a string",
          "p128_revised_ns": 950000,
          "exp": 1.5e+3
        }"#;
        assert_eq!(json_number(doc, "p128_revised_ns"), Some(950000.0));
        assert_eq!(json_number(doc, "exp"), Some(1500.0));
        assert_eq!(json_number(doc, "missing"), None);
    }

    #[test]
    fn paired_timings_alternate_which_side_goes_first() {
        let calls = std::cell::RefCell::new(String::new());
        let pairs = paired_timings(&mut || calls.borrow_mut().push('o'), &mut || {
            calls.borrow_mut().push('r')
        });
        assert_eq!(pairs.len(), RATIO_PAIRS);
        let calls = calls.into_inner();
        // One warm-up call each, then pairs in alternating order.
        assert_eq!(&calls[..10], "ororroorro");
        assert_eq!(calls.len(), 2 + 2 * RATIO_PAIRS);
    }

    #[test]
    fn calibration_probe_is_positive() {
        assert!(time_calibration_ns(1) > 0.0);
    }
}
