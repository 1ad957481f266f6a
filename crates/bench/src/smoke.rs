//! Shared harness for the `--smoke` CI regression gates.
//!
//! Each gated bench (`benches/solver.rs`, `benches/multiround.rs`) times
//! one hot-path operation and compares it against a checked-in baseline
//! JSON through [`run_gate`]: the measurement is normalized by a
//! machine-speed probe (a fixed matrix product timed on both the baseline
//! machine and the runner) so the gate compares solver work, not runner
//! hardware. A wildly off calibration is clamped so it cannot mask a real
//! regression.

use std::hint::black_box;

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
    println!(
        "smoke: {label} {:.2} ms (baseline {:.2} ms, machine speed {speed:.2}x, \
         normalized ratio {ratio:.2}, gate {max_ratio:.1}x)",
        measured_ns / 1e6,
        baseline_ns / 1e6
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

/// Runs one *ratio* smoke gate: measures two operations on this machine
/// and asserts `measure(runs) / measure_ref(runs) <= baseline_key` (the
/// baseline value is the maximum allowed ratio, not a time). Both sides
/// run on the same machine in the same process, so no speed normalization
/// applies.
///
/// This is how the solver gate pins *relative* wins (e.g. "cold revised
/// beats the tableau": ratio ≤ 1.0) that an absolute-time gate with a 2x
/// regression allowance could never express.
pub fn run_ratio_gate(
    baseline_path: &str,
    baseline_key: &str,
    label: &str,
    measure: impl FnOnce(usize) -> f64,
    measure_ref: impl FnOnce(usize) -> f64,
) {
    let doc = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));
    let max_ratio = json_number(&doc, baseline_key)
        .unwrap_or_else(|| panic!("baseline JSON missing {baseline_key}"));
    let measured_ns = measure(5);
    let reference_ns = measure_ref(5);
    let ratio = measured_ns / reference_ns;
    println!(
        "smoke: {label} {:.2} ms vs reference {:.2} ms (ratio {ratio:.3}, gate {max_ratio:.2})",
        measured_ns / 1e6,
        reference_ns / 1e6
    );
    if ratio > max_ratio {
        eprintln!(
            "smoke: FAIL — {label} is {ratio:.3}x the reference on this machine, \
             above the {max_ratio:.2} gate"
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
    fn calibration_probe_is_positive() {
        assert!(time_calibration_ns(1) > 0.0);
    }
}
