//! Runs the extension experiments beyond the paper's evaluation: jitter
//! robustness, bus scaling, z-sweep, affine-latency selection.
//!
//! Usage: `extensions [robustness|scaling|zsweep|affine]...` (all when no
//! selector is given).

use dls_bench::figures::extensions;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("robustness") {
        println!(
            "Extension — jitter sensitivity of INC_C vs LIFO (n = 200, M = 1000, 20 platforms)\n"
        );
        println!("{}", extensions::robustness(20, 0xE17).render());
    }
    if want("scaling") {
        println!("Extension — bus scaling: Theorem 2 saturation at the port bound (c = 1, d = 0.5, w = 8)\n");
        println!("{}", extensions::scaling().render());
    }
    if want("zsweep") {
        println!("Extension — z-sweep on a fixed 4-worker star (mirror symmetry + order flip)\n");
        println!("{}", extensions::z_sweep().render());
    }
    if want("affine") {
        println!("Extension — affine latencies drive resource selection (8-worker star)\n");
        println!("{}", extensions::affine_sweep().render());
    }
}
