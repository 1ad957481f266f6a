//! Regenerates Figure 9 (execution trace / Gantt). Usage:
//! `fig09 [n] [M]` (defaults: n = 200, M = 1000).

use dls_bench::figures::fig09;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(200);
    let m: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let fig = fig09::run(n, m, 0xF1609);
    println!("{}", fig.report());
}
