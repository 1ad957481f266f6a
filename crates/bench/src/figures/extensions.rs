//! Extension experiments beyond the paper's evaluation section
//! (design-choice ablations and future-work probes; the `extensions`
//! binary prints the measured tables, see the README's "Reproducing the
//! paper's figures").
//!
//! * [`robustness`] — FIFO/LIFO sensitivity to jitter amplitude,
//!   explaining the paper's Figure 13(a) observation that "the LIFO
//!   heuristic might be very sensitive to small performance variations";
//! * [`scaling`] — throughput vs worker count on a bus: Theorem 2's `U`
//!   saturates at the port bound `1/(c+d)` while the no-return baseline
//!   keeps climbing;
//! * [`z_sweep`] — optimal FIFO/LIFO throughput as the return-message
//!   ratio `z` sweeps through 1, demonstrating the mirror symmetry and
//!   the send-order flip of Section 3;
//! * [`affine_sweep`] — latency-driven resource selection in the affine
//!   model (Section 6 / \[20\]): as per-message start-up cost grows, the
//!   optimal enrolled set shrinks.

use dls_core::engine::{IncC, OptimalLifo};
use dls_core::prelude::*;
use dls_platform::{ClusterModel, MatrixApp, Platform, PlatformSampler};
use dls_report::{mean, num, Table};
use dls_sim::{simulate, Noise, RealismModel, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Jitter-sensitivity table: mean simulated/lp time per heuristic per
/// noise level.
pub fn robustness(platforms: usize, seed: u64) -> Table {
    let app = MatrixApp::new(200);
    let cluster = ClusterModel::gdsdmi();
    let sampler = PlatformSampler::hetero_star();
    let sigmas = [0.0, 0.01, 0.03, 0.05, 0.10];

    let mut table = Table::new(&[
        "sigma",
        "INC_C real/lp",
        "LIFO real/lp",
        "LIFO excess vs INC_C",
    ]);
    for &sigma in &sigmas {
        let mut fifo_ratios = Vec::new();
        let mut lifo_ratios = Vec::new();
        for i in 0..platforms {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            let platform = sampler.sample(&app, &cluster, &mut rng);
            let realism = RealismModel {
                comm_noise: Noise::Gaussian { sigma },
                comp_noise: Noise::Gaussian { sigma },
                comm_latency: 0.0,
                comp_inflation: 1.0,
            };
            let strategies: [(&dyn Scheduler, _); 2] =
                [(&IncC, &mut fifo_ratios), (&OptimalLifo, &mut lifo_ratios)];
            for (strategy, ratios) in strategies {
                let sol = strategy.solve(&platform).unwrap();
                let lp_time = 1000.0 / sol.throughput;
                let int_sched = integer_schedule(&sol.schedule, 1000);
                let ms = simulate(
                    &platform,
                    &int_sched,
                    &SimConfig {
                        realism,
                        seed: seed.wrapping_add(7 * i as u64),
                        ..SimConfig::ideal()
                    },
                )
                .makespan;
                ratios.push(ms / lp_time);
            }
        }
        let f = mean(&fifo_ratios);
        let l = mean(&lifo_ratios);
        table.row(&[
            num(sigma, 2),
            num(f, 4),
            num(l, 4),
            format!("{:+.2}%", (l / f - 1.0) * 100.0),
        ]);
    }
    table
}

/// Bus scaling: throughput vs number of identical workers, versus the
/// port bound `1/(c+d)` and the no-return baseline.
pub fn scaling() -> Table {
    let (c, d, w) = (1.0, 0.5, 8.0);
    let mut table = Table::new(&[
        "workers",
        "FIFO rho (Thm 2)",
        "LIFO rho",
        "no-return rho",
        "port bound 1/(c+d)",
        "regime",
    ]);
    for p in [1usize, 2, 4, 8, 16, 32, 64] {
        let bus = Platform::bus(c, d, &vec![w; p]).unwrap();
        let fifo = bus_fifo(&bus).unwrap();
        let lifo = optimal_lifo(&bus).expect("a bus is z-tied");
        let zero_d = no_return_platform(&bus);
        let nr = optimal_no_return(&zero_d).unwrap();
        table.row(&[
            p.to_string(),
            num(fifo.throughput, 4),
            num(lifo.throughput, 4),
            num(nr.throughput, 4),
            num(1.0 / (c + d), 4),
            format!("{:?}", fifo.regime),
        ]);
    }
    table
}

/// `z`-sweep on a fixed star: optimal FIFO / LIFO throughput and the
/// prescribed FIFO send order direction.
pub fn z_sweep() -> Table {
    let cw = [(1.0, 4.0), (2.0, 3.0), (1.5, 5.0), (3.0, 2.0)];
    let mut table = Table::new(&[
        "z",
        "FIFO rho",
        "LIFO rho",
        "FIFO send order",
        "mirror check |rho(z) - rho(1/z)|",
    ]);
    for &z in &[0.1, 0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0, 10.0] {
        let p = Platform::star_with_z(&cw, z).unwrap();
        let fifo = optimal_fifo(&p).unwrap();
        let lifo = optimal_lifo(&p).unwrap();
        let order: Vec<String> = fifo
            .schedule
            .send_order()
            .iter()
            .map(|id| id.to_string())
            .collect();
        // Mirror symmetry: rho on the mirrored platform (which has ratio
        // 1/z and swapped c/d) equals rho here.
        let mirrored = optimal_fifo(&p.mirror()).unwrap();
        table.row(&[
            num(z, 2),
            num(fifo.throughput, 5),
            num(lifo.throughput, 5),
            order.join(">"),
            format!("{:.2e}", (fifo.throughput - mirrored.throughput).abs()),
        ]);
    }
    table
}

/// Affine-latency sweep: optimal enrollment and throughput vs per-message
/// start-up cost on an 8-worker star.
pub fn affine_sweep() -> Table {
    let cw: Vec<(f64, f64)> = (0..8)
        .map(|i| (0.05 + 0.01 * i as f64, 0.4 + 0.05 * ((i * 3) % 5) as f64))
        .collect();
    let p = Platform::star_with_z(&cw, 0.5).unwrap();
    let mut table = Table::new(&[
        "latency/msg",
        "enrolled (exact)",
        "rho (exact subset)",
        "rho (prefix heuristic)",
        "prefix gap",
    ]);
    for &lat in &[0.0, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15] {
        let l = AffineLatencies::uniform(8, lat, lat);
        let exact = affine_fifo_best_subset(&p, &l, 16).unwrap();
        let prefix = affine_fifo_best_prefix(&p, &l).unwrap();
        table.row(&[
            num(lat, 3),
            exact.enrolled.len().to_string(),
            num(exact.throughput, 4),
            num(prefix.throughput, 4),
            format!(
                "{:.3}%",
                (1.0 - prefix.throughput / exact.throughput) * 100.0
            ),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robustness_table_has_all_sigma_rows() {
        let t = robustness(3, 42);
        assert_eq!(t.num_rows(), 5);
        let rendered = t.render();
        assert!(rendered.contains("0.10"));
    }

    #[test]
    fn scaling_saturates_at_port_bound() {
        let t = scaling();
        let rendered = t.render();
        // At 64 workers the FIFO throughput equals the port bound and the
        // regime column says CommBound.
        assert!(rendered.contains("CommBound"));
        assert!(rendered.contains("ComputeBound"));
        assert_eq!(t.num_rows(), 7);
    }

    #[test]
    fn z_sweep_flips_order_at_one() {
        let rendered = z_sweep().render();
        // For z < 1 the fastest link (P1, c = 1.0) is served first; for
        // z > 1 the slowest (P4, c = 3.0) goes first.
        let lines: Vec<&str> = rendered.lines().collect();
        let row_small_z = lines.iter().find(|l| l.starts_with("0.10")).unwrap();
        assert!(row_small_z.contains("P1>P3>P2>P4"));
        let row_big_z = lines.iter().find(|l| l.starts_with("4.00")).unwrap();
        assert!(row_big_z.contains("P4>P2>P3>P1"));
    }

    #[test]
    fn z_sweep_mirror_residuals_are_tiny() {
        let rendered = z_sweep().render();
        for line in rendered.lines().skip(2) {
            let residual = line.split_whitespace().last().unwrap();
            let v: f64 = residual.parse().unwrap();
            assert!(v < 1e-6, "mirror residual {v} in line: {line}");
        }
    }

    #[test]
    fn affine_sweep_enrollment_is_monotone_decreasing() {
        let t = affine_sweep();
        let rendered = t.to_csv();
        let enrolled: Vec<usize> = rendered
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        for pair in enrolled.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "enrollment grew with latency: {enrolled:?}"
            );
        }
        assert_eq!(*enrolled.first().unwrap(), 8, "zero latency enrolls all");
        assert!(
            *enrolled.last().unwrap() < 8,
            "heavy latency must drop workers"
        );
    }
}
