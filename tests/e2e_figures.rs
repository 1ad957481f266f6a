//! End-to-end smoke runs of every figure harness at reduced scale,
//! checking the qualitative shapes the paper reports (who wins, rough
//! factors, crossovers) rather than absolute numbers.

use dls_bench::figures::{fig08, fig09, fig10_13, fig14};
use dls_bench::SweepConfig;

fn tiny(sizes: Vec<usize>) -> SweepConfig {
    SweepConfig {
        sizes,
        platforms: 4,
        total_units: 200,
        base_seed: 0xE2E,
    }
}

#[test]
fn fig08_linearity_shape() {
    let fig = fig08::run(8);
    // Five workers, linear fits with near-zero intercepts — the paper's
    // conclusion "no latency needs to be taken into account".
    assert_eq!(fig.workers.len(), 5);
    for w in &fig.workers {
        assert!(w.fit.r_squared > 0.99);
    }
    // Times are monotone in message size for every worker.
    for w in &fig.workers {
        for pair in w.times.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }
}

#[test]
fn fig09_resource_selection_shape() {
    let fig = fig09::run(200, 300, 5);
    assert_eq!(fig.participants, 3, "three of five workers enrolled");
    assert!(fig.makespan > 0.0);
    assert!(fig.gantt.contains("master"));
}

#[test]
fn fig10_homogeneous_shape() {
    let res = fig10_13::run(&fig10_13::fig10_variant(), &tiny(vec![80, 200]));
    for row in &res.rows {
        // Real execution stays within ~25% of the LP prediction.
        let real = row
            .ratios
            .iter()
            .find(|(n, _)| n == "INC_C real/INC_C lp")
            .unwrap()
            .1;
        assert!((0.75..=1.25).contains(&real), "real/lp = {real}");
    }
}

#[test]
fn fig11_ranking_shape() {
    // Theorem 2 regime: INC_C <= INC_W in lp time (INC_C is optimal FIFO).
    let res = fig10_13::run(&fig10_13::fig11_variant(), &tiny(vec![200]));
    let row = &res.rows[0];
    let inc_w_lp = row
        .ratios
        .iter()
        .find(|(n, _)| n == "INC_W lp/INC_C lp")
        .unwrap()
        .1;
    assert!(
        inc_w_lp >= 1.0 - 1e-9,
        "INC_W beat the optimal FIFO: {inc_w_lp}"
    );
    // LIFO leads on compute-bound platforms *on average* in the paper's
    // plots, but the sign of the FIFO/LIFO gap flips with the comm/compute
    // regime of each random draw (see `ClusterModel::gdsdmi`): at smoke scale
    // (4 platforms) only a loose sanity bound is stable. The paper-scale
    // ranking is asserted at 50 platforms by the repro_all run.
    let lifo_lp = row
        .ratios
        .iter()
        .find(|(n, _)| n == "LIFO lp/INC_C lp")
        .unwrap()
        .1;
    assert!(lifo_lp <= 1.15, "LIFO lp = {lifo_lp}");
}

#[test]
fn fig12_heterogeneous_ranking() {
    let res = fig10_13::run(&fig10_13::fig12_variant(), &tiny(vec![200]));
    let row = &res.rows[0];
    let inc_w_lp = row
        .ratios
        .iter()
        .find(|(n, _)| n == "INC_W lp/INC_C lp")
        .unwrap()
        .1;
    assert!(inc_w_lp >= 1.0 - 1e-9);
}

#[test]
fn fig13b_linear_model_limit_shape() {
    // With fast communication the real/lp ratio must grow with matrix
    // size — the paper's headline observation for Figure 13(b).
    let res = fig10_13::run(&fig10_13::fig13b_variant(), &tiny(vec![40, 200]));
    let ratio = |i: usize| {
        res.rows[i]
            .ratios
            .iter()
            .find(|(n, _)| n == "INC_C real/INC_C lp")
            .unwrap()
            .1
    };
    assert!(
        ratio(1) > ratio(0),
        "real/lp should grow with n: {} then {}",
        ratio(0),
        ratio(1)
    );
}

#[test]
fn fig14_participation_shape() {
    let a = fig14::run(1.0, 400, 200, 3);
    assert_eq!(a.rows[3].used, 3, "x=1: slow worker must stay idle");
    let b = fig14::run(3.0, 400, 200, 3);
    assert_eq!(b.rows[3].used, 4, "x=3: slow worker must participate");
    // lp time is non-increasing in the number of available workers.
    for fig in [&a, &b] {
        for w in fig.rows.windows(2) {
            assert!(w[1].lp_time <= w[0].lp_time + 1e-6);
        }
    }
}
