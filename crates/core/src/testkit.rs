//! Random platform strategies shared by the crate's property tests.

use dls_platform::Platform;
use proptest::prelude::*;

/// A per-unit cost on a quarter grid in `[0.25, 10]`.
fn cost() -> impl Strategy<Value = f64> {
    (1u32..=40).prop_map(|v| v as f64 / 4.0)
}

/// `z` below 1, equal to 1 and above 1.
fn ratio() -> impl Strategy<Value = f64> {
    prop_oneof![
        (1u32..=19).prop_map(|v| v as f64 / 20.0),
        Just(1.0),
        (21u32..=200).prop_map(|v| v as f64 / 20.0),
    ]
}

/// Random `z`-tied stars and buses of 1 to `max_workers` workers.
pub(crate) fn z_tied(max_workers: usize) -> impl Strategy<Value = Platform> {
    (
        prop::collection::vec((cost(), cost()), 1..=max_workers),
        ratio(),
        any::<bool>(),
    )
        .prop_map(|(cw, z, bus)| {
            if bus {
                let ws: Vec<f64> = cw.iter().map(|&(_, w)| w).collect();
                Platform::bus(cw[0].0, z * cw[0].0, &ws).expect("valid")
            } else {
                Platform::star_with_z(&cw, z).expect("valid")
            }
        })
}
