//! Shared experiment configuration for the Section 5 reproduction: the
//! sizes, platform count, load and seed every averaged study runs with.
//! The strategies a study compares are registry ids in its variant (see
//! [`crate::figures::sweep`]).

/// Parameters of a Figures 10-13 style sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Matrix sizes on the x-axis (the paper sweeps 40..200).
    pub sizes: Vec<usize>,
    /// Random platforms averaged per size (the paper uses 50).
    pub platforms: usize,
    /// Total number of matrix products `M` (the paper fixes 1000).
    pub total_units: u64,
    /// Base RNG seed; platform `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl SweepConfig {
    /// The paper's full parameters: sizes 40,60,..,200; 50 platforms;
    /// M = 1000.
    pub fn paper() -> Self {
        SweepConfig {
            sizes: (40..=200).step_by(20).collect(),
            platforms: 50,
            total_units: 1000,
            base_seed: 0xD15C0,
        }
    }

    /// Reduced parameters for tests and smoke benches.
    pub fn quick() -> Self {
        SweepConfig {
            sizes: vec![40, 120, 200],
            platforms: 6,
            total_units: 200,
            base_seed: 0xD15C0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let cfg = SweepConfig::paper();
        assert_eq!(cfg.sizes, vec![40, 60, 80, 100, 120, 140, 160, 180, 200]);
        assert_eq!(cfg.platforms, 50);
        assert_eq!(cfg.total_units, 1000);
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = SweepConfig::quick();
        let p = SweepConfig::paper();
        assert!(q.sizes.len() < p.sizes.len());
        assert!(q.platforms < p.platforms);
    }
}
