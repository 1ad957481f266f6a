//! # dls-bench — figure harnesses and benchmarks for the RR-5738 reproduction
//!
//! Regenerates every evaluation artefact of Beaumont, Marchal, Rehn &
//! Robert (RR-5738 / IPDPS 2006), Section 5:
//!
//! | Artefact | Entry point | Binary |
//! |---|---|---|
//! | Fig. 8 (linearity) | [`figures::fig08::run`] | `fig08` |
//! | Fig. 9 (trace) | [`figures::fig09::run`] | `fig09` |
//! | Fig. 10 (homogeneous) | [`figures::fig10_13`] | `fig10` |
//! | Fig. 11 (hetero compute) | [`figures::fig10_13`] | `fig11` |
//! | Fig. 12 (hetero star) | [`figures::fig10_13`] | `fig12` |
//! | Fig. 13(a)/(b) (ratio studies) | [`figures::fig10_13`] | `fig13` |
//! | Fig. 14 + worker table (selection) | [`figures::fig14::run`] | `fig14` |
//! | everything, written to `results/` | — | `repro_all` |
//!
//! Every averaged study — Figs. 10-13, the multi-round R-sweep, the tree
//! depth sweep and the interleaved gap — draws its platforms through
//! [`figures::sweep`], which also turns the sweeps' per-platform outcomes
//! into means and skip records.
//!
//! Criterion benches (`cargo bench`) cover solver/scheduler/simulator
//! performance and smoke-scale versions of each figure pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod scenarios;
pub mod smoke;

pub use scenarios::SweepConfig;
