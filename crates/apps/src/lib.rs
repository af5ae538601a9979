//! # pml-apps
//!
//! Proxy applications for the application-level evaluation (§VII-E,
//! Fig. 13): a [`minife::MiniFe`] conjugate-gradient proxy and a
//! [`gromacs::Gromacs`] PME molecular-dynamics proxy in the style of the
//! BenchMEM benchmark, both executed by [`runner::run_app`] under any
//! algorithm-selection strategy.

pub mod gromacs;
pub mod minife;
pub mod runner;

pub use gromacs::Gromacs;
pub use minife::MiniFe;
pub use runner::{run_app, AppReport, Phase, Workload};
