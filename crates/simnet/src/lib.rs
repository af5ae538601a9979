//! # pml-simnet
//!
//! Virtual-time cluster substrate for the PML-MPI reproduction.
//!
//! The PML-MPI paper measured collective-algorithm runtimes on 18 physical
//! HPC clusters. This crate replaces those machines with a parameterized
//! model of one: [`hw`] describes a cluster through exactly the hardware
//! features the paper's classifier consumes, [`cost`] turns those features
//! into per-operation communication costs, [`layout`] maps ranks onto nodes,
//! and [`noise`] reproduces run-to-run network variability.
//!
//! The virtual-time *executor* that walks a collective's communication
//! schedule against this cost model lives in `pml-collectives`; this crate
//! is purely the machine model.

pub mod cost;
pub mod hw;
pub mod layout;
pub mod noise;
pub mod params;

pub use cost::{CostModel, RENDEZVOUS_THRESHOLD};
pub use hw::{
    ClusterSpec, CpuFamily, CpuSpec, HcaGeneration, InterconnectSpec, NodeSpec, PcieVersion,
};
pub use layout::JobLayout;
pub use noise::NoiseModel;
pub use params::CostParams;
