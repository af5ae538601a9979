//! The captured-output path the CLI's `predict --lscpu/--ibstat` uses:
//! the committed example captures must parse into a NodeSpec a trained
//! model can consume.

mod common;

use pml_mpi::simnet::{HcaGeneration, PcieVersion};
use pml_mpi::{detect_node, Collective, JobConfig};
use std::path::Path;

fn capture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/captures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn committed_captures_drive_a_prediction() {
    let node = detect_node(
        &capture("lscpu_frontera.txt"),
        &capture("ibstat_edr.txt"),
        Some(&capture("lspci_gen3.txt")),
        None,
    )
    .expect("captures parse");
    assert_eq!(node.cpu.cores, 56);
    assert_eq!(node.cpu.sockets, 2);
    assert_eq!(node.nic.generation, HcaGeneration::Edr);
    assert_eq!(node.nic.pcie_lanes, 16);

    let model = common::mini_model(Collective::Allgather);
    let job = JobConfig::new(16, 56, 4096);
    let pick = model.predict(&node, job);
    assert!(pick.supports(job.world_size()));
    assert_eq!(pick.collective(), Collective::Allgather);
}

#[test]
fn without_an_lspci_capture_the_slot_is_gen3_x16() {
    let node = detect_node(
        &capture("lscpu_frontera.txt"),
        &capture("ibstat_edr.txt"),
        None,
        None,
    )
    .expect("captures parse");
    assert_eq!(node.nic.pcie_version, PcieVersion::Gen3);
    assert_eq!(node.nic.pcie_lanes, 16);
}
