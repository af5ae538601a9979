//! The communication cost model.
//!
//! Converts a [`NodeSpec`] plus a job's process layout
//! into the per-operation costs the virtual-time executor charges:
//!
//! * **inter-node message**: CPU injection overhead (∝ 1/clock) + fabric
//!   latency (HCA generation) + serialization at the NIC (link rate capped
//!   by PCIe), with an eager→rendezvous knee;
//! * **intra-node message**: memory-system transfer whose bandwidth depends
//!   on whether the transfer fits in the rank's L3 share (cache-resident
//!   copies run at cache speed, streaming copies share DRAM bandwidth with
//!   the other ranks on the node) and whose latency grows with NUMA spread;
//! * **local copy** (packing/unpacking inside an algorithm): same memory
//!   model, no latency term beyond a per-op CPU cost.
//!
//! Every term is a function of exactly the hardware features the paper's
//! classifier consumes, which is what lets the learned model transfer across
//! clusters: the mapping features → optimal algorithm is *caused* by these
//! formulas rather than asserted.

use crate::hw::NodeSpec;

use serde::{Deserialize, Serialize};

/// Legacy fixed rendezvous threshold; the cost model now uses the
/// fabric-dependent [`crate::hw::HcaGeneration::eager_threshold_bytes`],
/// this constant only anchors tests and documentation.
pub const RENDEZVOUS_THRESHOLD: usize = 16 * 1024;

/// Per-rank L3 cache bandwidth in GB/s per GHz of core clock.
const L3_BW_GBS_PER_GHZ: f64 = 16.0;

/// CPU cycles-equivalent cost of injecting or completing one message,
/// expressed as seconds × GHz (i.e. microseconds at 1 GHz).
const PER_MSG_CPU_S_GHZ: f64 = 0.30e-6;

/// Per-local-copy fixed CPU cost, seconds × GHz.
const PER_COPY_CPU_S_GHZ: f64 = 0.05e-6;

/// Base intra-node (shared-memory) message latency, seconds × GHz.
const MEM_ALPHA_S_GHZ: f64 = 0.55e-6;

/// Cost model for one job (a node type plus processes-per-node).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    node: NodeSpec,
    ppn: u32,
    /// Cached: effective NIC bandwidth, bytes/s.
    net_bw: f64,
    /// Cached: per-rank L3 share in bytes.
    l3_share: f64,
    /// Cached: per-rank streaming DRAM bandwidth, bytes/s.
    dram_share: f64,
    /// Cached: per-rank cache-resident copy bandwidth, bytes/s.
    l3_bw: f64,
    /// Cached: NUMA latency multiplier for intra-node traffic.
    numa_factor: f64,
}

impl CostModel {
    pub fn new(node: NodeSpec, ppn: u32) -> Self {
        debug_assert!(ppn >= 1, "ppn must be at least 1");
        let net_bw = node.nic.effective_bw_bytes_per_s();
        let l3_share = node.cpu.l3_cache_mib * 1024.0 * 1024.0 / ppn as f64;
        let dram_share = node.cpu.mem_bw_gbs * 1e9 / ppn as f64;
        let l3_bw = node.cpu.max_clock_ghz * L3_BW_GBS_PER_GHZ * 1e9;
        // Expected fraction of intra-node pairs that cross a NUMA boundary
        // grows with the number of NUMA domains; crossing costs ~35% extra.
        let numa = node.cpu.numa_nodes.max(1) as f64;
        let numa_factor = 1.0 + 0.35 * (1.0 - 1.0 / numa);
        CostModel {
            node,
            ppn,
            net_bw,
            l3_share,
            dram_share,
            l3_bw,
            numa_factor,
        }
    }

    pub fn ppn(&self) -> u32 {
        self.ppn
    }

    /// CPU time to issue or complete one *inter-node* message: the core's
    /// own work (∝ 1/clock) plus the HCA generation's software/driver
    /// overhead.
    pub fn per_msg_net_s(&self) -> f64 {
        PER_MSG_CPU_S_GHZ / self.node.cpu.max_clock_ghz
            + self.node.nic.generation.per_msg_sw_overhead_s()
    }

    /// CPU time to issue or complete one *intra-node* (shared-memory)
    /// message: no NIC in the path, so only the core's work.
    pub fn per_msg_shm_s(&self) -> f64 {
        PER_MSG_CPU_S_GHZ / self.node.cpu.max_clock_ghz
    }

    /// The fabric's eager→rendezvous switch point in bytes.
    pub fn rendezvous_threshold(&self) -> usize {
        self.node.nic.generation.eager_threshold_bytes()
    }

    /// Time the NIC is occupied per message beyond wire serialization
    /// (inverse message rate).
    pub fn nic_msg_occupancy_s(&self) -> f64 {
        1.0 / self.node.nic.generation.msg_rate_per_s()
    }

    /// One-way fabric latency for an inter-node message of `bytes`,
    /// including the rendezvous handshake above the eager threshold.
    pub fn net_alpha_s(&self, bytes: usize) -> f64 {
        let base = self.node.nic.generation.base_latency_s();
        if bytes >= self.rendezvous_threshold() {
            // Handshake: request + clear-to-send round trip at small-message
            // latency before the payload moves.
            base + 2.0 * base
        } else {
            base
        }
    }

    /// Wire time for `bytes` once the NIC is free.
    pub fn net_serialize_s(&self, bytes: usize) -> f64 {
        bytes as f64 / self.net_bw
    }

    /// Latency of an intra-node (shared memory) message.
    pub fn mem_alpha_s(&self) -> f64 {
        MEM_ALPHA_S_GHZ / self.node.cpu.max_clock_ghz * self.numa_factor
    }

    /// Effective per-rank bandwidth for moving `bytes` through the memory
    /// system: cache speed when the transfer (double-buffered, hence ×2)
    /// fits this rank's L3 share, DRAM share otherwise.
    pub fn mem_bw_bytes_per_s(&self, bytes: usize) -> f64 {
        if (bytes as f64) * 2.0 <= self.l3_share {
            self.l3_bw
        } else {
            // Streaming transfers contend with every other rank on the node;
            // they still get at least a sliver even at extreme PPN.
            self.dram_share.max(0.2e9)
        }
    }

    /// Full cost of an intra-node message of `bytes`.
    pub fn intra_node_msg_s(&self, bytes: usize) -> f64 {
        self.mem_alpha_s() + bytes as f64 / self.mem_bw_bytes_per_s(bytes)
    }

    /// Cost of a local pack/unpack/rotate copy of `bytes`.
    pub fn copy_s(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        // Packing/unpacking copies touch memory laid out by another core's
        // writes; on many-NUMA parts the cache-coherence round trips make
        // the fixed per-copy cost grow with NUMA spread.
        PER_COPY_CPU_S_GHZ / self.node.cpu.max_clock_ghz * self.numa_factor
            + bytes as f64 / self.mem_bw_bytes_per_s(bytes)
    }

    /// Cost of a local elementwise reduction of `bytes`: reads both
    /// operands and writes one — half again the traffic of a plain copy.
    pub fn combine_s(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        PER_COPY_CPU_S_GHZ / self.node.cpu.max_clock_ghz * self.numa_factor
            + 1.5 * bytes as f64 / self.mem_bw_bytes_per_s(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{CpuFamily, CpuSpec, HcaGeneration, InterconnectSpec, NodeSpec, PcieVersion};

    fn node(clock: f64, l3: f64, mem_bw: f64, gen: HcaGeneration) -> NodeSpec {
        NodeSpec {
            cpu: CpuSpec {
                model: "t".into(),
                family: CpuFamily::IntelXeon,
                max_clock_ghz: clock,
                l3_cache_mib: l3,
                mem_bw_gbs: mem_bw,
                cores: 28,
                threads: 56,
                sockets: 2,
                numa_nodes: 2,
            },
            nic: InterconnectSpec::new(gen, PcieVersion::Gen3),
        }
    }

    #[test]
    fn faster_clock_lowers_cpu_overhead() {
        let slow = CostModel::new(node(1.4, 32.0, 100.0, HcaGeneration::Edr), 16);
        let fast = CostModel::new(node(3.4, 32.0, 100.0, HcaGeneration::Edr), 16);
        assert!(fast.per_msg_net_s() < slow.per_msg_net_s());
        assert!(fast.per_msg_shm_s() < slow.per_msg_shm_s());
    }

    #[test]
    fn newer_fabric_lowers_per_message_overhead() {
        let qdr = CostModel::new(node(2.7, 32.0, 100.0, HcaGeneration::Qdr), 16);
        let hdr = CostModel::new(node(2.7, 32.0, 100.0, HcaGeneration::Hdr), 16);
        assert!(hdr.per_msg_net_s() < qdr.per_msg_net_s());
        // Shared-memory path does not involve the NIC at all.
        assert_eq!(hdr.per_msg_shm_s(), qdr.per_msg_shm_s());
    }

    #[test]
    fn rendezvous_knee_raises_alpha() {
        let m = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Edr), 16);
        let thr = m.rendezvous_threshold();
        assert!(m.net_alpha_s(thr) > m.net_alpha_s(thr - 1));
    }

    #[test]
    fn eager_threshold_grows_with_fabric_speed() {
        let qdr = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Qdr), 16);
        let hdr = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Hdr), 16);
        assert!(hdr.rendezvous_threshold() > qdr.rendezvous_threshold());
    }

    #[test]
    fn message_rate_improves_with_generation() {
        let qdr = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Qdr), 16);
        let hdr = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Hdr), 16);
        assert!(hdr.nic_msg_occupancy_s() < qdr.nic_msg_occupancy_s());
    }

    #[test]
    fn l3_knee_in_memory_bandwidth() {
        let m = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Edr), 4);
        let small = 64 * 1024; // fits 38.5/4 MiB share comfortably
        let huge = 64 * 1024 * 1024;
        assert!(m.mem_bw_bytes_per_s(small) > m.mem_bw_bytes_per_s(huge));
    }

    #[test]
    fn bigger_l3_moves_the_knee() {
        // Same message: cache-resident on the large-L3 machine, streaming on
        // the small-L3 one.
        let big = CostModel::new(node(2.7, 256.0, 140.0, HcaGeneration::Edr), 8);
        let small = CostModel::new(node(2.7, 16.0, 140.0, HcaGeneration::Edr), 8);
        let bytes = 4 * 1024 * 1024;
        assert!(big.mem_bw_bytes_per_s(bytes) > small.mem_bw_bytes_per_s(bytes));
    }

    #[test]
    fn ppn_shrinks_dram_share() {
        let lo = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Edr), 2);
        let hi = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Edr), 56);
        let bytes = 64 * 1024 * 1024;
        assert!(lo.mem_bw_bytes_per_s(bytes) > hi.mem_bw_bytes_per_s(bytes));
    }

    #[test]
    fn hdr_beats_edr_on_wire_time() {
        let edr = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Edr), 16);
        let hdr = {
            let mut n = node(2.7, 38.5, 140.0, HcaGeneration::Hdr);
            n.nic.pcie_version = PcieVersion::Gen4;
            CostModel::new(n, 16)
        };
        assert!(hdr.net_serialize_s(1 << 20) < edr.net_serialize_s(1 << 20));
    }

    #[test]
    fn copy_is_cheaper_than_intra_node_message() {
        let m = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Edr), 16);
        assert!(m.copy_s(4096) < m.intra_node_msg_s(4096));
    }

    #[test]
    fn zero_byte_copy_is_free() {
        let m = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Edr), 16);
        assert_eq!(m.copy_s(0), 0.0);
        assert_eq!(m.combine_s(0), 0.0);
    }

    #[test]
    fn combine_costs_more_than_copy() {
        let m = CostModel::new(node(2.7, 38.5, 140.0, HcaGeneration::Edr), 16);
        assert!(m.combine_s(65536) > m.copy_s(65536));
    }
}
