//! Hardware-feature extraction from standard Linux tool output — the
//! counterpart of the paper's "feature extraction script which uses
//! built-in Linux commands" (§IV, Fig. 3).
//!
//! On a real deployment the script runs `lscpu`, `ibstat`, and `lspci` at
//! MPI-library build time; here the same parsing runs over captured text,
//! so a user can point the framework at their own machine's output and get
//! a [`NodeSpec`] the pre-trained model can consume. Parsing is
//! deliberately forgiving about field order and spacing but strict about
//! the fields the classifier needs.

use pml_simnet::{CpuFamily, CpuSpec, HcaGeneration, InterconnectSpec, NodeSpec, PcieVersion};
use std::fmt;

/// Error from any of the parsers.
#[derive(Debug, Clone, PartialEq)]
pub struct HwDetectError(pub String);

impl fmt::Display for HwDetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hardware detection failed: {}", self.0)
    }
}

impl std::error::Error for HwDetectError {}

fn missing(field: &str) -> HwDetectError {
    HwDetectError(format!("missing field: {field}"))
}

/// Extract `key:   value` from lscpu-style output (first match wins).
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim())
    })
}

fn parse_f64(s: &str) -> Option<f64> {
    s.split_whitespace().next()?.replace(',', ".").parse().ok()
}

/// Parse a cache-size string: lscpu prints `39424K`, `38.5 MiB`,
/// `28 MiB (28 instances)`, or plain bytes.
fn parse_cache_mib(s: &str) -> Option<f64> {
    let tok = s.split_whitespace().next()?;
    let (num, unit) = match tok.find(|c: char| c.is_ascii_alphabetic()) {
        Some(i) => tok.split_at(i),
        None => (tok, s.split_whitespace().nth(1).unwrap_or("B")),
    };
    let v: f64 = num.parse().ok()?;
    let mib = match unit.trim().to_ascii_uppercase().as_str() {
        "K" | "KB" | "KIB" => v / 1024.0,
        "M" | "MB" | "MIB" => v,
        "G" | "GB" | "GIB" => v * 1024.0,
        "B" | "" => v / (1024.0 * 1024.0),
        _ => return None,
    };
    Some(mib)
}

/// Guess the CPU family from the model-name string.
fn family_of(model: &str) -> CpuFamily {
    let m = model.to_ascii_lowercase();
    if m.contains("phi") {
        CpuFamily::IntelXeonPhi
    } else if m.contains("epyc") || m.contains("amd") {
        CpuFamily::AmdEpyc
    } else if m.contains("thunderx2") || m.contains("cavium") {
        CpuFamily::ArmThunderX2
    } else if m.contains("a64fx") {
        CpuFamily::ArmA64fx
    } else if m.contains("power9") {
        CpuFamily::IbmPower9
    } else if m.contains("power8") {
        CpuFamily::IbmPower8
    } else {
        CpuFamily::IntelXeon
    }
}

/// Parse `lscpu` output into a [`CpuSpec`].
///
/// `mem_bw_gbs` cannot be read from lscpu; pass a STREAM-measured value,
/// or `None` to estimate from NUMA-node count (≈ 70 GB/s per NUMA domain,
/// a contemporary DDR4 channel group).
pub fn parse_lscpu(text: &str, mem_bw_gbs: Option<f64>) -> Result<CpuSpec, HwDetectError> {
    let model = field(text, "Model name")
        .ok_or_else(|| missing("Model name"))?
        .to_string();
    let sockets: u32 = field(text, "Socket(s)")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| missing("Socket(s)"))?;
    let cores_per_socket: u32 = field(text, "Core(s) per socket")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| missing("Core(s) per socket"))?;
    let threads_total: u32 = field(text, "CPU(s)")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| missing("CPU(s)"))?;
    let numa_nodes: u32 = field(text, "NUMA node(s)")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    // Max clock preferred (the paper's choice); fall back to base.
    let mhz = field(text, "CPU max MHz")
        .and_then(parse_f64)
        .or_else(|| field(text, "CPU MHz").and_then(parse_f64))
        .ok_or_else(|| missing("CPU max MHz"))?;
    // L3 per socket × sockets = node L3 (lscpu reports per-socket size on
    // most platforms; newer lscpu prints the instance count explicitly).
    let l3_raw = field(text, "L3 cache").ok_or_else(|| missing("L3 cache"))?;
    let l3_one = parse_cache_mib(l3_raw)
        .ok_or_else(|| HwDetectError(format!("unparseable L3 cache: {l3_raw:?}")))?;
    let instances: f64 = l3_raw
        .split('(')
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(sockets as f64);
    let cpu = CpuSpec {
        family: family_of(&model),
        model,
        max_clock_ghz: mhz / 1000.0,
        l3_cache_mib: l3_one * instances,
        mem_bw_gbs: mem_bw_gbs.unwrap_or(70.0 * numa_nodes as f64),
        cores: cores_per_socket * sockets,
        threads: threads_total,
        sockets,
        numa_nodes,
    };
    if cpu.max_clock_ghz <= 0.0 || cpu.cores == 0 {
        return Err(HwDetectError("implausible CPU values".into()));
    }
    Ok(cpu)
}

/// Parse `ibstat` output into (generation, link width). Omni-Path systems
/// report through `opainfo` instead; a rate of 100 with "Omni-Path"
/// anywhere in the text maps to OPA.
pub fn parse_ibstat(text: &str) -> Result<(HcaGeneration, u32), HwDetectError> {
    let rate: f64 = field(text, "Rate")
        .and_then(parse_f64)
        .ok_or_else(|| missing("Rate"))?;
    let width = text
        .lines()
        .find_map(|l| {
            let v = l.split_once(':')?;
            if !v.0.trim().eq_ignore_ascii_case("Active width")
                && !v.0.trim().eq_ignore_ascii_case("Link width active")
            {
                return None;
            }
            v.1.trim().trim_end_matches(['X', 'x']).parse::<u32>().ok()
        })
        .unwrap_or(4);
    let per_lane = rate / width as f64;
    let is_opa = text.to_ascii_lowercase().contains("omni-path");
    let generation = if is_opa {
        HcaGeneration::OmniPath
    } else if per_lane <= 9.0 {
        HcaGeneration::Qdr
    } else if per_lane <= 15.0 {
        HcaGeneration::Fdr
    } else if per_lane <= 30.0 {
        HcaGeneration::Edr
    } else {
        HcaGeneration::Hdr
    };
    Ok((generation, width))
}

/// Parse an `lspci -vv` link-status line for the HCA's slot:
/// `LnkSta: Speed 8GT/s (ok), Width x16 (ok)`.
pub fn parse_lspci_link(text: &str) -> Result<(PcieVersion, u32), HwDetectError> {
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("LnkSta:"))
        .ok_or_else(|| missing("LnkSta"))?;
    let speed = line
        .split("Speed")
        .nth(1)
        .and_then(|s| {
            let s = s.trim_start_matches([' ', ':']);
            let num: String = s
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            num.parse::<f64>().ok()
        })
        .ok_or_else(|| missing("LnkSta Speed"))?;
    let lanes: u32 = line
        .split("Width x")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok())
        .ok_or_else(|| missing("LnkSta Width"))?;
    let version = if speed >= 15.0 {
        PcieVersion::Gen4
    } else {
        PcieVersion::Gen3
    };
    Ok((version, lanes))
}

/// Assemble a full [`NodeSpec`] from the captures. PCIe attachment is a
/// second-order feature; without an `lspci` capture assume the era-typical
/// Gen3 x16 slot.
pub fn detect_node(
    lscpu: &str,
    ibstat: &str,
    lspci: Option<&str>,
    mem_bw_gbs: Option<f64>,
) -> Result<NodeSpec, HwDetectError> {
    let cpu = parse_lscpu(lscpu, mem_bw_gbs)?;
    let (generation, link_width) = parse_ibstat(ibstat)?;
    let (pcie_version, pcie_lanes) = match lspci {
        Some(text) => parse_lspci_link(text)?,
        None => (PcieVersion::Gen3, 16),
    };
    Ok(NodeSpec {
        cpu,
        nic: InterconnectSpec {
            generation,
            link_width,
            pcie_version,
            pcie_lanes,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LSCPU_FRONTERA: &str = "\
Architecture:        x86_64
CPU(s):              56
Thread(s) per core:  1
Core(s) per socket:  28
Socket(s):           2
NUMA node(s):        2
Model name:          Intel(R) Xeon(R) Platinum 8280 CPU @ 2.70GHz
CPU MHz:             2701.000
CPU max MHz:         4000.0000
CPU min MHz:         1000.0000
L1d cache:           32K
L3 cache:            39424K
";

    const LSCPU_EPYC: &str = "\
CPU(s):                          256
Core(s) per socket:              64
Socket(s):                       2
NUMA node(s):                    8
Model name:                      AMD EPYC 7713 64-Core Processor
CPU max MHz:                     3720.7029
L3 cache:                        256 MiB (2 instances)
";

    const IBSTAT_EDR: &str = "\
CA 'mlx5_0'
        CA type: MT4115
        Port 1:
                State: Active
                Physical state: LinkUp
                Rate: 100
                Active width: 4X
";

    const LSPCI_GEN3: &str = "\
        LnkCap: Port #0, Speed 8GT/s, Width x16
        LnkSta: Speed 8GT/s (ok), Width x16 (ok)
";

    #[test]
    fn parses_classic_lscpu() {
        let cpu = parse_lscpu(LSCPU_FRONTERA, Some(220.0)).unwrap();
        assert_eq!(cpu.model, "Intel(R) Xeon(R) Platinum 8280 CPU @ 2.70GHz");
        assert_eq!(cpu.family, CpuFamily::IntelXeon);
        assert_eq!(cpu.cores, 56);
        assert_eq!(cpu.threads, 56);
        assert_eq!(cpu.sockets, 2);
        assert_eq!(cpu.numa_nodes, 2);
        assert!((cpu.max_clock_ghz - 4.0).abs() < 1e-9);
        // 39424K per socket × 2 sockets = 77 MiB.
        assert!((cpu.l3_cache_mib - 77.0).abs() < 0.1);
        assert_eq!(cpu.mem_bw_gbs, 220.0);
    }

    #[test]
    fn parses_modern_lscpu_with_instances() {
        let cpu = parse_lscpu(LSCPU_EPYC, None).unwrap();
        assert_eq!(cpu.family, CpuFamily::AmdEpyc);
        assert_eq!(cpu.threads, 256);
        assert_eq!(cpu.cores, 128);
        // "256 MiB (2 instances)" = 512 MiB node total.
        assert!((cpu.l3_cache_mib - 512.0).abs() < 1e-9);
        // Estimated bandwidth: 8 NUMA domains.
        assert!((cpu.mem_bw_gbs - 560.0).abs() < 1e-9);
    }

    #[test]
    fn parses_ibstat_generations() {
        assert_eq!(parse_ibstat(IBSTAT_EDR).unwrap(), (HcaGeneration::Edr, 4));
        let hdr = IBSTAT_EDR.replace("Rate: 100", "Rate: 200");
        assert_eq!(parse_ibstat(&hdr).unwrap(), (HcaGeneration::Hdr, 4));
        let qdr = IBSTAT_EDR.replace("Rate: 100", "Rate: 32");
        assert_eq!(parse_ibstat(&qdr).unwrap(), (HcaGeneration::Qdr, 4));
        let fdr = IBSTAT_EDR.replace("Rate: 100", "Rate: 56");
        assert_eq!(parse_ibstat(&fdr).unwrap(), (HcaGeneration::Fdr, 4));
        let opa = format!("Omni-Path HFI\n{}", IBSTAT_EDR);
        assert_eq!(parse_ibstat(&opa).unwrap().0, HcaGeneration::OmniPath);
    }

    #[test]
    fn parses_lspci_link() {
        assert_eq!(
            parse_lspci_link(LSPCI_GEN3).unwrap(),
            (PcieVersion::Gen3, 16)
        );
        let gen4 = LSPCI_GEN3.replace("LnkSta: Speed 8GT/s", "LnkSta: Speed 16GT/s");
        assert_eq!(parse_lspci_link(&gen4).unwrap(), (PcieVersion::Gen4, 16));
    }

    #[test]
    fn assembles_node_and_feeds_feature_extraction() {
        let node = detect_node(LSCPU_FRONTERA, IBSTAT_EDR, Some(LSPCI_GEN3), Some(220.0)).unwrap();
        let v =
            crate::features::extract(&node, pml_collectives::Collective::Allgather, 16, 56, 4096);
        assert_eq!(v[12], 25.0); // EDR lane rate
        assert_eq!(v[10], 16.0); // PCIe lanes
        assert_eq!(v[3], 4.0); // max clock GHz
    }

    #[test]
    fn errors_are_descriptive() {
        let err = parse_lscpu("CPU(s): 8\n", None).unwrap_err();
        assert!(err.0.contains("Model name"));
        let err = parse_ibstat("State: Active\n").unwrap_err();
        assert!(err.0.contains("Rate"));
        let err = parse_lspci_link("nothing here").unwrap_err();
        assert!(err.0.contains("LnkSta"));
    }

    #[test]
    fn cache_size_formats() {
        assert_eq!(parse_cache_mib("39424K"), Some(38.5));
        assert_eq!(parse_cache_mib("38.5 MiB"), Some(38.5));
        assert_eq!(parse_cache_mib("1 GiB"), Some(1024.0));
        assert_eq!(parse_cache_mib("256 MiB (2 instances)"), Some(256.0));
    }
}
