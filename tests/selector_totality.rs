//! Fallback totality: whatever the model (or a corrupt table) proposes,
//! `applicable_or_fallback` must hand the runtime an algorithm that is
//! actually defined at the job's world size — for every algorithm of every
//! collective, across degenerate, odd, prime, and power-of-two worlds.

use pml_mpi::{applicable_or_fallback, Algorithm, Collective};

#[test]
fn every_algorithm_world_pair_resolves_to_an_applicable_algorithm() {
    let worlds: Vec<u32> = (1..=64)
        .chain([96, 100, 127, 128, 255, 256, 509, 896, 1024, 4096, 65536])
        .collect();
    for collective in Collective::ALL {
        for &preferred in Algorithm::all_for(collective) {
            for &w in &worlds {
                let chosen = applicable_or_fallback(preferred, w);
                assert!(
                    chosen.supports(w),
                    "{preferred} at world {w} fell back to {chosen}, which does not support {w}"
                );
                assert_eq!(
                    chosen.collective(),
                    collective,
                    "{preferred} at world {w} crossed collectives to {chosen}"
                );
            }
        }
    }
}

#[test]
fn applicable_preference_is_kept() {
    for collective in Collective::ALL {
        for &preferred in Algorithm::all_for(collective) {
            for w in [2u32, 8, 64, 1024] {
                if preferred.supports(w) {
                    assert_eq!(applicable_or_fallback(preferred, w), preferred);
                }
            }
        }
    }
}
