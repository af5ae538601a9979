//! Cost polynomials by formula: for each paper algorithm, the polynomial
//! [`super::extract_poly`] reads off its unit-block schedule, computed from
//! the algorithm's structure without generating a schedule.
//!
//! Extraction stays the definition: a formula is correct exactly when it
//! returns what `extract_poly(&algo.schedule(p, 1)?, layout)` returns,
//! coefficient by coefficient, which `tests/schedcost_properties.rs` holds
//! on every layout the zoo, the benchmark and the goldens price. Each
//! loops over rounds and one node's ranks, never over messages.
//!
//! The longest-path terms follow the extractor's walk: a path runs down one
//! rank's steps and may cross to a receiver along any message, collecting
//! at each completed step a round and the bytes of its class (net when the
//! peer sits on another node). Copy bytes are the same on every rank, so
//! their longest path is one rank's sum; every node carries the same NIC
//! bytes, and sends what it receives.

use super::CostPoly;
use pml_simnet::JobLayout;

/// The longest-path traffic terms: `[net_rounds, shm_rounds, net_bytes,
/// shm_bytes]`.
type Paths = [u64; 4];

/// The polynomial of `paths` and `nic_bytes`, with `copy_bytes` of local
/// copies and one message per phase (no marginal-message terms).
fn poly(paths: Paths, nic_bytes: u64, copy_bytes: u64) -> Option<CostPoly> {
    let [net_rounds, shm_rounds, net_bytes, shm_bytes] = paths;
    Some(CostPoly {
        net_rounds,
        shm_rounds,
        net_bytes,
        shm_bytes,
        copy_bytes,
        nic_bytes,
        ..CostPoly::default()
    })
}

/// The extractor's walk over rounds in which every rank receives once:
/// in round `(key, blocks)`, rank `i` completes a receive of `blocks` from
/// `from(key, i)` after the longer of its own chain and the sender's. The
/// pattern and the layout repeat every `period` ranks (a multiple of
/// `ppn`, at most two nodes), so one period's chains stand for all:
/// O(rounds × period). Returns the longest chain and the heavier NIC.
fn walk(
    layout: JobLayout,
    period: u64,
    rounds: impl Iterator<Item = (u64, u64)>,
    from: impl Fn(u64, u64) -> u64,
) -> (Paths, u64) {
    let ppn = u64::from(layout.ppn);
    let mut chains = vec![[0u64; 4]; period as usize];
    let mut next = chains.clone();
    let mut node_nic = [0u64; 2];
    for (key, blocks) in rounds {
        for (i, v) in (0..period).zip(next.iter_mut()) {
            let sender = from(key, i);
            let (mine, theirs) = (chains[i as usize], chains[(sender % period) as usize]);
            *v = std::array::from_fn(|m| mine[m].max(theirs[m]));
            let shm = usize::from(sender / ppn == i / ppn);
            v[shm] += 1;
            v[2 + shm] += blocks;
            node_nic[(i / ppn) as usize] += if shm == 0 { blocks } else { 0 };
        }
        std::mem::swap(&mut chains, &mut next);
    }
    let longest = chains.iter().fold([0; 4], |max: Paths, c| {
        std::array::from_fn(|m| max[m].max(c[m]))
    });
    (longest, node_nic[0].max(node_nic[1]))
}

/// Rounds `(shift, blocks)` in which every rank `r` receives from
/// `r − shift` (mod p): a shift by one node maps schedule and layout onto
/// themselves.
fn shifted(layout: JobLayout, rounds: impl Iterator<Item = (u64, u64)>) -> (Paths, u64) {
    let p = u64::from(layout.world_size());
    walk(layout, layout.ppn.into(), rounds, |shift, i| {
        (i + p - shift % p) % p
    })
}

/// The world, ppn and their log₂, for the power-of-two algorithms (both
/// factors of a power of two are powers of two): partner `r XOR d` is
/// off-node exactly when `d ≥ ppn`.
fn pow2(layout: JobLayout) -> (u64, u64, u64, u64) {
    let (p, ppn) = (u64::from(layout.world_size()), u64::from(layout.ppn));
    let log2 = |x: u64| u64::from(x.trailing_zeros());
    (p, ppn, log2(p), log2(ppn))
}

/// One block with `r XOR k` for every `k` in `1..p`.
fn xor_every_peer(layout: JobLayout, copy_bytes: u64) -> Option<CostPoly> {
    let (p, ppn, ..) = pow2(layout);
    let (off, on) = (p - ppn, ppn - 1);
    poly([off, on, off, on], ppn * off, copy_bytes)
}

/// Allgather recursive doubling: round `k` swaps `2ᵏ` blocks with
/// `r XOR 2ᵏ`.
pub(crate) fn allgather_recursive_doubling(layout: JobLayout) -> Option<CostPoly> {
    let (p, ppn, log_p, log_ppn) = pow2(layout);
    let paths = [log_p - log_ppn, log_ppn, p - ppn, ppn - 1];
    poly(paths, ppn * (p - ppn), 1)
}

/// Allgather ring: `p − 1` rounds from the left neighbour. A node's first
/// rank receives off-node every round, its second on-node every round.
pub(crate) fn allgather_ring(layout: JobLayout) -> Option<CostPoly> {
    let rounds = u64::from(layout.world_size()) - 1;
    let net = if layout.nodes > 1 { rounds } else { 0 };
    let shm = if layout.ppn > 1 { rounds } else { 0 };
    poly([net, shm, net, shm], net, 1)
}

/// Allgather Bruck: round `k` receives `min(2ᵏ, p − 2ᵏ)` blocks from
/// `r + 2ᵏ`; every rank but 0 then rotates its `p` blocks through `Aux`.
pub(crate) fn allgather_bruck(layout: JobLayout) -> Option<CostPoly> {
    let p = u64::from(layout.world_size());
    let rounds = (0..).map(|k| 1u64 << k).take_while(|&have| have < p);
    let (paths, nic) = shifted(layout, rounds.map(|have| (p - have, have.min(p - have))));
    poly(paths, nic, 1 + if p > 1 { 2 * p } else { 0 })
}

/// Allgather neighbour exchange: `p/2` rounds, each a perfect matching of
/// ring neighbours: pairs `(2j, 2j+1)` in round 0 (one block) and every
/// even round, pairs `(2j+1, 2j+2)` in odd rounds (two blocks each); the
/// pattern repeats every `lcm(2, ppn)` ranks.
pub(crate) fn allgather_neighbor_exchange(layout: JobLayout) -> Option<CostPoly> {
    let (p, ppn) = (u64::from(layout.world_size()), u64::from(layout.ppn));
    let rounds = (0..p / 2).map(|round| (round, if round == 0 { 1 } else { 2 }));
    let period = if ppn % 2 == 0 { ppn } else { 2 * ppn };
    let (paths, nic) = walk(layout, period, rounds, |round, i| {
        if (i % 2 == 0) != (round % 2 == 1) {
            (i + 1) % p
        } else {
            (i + p - 1) % p
        }
    });
    poly(paths, nic, 1)
}

/// Alltoall Bruck: round `k` sends the `m_k` slots whose index has bit
/// `k` set to `r + 2ᵏ`. Copies: the rotation (`p`), each round's pack and
/// the next step's unpack (`2·m_k`), and the inverse placement (`2p`).
pub(crate) fn alltoall_bruck(layout: JobLayout) -> Option<CostPoly> {
    let p = u64::from(layout.world_size());
    let slots = |bit: u64| (p >> 1) / bit * bit + (p % (2 * bit)).saturating_sub(bit);
    let rounds = (0..).map(|k| 1u64 << k).take_while(|&bit| bit < p);
    let packed: u64 = rounds.clone().map(|bit| 2 * slots(bit)).sum();
    let (paths, nic) = shifted(layout, rounds.map(|bit| (bit, slots(bit))));
    poly(paths, nic, p + packed + if p > 1 { 2 * p } else { 0 })
}

/// Alltoall scatter-destination: one phase per rank posting `p − 1`
/// sends and `p − 1` receives; those beyond the first of each class are
/// marginal messages, on the send and on the receive side.
pub(crate) fn alltoall_scatter_dest(layout: JobLayout) -> Option<CostPoly> {
    let (p, ppn) = (u64::from(layout.world_size()), u64::from(layout.ppn));
    let (off, on) = (p - ppn, ppn - 1);
    Some(CostPoly {
        net_msgs: 2 * off.saturating_sub(1),
        shm_msgs: 2 * on.saturating_sub(1),
        ..poly(
            [u64::from(off > 0), u64::from(on > 0), off, on],
            ppn * off,
            1,
        )?
    })
}

/// Alltoall pairwise: round `k` of `p − 1` swaps one block with
/// `r XOR k` at a power-of-two `p`, else receives from `r − k`.
pub(crate) fn alltoall_pairwise(layout: JobLayout) -> Option<CostPoly> {
    let p = u64::from(layout.world_size());
    if p.is_power_of_two() {
        return xor_every_peer(layout, 1);
    }
    let (paths, nic) = shifted(layout, (1..p).map(|k| (k, 1)));
    poly(paths, nic, 1)
}

/// Alltoall recursive doubling: round `k` swaps `p/2` blocks with
/// `r XOR 2ᵏ`. Copies: `Input` to `Work` (`p`), then every round packs
/// `p/2` and unpacks the previous round's `p/2`.
pub(crate) fn alltoall_recursive_doubling(layout: JobLayout) -> Option<CostPoly> {
    let (p, ppn, log_p, log_ppn) = pow2(layout);
    let (half, net) = (p / 2, log_p - log_ppn);
    let paths = [net, log_ppn, half * net, half * log_ppn];
    poly(paths, ppn * half * net, p * (log_p + 1))
}

/// Alltoall in place: one block with each peer in turn, staged through
/// `Aux` (one block copied per step). At a power-of-two `p` the pairing is
/// `r XOR k`. Otherwise rank `r` meets its peers in rank order, so a path
/// is a monotone walk over pairs `x < y` from `(0, 1)` to `(p−2, p−1)`
/// (`2p − 3` steps): one rank's next peer, or a hop to that peer, which
/// then continues past `x`. It meets on-node pairs only inside a node's
/// triangle (at most `2·ppn − 3` of them each), and must cross the first
/// and the last node's triangles (at least `ppn − 1` steps each).
pub(crate) fn alltoall_inplace(layout: JobLayout) -> Option<CostPoly> {
    let (p, ppn) = (u64::from(layout.world_size()), u64::from(layout.ppn));
    if p.is_power_of_two() {
        return xor_every_peer(layout, p - 1);
    }
    let steps = 2 * p - 3;
    let net = if layout.nodes > 1 {
        steps - 2 * (ppn - 1)
    } else {
        0
    };
    let shm = u64::from(layout.nodes) * (2 * ppn).saturating_sub(3);
    poly([net, shm, net, shm], ppn * (p - ppn), steps)
}
