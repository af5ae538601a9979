//! Tuning tables — the JSON artifact the online-inference stage emits
//! (Fig. 4) and the MPI library reads at application runtime.
//!
//! A table maps (#nodes, PPN, message size) to the algorithm to use:
//! [`TuningTable`] is the wire artifact, [`TableIndex`] answers queries.
//! Lookup is total: points between grid entries resolve to the geometrically
//! nearest bucket (message sizes and node counts live on log-scale grids).

#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

use crate::error::PmlError;
use pml_collectives::{Algorithm, Collective};
use serde::{Deserialize, Serialize};

/// One tuning-table row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableEntry {
    pub nodes: u32,
    pub ppn: u32,
    pub msg_size: u64,
    pub algorithm: Algorithm,
}

impl TableEntry {
    /// The grid point, which entries are ordered and matched by.
    fn key(&self) -> (u32, u32, u64) {
        (self.nodes, self.ppn, self.msg_size)
    }
}

/// A per-(cluster, collective) tuning table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningTable {
    pub cluster: String,
    pub collective: Collective,
    entries: Vec<TableEntry>,
}

impl TuningTable {
    pub fn new(cluster: impl Into<String>, collective: Collective) -> Self {
        TuningTable {
            cluster: cluster.into(),
            collective,
            entries: Vec::new(),
        }
    }

    /// Insert or replace the entry for a grid point. Rejects algorithms of
    /// a different collective than the table's. A point past the last
    /// entry's, as when a table is built in order, is appended without a
    /// scan.
    pub fn insert(
        &mut self,
        nodes: u32,
        ppn: u32,
        msg_size: u64,
        algorithm: Algorithm,
    ) -> Result<(), PmlError> {
        if algorithm.collective() != self.collective {
            return Err(PmlError::CrossCollective {
                expected: self.collective,
                got: algorithm.collective(),
            });
        }
        let key = (nodes, ppn, msg_size);
        let found = match self.entries.last() {
            Some(last) if last.key() < key => None,
            _ => self.entries.iter_mut().find(|e| e.key() == key),
        };
        match found {
            Some(e) => e.algorithm = algorithm,
            None => self.entries.push(TableEntry {
                nodes,
                ppn,
                msg_size,
                algorithm,
            }),
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Serialize to the JSON wire format stored next to the MPI library.
    pub fn to_json(&self) -> Result<String, PmlError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parse and validate the JSON wire format: every entry's algorithm
    /// must belong to the table's collective.
    pub fn from_json(s: &str) -> Result<Self, PmlError> {
        let table: TuningTable = serde_json::from_str(s)?;
        if let Some(bad) = table
            .entries
            .iter()
            .find(|e| e.algorithm.collective() != table.collective)
        {
            return Err(PmlError::CrossCollective {
                expected: table.collective,
                got: bad.algorithm.collective(),
            });
        }
        Ok(table)
    }
}

/// One axis value on the log scale the nearest-bucket distance is taken in.
fn lg(x: u64) -> f64 {
    (x as f64).max(1.0).log2()
}

/// A job shape of the table, and which of [`TableIndex::cells`] are its.
#[derive(Debug, Clone)]
struct Shape {
    key: (u32, u32),
    lg: (f64, f64),
    cells: std::ops::Range<usize>,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    msg_size: u64,
    lg: f64,
    /// Position among the entries indexed: what breaks a distance tie.
    pos: usize,
    algorithm: Algorithm,
}

/// Table entries compiled once for lookup: shapes ascending by (nodes,
/// ppn), each with its message sizes ascending and every `lg` taken ahead
/// of time. It answers as a scan over the entries that keeps the first one
/// at the smallest distance, whatever their order; of the entries of a
/// repeated key only the first can ever answer, so only it is kept.
#[derive(Debug, Clone)]
pub struct TableIndex {
    shapes: Vec<Shape>,
    cells: Vec<Bucket>,
}

impl TableIndex {
    pub fn new(entries: &[TableEntry]) -> Self {
        let mut keyed: Vec<(usize, &TableEntry)> = entries.iter().enumerate().collect();
        // Stable, so of a repeated key `dedup` keeps the entry listed first.
        keyed.sort_by_key(|&(_, e)| e.key());
        keyed.dedup_by_key(|&mut (_, e)| e.key());
        let mut shapes = Vec::<Shape>::new();
        for (at, (_, e)) in keyed.iter().enumerate() {
            match shapes.last_mut() {
                Some(s) if s.key == (e.nodes, e.ppn) => s.cells.end += 1,
                _ => shapes.push(Shape {
                    key: (e.nodes, e.ppn),
                    lg: (lg(e.nodes.into()), lg(e.ppn.into())),
                    cells: at..at + 1,
                }),
            }
        }
        let cell = |&(pos, e): &(usize, &TableEntry)| Bucket {
            msg_size: e.msg_size,
            lg: lg(e.msg_size),
            pos,
            algorithm: e.algorithm,
        };
        let cells = keyed.iter().map(cell).collect();
        TableIndex { shapes, cells }
    }

    /// Distinct (nodes, ppn, message size) keys held.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Exact-match lookup: a binary search for the shape, one for the size.
    pub fn get(&self, nodes: u32, ppn: u32, msg_size: u64) -> Option<Algorithm> {
        let shape = self.shapes.binary_search_by_key(&(nodes, ppn), |s| s.key);
        let cells = &self.cells[self.shapes[shape.ok()?].cells.clone()];
        let cell = cells.binary_search_by_key(&msg_size, |c| c.msg_size);
        Some(cells[cell.ok()?].algorithm)
    }

    /// Nearest-bucket lookup: log-scale distance over (nodes, ppn, msg),
    /// with the job-shape dimensions weighted above message size so a query
    /// never jumps to a different machine scale just to match a size.
    /// Returns `None` only for an empty table.
    pub fn nearest(&self, nodes: u32, ppn: u32, msg_size: u64) -> Option<Algorithm> {
        let (lg_nodes, lg_ppn, lg_msg) = (lg(nodes.into()), lg(ppn.into()), lg(msg_size));
        // (distance, position, algorithm) of the nearest entry so far.
        let mut best = (f64::INFINITY, usize::MAX, None);
        for s in &self.shapes {
            let shape_d = 4.0 * (s.lg.0 - lg_nodes).abs() + 4.0 * (s.lg.1 - lg_ppn).abs();
            if shape_d > best.0 {
                continue;
            }
            // Within a shape the distance only grows away from the query's
            // size (`lg` never decreases as its argument grows): walk down
            // from the size below it (`step` −1; `get` of "−1" is `None`) and
            // up from the one above, each while the distance stays the first
            // step's — an earlier entry tied there wins.
            let cells = &self.cells[s.cells.clone()];
            let above = cells.partition_point(|c| c.msg_size < msg_size);
            for (mut i, step) in [(above.wrapping_sub(1), usize::MAX), (above, 1)] {
                let mut first = f64::INFINITY;
                while let Some(c) = cells.get(i) {
                    let d = shape_d + (c.lg - lg_msg).abs();
                    if d > first {
                        break;
                    }
                    if (d, c.pos) < (best.0, best.1) {
                        best = (d, c.pos, Some(c.algorithm));
                    }
                    (first, i) = (d, i.wrapping_add(step));
                }
            }
        }
        best.2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_collectives::{AllgatherAlgo, AlltoallAlgo};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The linear scans [`TableIndex`] replaced, kept as what it is held to.
    impl TuningTable {
        pub(crate) fn get(&self, nodes: u32, ppn: u32, msg_size: u64) -> Option<Algorithm> {
            self.entries
                .iter()
                .find(|e| e.nodes == nodes && e.ppn == ppn && e.msg_size == msg_size)
                .map(|e| e.algorithm)
        }

        pub(crate) fn lookup(&self, nodes: u32, ppn: u32, msg_size: u64) -> Option<Algorithm> {
            fn lg(x: f64) -> f64 {
                x.max(1.0).log2()
            }
            self.entries
                .iter()
                .map(|e| {
                    let d = 4.0 * (lg(e.nodes as f64) - lg(nodes as f64)).abs()
                        + 4.0 * (lg(e.ppn as f64) - lg(ppn as f64)).abs()
                        + (lg(e.msg_size as f64) - lg(msg_size as f64)).abs();
                    (d, e)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .map(|(_, e)| e.algorithm)
        }
    }

    fn table() -> TuningTable {
        let mut t = TuningTable::new("X", Collective::Alltoall);
        t.insert(2, 8, 64, Algorithm::Alltoall(AlltoallAlgo::Bruck))
            .unwrap();
        t.insert(2, 8, 65536, Algorithm::Alltoall(AlltoallAlgo::Pairwise))
            .unwrap();
        t.insert(16, 8, 64, Algorithm::Alltoall(AlltoallAlgo::ScatterDest))
            .unwrap();
        t
    }

    #[test]
    fn exact_and_nearest_lookup() {
        let t = TableIndex::new(table().entries());
        assert_eq!(
            t.get(2, 8, 64),
            Some(Algorithm::Alltoall(AlltoallAlgo::Bruck))
        );
        assert_eq!(t.get(2, 8, 100), None);
        // 100 bytes is nearest to the 64-byte bucket at the same shape.
        assert_eq!(
            t.nearest(2, 8, 100),
            Some(Algorithm::Alltoall(AlltoallAlgo::Bruck))
        );
        // Shape dominates: a 16-node query at small size picks the 16-node row.
        assert_eq!(
            t.nearest(16, 8, 256),
            Some(Algorithm::Alltoall(AlltoallAlgo::ScatterDest))
        );
    }

    #[test]
    fn insert_replaces() {
        let mut t = table();
        t.insert(2, 8, 64, Algorithm::Alltoall(AlltoallAlgo::Inplace))
            .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(
            TableIndex::new(t.entries()).get(2, 8, 64),
            Some(Algorithm::Alltoall(AlltoallAlgo::Inplace))
        );
    }

    #[test]
    fn cross_collective_insert_rejected() {
        let mut t = table();
        let err = t
            .insert(1, 1, 1, Algorithm::Allgather(AllgatherAlgo::Ring))
            .unwrap_err();
        assert!(err.to_string().contains("collective mismatch"), "{err}");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn cross_collective_json_rejected() {
        // A table whose declared collective disagrees with its entries must
        // not deserialize into an inconsistent value.
        let t = table();
        let json = t
            .to_json()
            .unwrap()
            .replace("\"Alltoall\",", "\"Allgather\",");
        assert_ne!(json, t.to_json().unwrap(), "collective field not found");
        assert!(TuningTable::from_json(&json).is_err());
    }

    #[test]
    fn json_roundtrip() {
        let t = table();
        let back = TuningTable::from_json(&t.to_json().unwrap()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_table_lookup_is_none() {
        let t = TableIndex::new(TuningTable::new("X", Collective::Allgather).entries());
        assert_eq!(t.nearest(1, 1, 1), None);
    }

    /// A table over the product of three axes, the algorithm changing
    /// from each cell to the next so that a wrong neighbour shows.
    fn product(nodes: &[u32], ppn: &[u32], msg: &[u64]) -> TuningTable {
        let algos = Algorithm::all_for(Collective::Alltoall);
        let mut t = TuningTable::new("X", Collective::Alltoall);
        for (&n, &p) in nodes.iter().flat_map(|n| ppn.iter().map(move |p| (n, p))) {
            for &m in msg {
                t.insert(n, p, m, algos[t.len() % algos.len()]).unwrap();
            }
        }
        t
    }

    /// Hold the index to the scans on the table's own keys, on the worlds
    /// `tests/selector_totality.rs` sweeps along each axis, and on seeded
    /// queries spread evenly on the log scale, zero and huge values included.
    fn assert_index_is_the_scan(t: &TuningTable) {
        let index = TableIndex::new(t.entries());
        let check = |n: u32, p: u32, m: u64| {
            assert_eq!(index.get(n, p, m), t.get(n, p, m), "get({n}, {p}, {m})");
            let nearest = index.nearest(n, p, m);
            assert_eq!(nearest, t.lookup(n, p, m), "nearest({n}, {p}, {m})");
        };
        for e in t.entries() {
            check(e.nodes, e.ppn, e.msg_size);
        }
        let few = [1u32, 2, 8, 32, 1000];
        for w in (1..=64).chain([96, 100, 127, 128, 255, 256, 509, 896, 1024, 4096, 65536]) {
            for (a, b) in few.iter().flat_map(|&a| few.map(|b| (a, b))) {
                check(w, a, b.into());
                check(a, w, b.into());
                check(a, b, w.into());
            }
        }
        let mut rng = StdRng::seed_from_u64(24);
        let mut draw =
            |bits: u32| rng.gen_range(-1.0..f64::from(bits)).exp2() as u64 + rng.gen_range(0u64..2);
        for _ in 0..20_000 {
            check(draw(12) as u32, draw(9) as u32, draw(40));
        }
    }

    #[test]
    fn index_answers_what_the_scan_answers() {
        let sizes: Vec<u64> = (0..=20).map(|k| 1 << k).collect();
        let grid = product(&[1, 2, 4, 8, 16], &[1, 4, 16, 28, 56], &sizes);
        assert_index_is_the_scan(&grid);

        // A union of two products, as `deploy_cold` ships. Two pairs of the
        // big layout's sizes are one point each on the log scale (0 and 1;
        // 2^60 and the next integer), the farther of each pair listed first.
        let mut union = product(&[1, 2, 4], &[8], &[16, 1024, 65536]);
        let algos = Algorithm::all_for(Collective::Alltoall);
        for (m, a) in [0, 1, 100, (1 << 60) + 1, 1 << 60].into_iter().zip(algos) {
            union.insert(61, 4, m, *a).unwrap();
        }
        assert_index_is_the_scan(&union);

        // Unnormalised, and queries at the geometric midpoint of two grid
        // values are exact ties — (2, 8, 32) on all three axes at once,
        // eight cells equally near: the entry listed first answers. So it
        // does for a repeated key, which the wire format allows.
        let mut tied = product(&[1, 4, 16, 64], &[1, 4, 16, 64], &[1, 4, 16, 64]);
        for e in &tied.clone().entries[..5] {
            let algorithm = algos[(e.algorithm.index() + 1) % algos.len()];
            tied.entries.push(TableEntry { algorithm, ..*e });
        }
        let mut firsts = std::collections::BTreeSet::new();
        for seed in 0..8 {
            tied.entries.shuffle(&mut StdRng::seed_from_u64(seed));
            assert_index_is_the_scan(&tied);
            let index = TableIndex::new(tied.entries());
            assert_eq!(index.len(), tied.len() - 5);
            firsts.insert((index.nearest(2, 8, 32), index.get(1, 1, 1)));
        }
        assert!(firsts.len() > 2, "the order of a table decides its ties");

        assert_index_is_the_scan(&product(&[4], &[8], &[1024]));
        assert_index_is_the_scan(&TuningTable::new("X", Collective::Alltoall));
    }
}
