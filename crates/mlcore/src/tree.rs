//! CART decision trees: a Gini classification tree (the building block of
//! the Random Forest) and an MSE regression tree (the weak learner of
//! Table II's gradient boosting, in `pml-bench`).
//!
//! Both tree kinds share a flattened struct-of-arrays node store
//! ([`TreeNodes`]) — parallel `feature`/`threshold`/`children` arrays plus
//! one contiguous leaf-payload arena — so descent touches three small hot
//! arrays instead of chasing an enum per node, and prediction never
//! allocates. Both grow through one histogram grower ([`grow`]) over a
//! [`BinnedMatrix`], which scores every candidate split of a feature from
//! one O(n) counting pass; only their [`Criterion`] differs. The sort-based
//! search it replaced survives as a test-only oracle (`tree/oracle.rs`); on
//! lossless binnings both choose identical splits (see the equivalence
//! tests at the bottom of this file).

use crate::binned::{BinnedMatrix, MAX_BINS};
use crate::matrix::Matrix;
use crate::verify::StructureIssue;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{DeError, Deserialize, Serialize};
use serde_json::{Reader, Writer};

/// How many candidate features each split considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaxFeatures {
    /// Every feature (plain CART).
    All,
    /// ⌈√d⌉ random features — the Random Forest default.
    Sqrt,
    /// Exactly this many random features (at least one, at most d).
    Count(usize),
}

impl MaxFeatures {
    fn resolve(self, d: usize) -> usize {
        match self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Count(k) => k.max(1).min(d),
        }
    }
}

/// Growth limits shared by both tree kinds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    pub max_depth: Option<usize>,
    pub min_samples_split: usize,
    pub min_samples_leaf: usize,
    pub max_features: MaxFeatures,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

/// Sentinel in the `feature` array marking a leaf node.
pub(crate) const LEAF: u16 = u16::MAX;

/// Struct-of-arrays node storage shared by both tree kinds.
///
/// Node `i` is a split when `feature[i] != LEAF`: its children are
/// `children[2i]` (left, `row[feature] <= threshold`) and
/// `children[2i + 1]` (right). A leaf stores the offset of its payload in
/// the `leaf_values` arena in `children[2i]`; the payload length is fixed
/// per tree kind (`n_classes` probabilities, or one mean).
#[derive(Debug, Clone, PartialEq, Default)]
struct TreeNodes {
    feature: Vec<u16>,
    threshold: Vec<f64>,
    children: Vec<u32>,
    leaf_values: Vec<f64>,
}

impl TreeNodes {
    fn len(&self) -> usize {
        self.feature.len()
    }

    /// Append a leaf whose payload is `sums` divided by the node's sample
    /// count `n`: class shares from class counts, or a mean from a sum.
    fn push_leaf(&mut self, sums: &[f64], n: f64) -> u32 {
        debug_assert!(self.leaf_values.len() < u32::MAX as usize - sums.len());
        debug_assert!(self.feature.len() < u32::MAX as usize);
        let off = self.leaf_values.len() as u32;
        self.leaf_values.extend(sums.iter().map(|s| s / n));
        self.feature.push(LEAF);
        self.threshold.push(0.0);
        self.children.extend([off, 0]);
        (self.feature.len() - 1) as u32
    }

    /// Reserve a node slot before growing its children (the recursion
    /// numbers nodes pre-order, so the slot must exist first).
    fn push_placeholder(&mut self) -> u32 {
        debug_assert!(self.feature.len() < u32::MAX as usize);
        self.feature.push(LEAF);
        self.threshold.push(0.0);
        self.children.extend([0, 0]);
        (self.feature.len() - 1) as u32
    }

    fn set_split(&mut self, i: u32, feature: usize, threshold: f64, left: u32, right: u32) {
        debug_assert!(feature < LEAF as usize, "feature index must fit u16");
        let i = i as usize;
        self.feature[i] = feature as u16;
        self.threshold[i] = threshold;
        self.children[2 * i] = left;
        self.children[2 * i + 1] = right;
    }

    /// Walk from the root and return the reached leaf's payload slice.
    #[inline]
    fn descend(&self, row: &[f64], leaf_len: usize) -> &[f64] {
        let mut i = 0usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                let off = self.children[2 * i] as usize;
                return &self.leaf_values[off..off + leaf_len];
            }
            let go_right = row[f as usize] > self.threshold[i];
            i = self.children[2 * i + usize::from(go_right)] as usize;
        }
    }

    fn depth_from(&self, i: usize) -> usize {
        if self.feature[i] == LEAF {
            0
        } else {
            let l = self.depth_from(self.children[2 * i] as usize);
            let r = self.depth_from(self.children[2 * i + 1] as usize);
            1 + l.max(r)
        }
    }
}

/// Reusable per-worker buffers for binned tree growth, so a rayon worker
/// fitting many trees allocates its index/partition/histogram storage once.
#[derive(Debug, Default)]
pub struct TreeScratch {
    /// Row indices of the tree being grown, recursively partitioned in
    /// place — each node owns a `[lo, hi)` window of this buffer.
    rows: Vec<u32>,
    /// Spill buffer for a stable in-place partition, one slot a sampled row.
    part: Vec<u32>,
    /// The criterion's slots per bin, all zero between feature passes: a
    /// pass fills, scans and zeroes only its node's occupied bin range.
    /// Most features bin to 1–21 bins, but the analytic-cost ones to
    /// 149–242, more than a deep node has rows to fill.
    hist: Vec<f64>,
    /// Candidate feature indices for the current node.
    feats: Vec<usize>,
}

// ---------------------------------------------------------------------------
// Growth: one grower, two criteria
// ---------------------------------------------------------------------------

/// What tells a Gini classification tree from an MSE regression tree. It
/// sums `stride` slots per row — over a bin in the histogram, over a node
/// in its `totals` — and scores a boundary from totals and left-side slots.
trait Criterion {
    /// One row's target, gathered per node so every histogram pass streams
    /// it instead of re-reading `y` at random.
    type Target: Copy;
    /// How far a decrease must beat the best so far (or zero) to replace it.
    const EPS: f64;
    fn stride(&self) -> usize;
    fn target(&self, row: u32) -> Self::Target;
    /// One row's histogram update: add target `t` to the slots of `bin`.
    fn add_row(&self, hist: &mut [f64], bin: usize, t: Self::Target);
    /// The node's impurity, or `None` when it is pure and so a leaf.
    fn impurity(totals: &[f64], n: usize) -> Option<f64>;
    /// How many samples one bin's slots hold.
    fn count(slots: &[f64]) -> f64;
    /// The impurity decrease of a boundary with `nl` samples left, `nr` right.
    fn decrease(impurity: f64, totals: &[f64], left: &[f64], nl: usize, nr: usize) -> f64;
    /// The slots whose means over the node's samples are its leaf payload.
    fn leaf(totals: &[f64]) -> &[f64];
}

/// What one tree's recursion shares.
struct Grower<'a, C: Criterion> {
    b: &'a BinnedMatrix,
    params: &'a TreeParams,
    rng: &'a mut StdRng,
    scratch: &'a mut TreeScratch,
    crit: C,
    /// Live from a node's entry to its recursion: its targets and totals.
    targets: Vec<C::Target>,
    totals: Vec<f64>,
    left: Vec<f64>,
    nodes: TreeNodes,
    raw_importance: Vec<f64>,
}

/// Grow one tree over `rows` (indices into the binned matrix, duplicates
/// allowed): its node store and unnormalized importances.
fn grow<C: Criterion>(
    b: &BinnedMatrix,
    rows: &[u32],
    params: &TreeParams,
    rng: &mut StdRng,
    scratch: &mut TreeScratch,
    crit: C,
) -> (TreeNodes, Vec<f64>) {
    debug_assert!(!rows.is_empty(), "cannot fit on an empty sample");
    debug_assert!(rows.iter().all(|&r| (r as usize) < b.rows()));
    debug_assert!(b.cols() < LEAF as usize, "feature index must fit u16");
    let s = crit.stride();
    scratch.rows.clear();
    scratch.rows.extend_from_slice(rows);
    scratch.part.resize(rows.len(), 0);
    // All zero already: every feature pass clears the bins it filled.
    scratch.hist.resize(MAX_BINS as usize * s, 0.0);
    let mut g = Grower {
        b,
        params,
        rng,
        scratch,
        crit,
        targets: Vec::new(),
        totals: vec![0.0; s],
        left: vec![0.0; s],
        nodes: TreeNodes::default(),
        raw_importance: vec![0.0; b.cols()],
    };
    g.node(0, rows.len(), 0);
    (g.nodes, g.raw_importance)
}

impl<C: Criterion> Grower<'_, C> {
    /// Grow the node over `scratch.rows[lo..hi]` and its subtree.
    fn node(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let n = hi - lo;
        let (crit, scratch, targets) = (&self.crit, &mut *self.scratch, &mut self.targets);
        let rows = &mut scratch.rows;
        targets.clear();
        targets.extend(rows[lo..hi].iter().map(|&r| crit.target(r)));
        self.totals.fill(0.0);
        for &t in targets.iter() {
            crit.add_row(&mut self.totals, 0, t);
        }
        let depth_stop = self.params.max_depth.is_some_and(|d| depth >= d);
        let impurity = match C::impurity(&self.totals, n) {
            Some(imp) if n >= self.params.min_samples_split && !depth_stop => imp,
            _ => return self.nodes.push_leaf(C::leaf(&self.totals), n as f64),
        };

        // Feature subset: same RNG consumption as the sort-based oracle, so
        // both draw identical subsets at every node.
        let d = self.b.cols();
        let k = self.params.max_features.resolve(d);
        let feats = &mut scratch.feats;
        feats.clear();
        feats.extend(0..d);
        if k < d {
            feats.shuffle(self.rng);
            feats.truncate(k);
            feats.sort_unstable();
        }

        let s = crit.stride();
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<(usize, usize, f64)> = None; // (feature, bin, decrease)
        for &f in feats.iter() {
            let nb = self.b.n_bins(f);
            if nb < 2 {
                continue;
            }
            let col = self.b.column(f);
            let hist = &mut scratch.hist[..nb * s];
            let (mut first, mut last) = (u8::MAX, 0u8);
            for (&r, &t) in rows[lo..hi].iter().zip(targets.iter()) {
                let bin = col[r as usize];
                (first, last) = (first.min(bin), last.max(bin));
                crit.add_row(hist, bin as usize, t);
            }
            let (first, last) = (first as usize, last as usize);
            // Prefix-scan the occupied bins ascending. An empty bin changes
            // neither side nor the partition, so the boundary after it is no
            // candidate (as in the oracle); nor is the one after the last.
            self.left.fill(0.0);
            let mut nl = 0usize;
            for bin in first..last {
                let slots = &hist[bin * s..(bin + 1) * s];
                let in_bin = C::count(slots);
                if in_bin == 0.0 {
                    continue;
                }
                for (l, v) in self.left.iter_mut().zip(slots) {
                    *l += v;
                }
                nl += in_bin as usize;
                let nr = n - nl;
                if nl < min_leaf || nr < min_leaf {
                    continue;
                }
                let decrease = C::decrease(impurity, &self.totals, &self.left, nl, nr);
                if best.map_or(decrease > C::EPS, |(_, _, bd)| decrease > bd + C::EPS) {
                    best = Some((f, bin, decrease));
                }
            }
            hist[first * s..(last + 1) * s].fill(0.0);
        }

        let Some((feature, bin, decrease)) = best else {
            return self.nodes.push_leaf(C::leaf(&self.totals), n as f64);
        };
        self.raw_importance[feature] += (n as f64 / rows.len() as f64) * decrease;
        let threshold = self.b.threshold(feature, bin);

        // Stable in-place partition of this node's index window, branch-free:
        // each row goes both to the left cursor (never ahead of the read one)
        // and to the spill buffer, and only its own side's cursor advances.
        let (col, part) = (self.b.column(feature), &mut scratch.part);
        let (mut mid, mut spilled) = (lo, 0);
        for read in lo..hi {
            let r = rows[read];
            let left = usize::from(col[r as usize] as usize <= bin);
            rows[mid] = r;
            part[spilled] = r;
            mid += left;
            spilled += 1 - left;
        }
        rows[mid..hi].copy_from_slice(&part[..spilled]);

        let me = self.nodes.push_placeholder();
        let left = self.node(lo, mid, depth + 1);
        let right = self.node(mid, hi, depth + 1);
        self.nodes.set_split(me, feature, threshold, left, right);
        me
    }
}

// ---------------------------------------------------------------------------
// Serialization: versioned, hand-rolled, streamed
//
// A tree is written as its SoA arrays under a `"version"` key and read back
// array by array (`DecisionTree::{write_json, read_json}`), each number
// going between the text and its typed vector with no `serde::Value` in
// between; the tests hold both to the `Value`-tree reader and printer in
// `tree/value_oracle.rs`. A tree without `"version"` is not read.
// ---------------------------------------------------------------------------

/// Parse-shape consistency only: the parallel arrays must agree on the
/// node count. Deeper structural invariants (child bounds, topological
/// order, arena layout, leaf simplices) are the typed [`verify_nodes`]
/// pass — deserialization is the wrong layer to diagnose corruption, and
/// every artifact load path runs `verify` before descending a node.
fn validate_nodes(nodes: &TreeNodes) -> Result<(), DeError> {
    let n = nodes.len();
    if nodes.threshold.len() != n || nodes.children.len() != 2 * n {
        return Err(DeError(format!(
            "inconsistent node arrays: {n} features, {} thresholds, {} children",
            nodes.threshold.len(),
            nodes.children.len()
        )));
    }
    Ok(())
}

/// Prove every structural invariant of a node store: parallel-array
/// consistency, child indices in-bounds and strictly parent-before-child
/// (which rules out cycles and guarantees descent terminates), every
/// non-root node referenced exactly once, leaf sentinel slots zeroed, leaf
/// payloads laid out contiguously in node order, and each leaf a
/// probability distribution within 1e-6.
fn verify_nodes(
    nodes: &TreeNodes,
    leaf_len: usize,
    n_features: usize,
) -> Result<(), StructureIssue> {
    const EPS: f64 = 1e-6;
    let n = nodes.len();
    if nodes.threshold.len() != n || nodes.children.len() != 2 * n {
        return Err(StructureIssue::Shape(format!(
            "{n} features, {} thresholds, {} children",
            nodes.threshold.len(),
            nodes.children.len()
        )));
    }
    if n == 0 {
        return Err(StructureIssue::Empty);
    }
    let mut refs = vec![0u8; n];
    let mut next_leaf_off = 0usize;
    for i in 0..n {
        if nodes.feature[i] == LEAF {
            if nodes.children[2 * i + 1] != 0 {
                return Err(StructureIssue::BadLeafSentinel { node: i });
            }
            let off = nodes.children[2 * i] as usize;
            if off != next_leaf_off {
                return Err(StructureIssue::ArenaMismatch {
                    node: i,
                    offset: off,
                    expected: next_leaf_off,
                });
            }
            next_leaf_off += leaf_len;
            if next_leaf_off > nodes.leaf_values.len() {
                return Err(StructureIssue::ArenaLength {
                    expected: next_leaf_off,
                    actual: nodes.leaf_values.len(),
                });
            }
            let payload = &nodes.leaf_values[off..off + leaf_len];
            for &v in payload {
                if !(-EPS..=1.0 + EPS).contains(&v) {
                    return Err(StructureIssue::LeafValueOutOfRange { node: i, value: v });
                }
            }
            let sum: f64 = payload.iter().sum();
            if (sum - 1.0).abs() > EPS {
                return Err(StructureIssue::NotSimplex { node: i, sum });
            }
        } else {
            let f = nodes.feature[i] as usize;
            if f >= n_features {
                return Err(StructureIssue::FeatureOutOfRange {
                    node: i,
                    feature: f,
                    n_features,
                });
            }
            for &c in &nodes.children[2 * i..2 * i + 2] {
                let c = c as usize;
                if c >= n {
                    return Err(StructureIssue::ChildOutOfBounds {
                        node: i,
                        child: c,
                        n_nodes: n,
                    });
                }
                if c <= i {
                    return Err(StructureIssue::OrderViolation { node: i, child: c });
                }
                refs[c] = refs[c].saturating_add(1);
            }
        }
    }
    if next_leaf_off != nodes.leaf_values.len() {
        return Err(StructureIssue::ArenaLength {
            expected: next_leaf_off,
            actual: nodes.leaf_values.len(),
        });
    }
    for (i, &r) in refs.iter().enumerate().skip(1) {
        match r {
            1 => {}
            0 => return Err(StructureIssue::UnreachableNode { node: i }),
            _ => return Err(StructureIssue::MultiParent { node: i }),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// Gini-impurity CART classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: TreeNodes,
    n_classes: usize,
    /// Unnormalized Gini-decrease importance per feature.
    raw_importance: Vec<f64>,
}

fn gini(counts: impl IntoIterator<Item = f64>, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts
        .into_iter()
        .map(|c| (c / total) * (c / total))
        .sum::<f64>()
}

/// Per-class counts in each bin, Gini decrease, a leaf of class shares.
struct Gini<'a> {
    y: &'a [usize],
    n_classes: usize,
}

impl Criterion for Gini<'_> {
    type Target = u32;
    const EPS: f64 = 1e-12;

    fn stride(&self) -> usize {
        self.n_classes
    }

    fn target(&self, row: u32) -> u32 {
        let label = self.y[row as usize];
        debug_assert!(label < self.n_classes, "validated at the fit boundary");
        label as u32
    }

    fn add_row(&self, hist: &mut [f64], bin: usize, lab: u32) {
        hist[bin * self.n_classes + lab as usize] += 1.0;
    }

    fn impurity(counts: &[f64], n: usize) -> Option<f64> {
        Some(gini(counts.iter().copied(), n as f64)).filter(|&g| g != 0.0)
    }

    fn count(slots: &[f64]) -> f64 {
        slots.iter().sum()
    }

    fn decrease(impurity: f64, counts: &[f64], left: &[f64], nl: usize, nr: usize) -> f64 {
        let right = counts.iter().zip(left).map(|(c, l)| c - l);
        let w_impurity = (nl as f64 * gini(left.iter().copied(), nl as f64)
            + nr as f64 * gini(right, nr as f64))
            / (nl + nr) as f64;
        impurity - w_impurity
    }

    fn leaf(counts: &[f64]) -> &[f64] {
        counts
    }
}

impl DecisionTree {
    /// Append the tree to `w` as one object, keys in the order (and numbers
    /// in the form) the derived printer gave them.
    pub(crate) fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.key("version");
        w.value(&2u64);
        w.key("feature");
        w.numbers(&self.nodes.feature);
        w.key("threshold");
        w.numbers(&self.nodes.threshold);
        w.key("children");
        w.numbers(&self.nodes.children);
        w.key("leaf_values");
        w.numbers(&self.nodes.leaf_values);
        w.key("n_classes");
        w.value(&self.n_classes);
        w.key("raw_importance");
        w.numbers(&self.raw_importance);
        w.end_object();
    }

    /// How many numbers [`Self::write_json`] writes, to size the buffer by.
    pub(crate) fn json_numbers(&self) -> usize {
        4 * self.nodes.len() + self.nodes.leaf_values.len() + self.raw_importance.len()
    }

    /// Read the tree object `r` stands at: keys in any order, the first
    /// occurrence of each taken, unknown ones skipped. Parse shape only —
    /// see [`validate_nodes`].
    pub(crate) fn read_json(r: &mut Reader<'_>) -> Result<Self, serde_json::Error> {
        let mut versioned = false;
        let (mut feature, mut threshold, mut children) = (None, None, None);
        let (mut leaf_values, mut n_classes, mut raw_importance) = (None, None, None);
        r.object(|r, key| match &*key {
            "version" => {
                versioned = true;
                r.skip_value()
            }
            "feature" => r.once(&mut feature, Reader::numbers),
            "threshold" => r.once(&mut threshold, Reader::numbers),
            "children" => r.once(&mut children, Reader::numbers),
            "leaf_values" => r.once(&mut leaf_values, Reader::numbers),
            "n_classes" => r.once(&mut n_classes, Reader::number::<usize>),
            "raw_importance" => r.once(&mut raw_importance, Reader::numbers),
            _ => r.skip_value(),
        })?;
        if !versioned {
            return Err(serde_json::Error::custom(
                "missing field `version`: not an SoA tree (the per-node `nodes` layout \
                 written before it is unsupported — this build no longer migrates it)",
            ));
        }
        let n_classes = serde_json::required(n_classes, "n_classes")?;
        if n_classes == 0 {
            return Err(serde_json::Error::custom("n_classes must be at least 1"));
        }
        let nodes = TreeNodes {
            feature: serde_json::required(feature, "feature")?,
            threshold: serde_json::required(threshold, "threshold")?,
            children: serde_json::required(children, "children")?,
            leaf_values: serde_json::required(leaf_values, "leaf_values")?,
        };
        validate_nodes(&nodes).map_err(serde_json::Error::custom)?;
        Ok(DecisionTree {
            nodes,
            n_classes,
            raw_importance: serde_json::required(raw_importance, "raw_importance")?,
        })
    }

    /// Fit over `rows` (indices into the shared binned matrix, duplicates
    /// allowed — a bootstrap sample) with histogram split finding. No row
    /// data is copied; `scratch` buffers are reused across fits.
    pub fn fit_binned(
        b: &BinnedMatrix,
        y: &[usize],
        rows: &[u32],
        n_classes: usize,
        params: &TreeParams,
        rng: &mut StdRng,
        scratch: &mut TreeScratch,
    ) -> Self {
        debug_assert!(n_classes >= 1);
        let gini = Gini { y, n_classes };
        let (nodes, raw_importance) = grow(b, rows, params, rng, scratch, gini);
        DecisionTree {
            nodes,
            n_classes,
            raw_importance,
        }
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the deepest leaf.
    pub fn depth(&self) -> usize {
        if self.nodes.len() == 0 {
            0
        } else {
            self.nodes.depth_from(0)
        }
    }

    /// Borrowed class-probability slice for one sample — the zero-copy
    /// descent the forest's batched kernels build on.
    #[inline]
    pub fn predict_proba_slice(&self, row: &[f64]) -> &[f64] {
        self.nodes.descend(row, self.n_classes)
    }

    pub fn predict_row(&self, row: &[f64]) -> usize {
        argmax(self.predict_proba_slice(row))
    }

    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        (0..x.rows()).map(|i| self.predict_row(x.row(i))).collect()
    }

    /// Unnormalized accumulated Gini decrease per feature (the forest sums
    /// these across trees before normalizing).
    pub fn raw_importance(&self) -> &[f64] {
        &self.raw_importance
    }

    /// Normalized feature importance (sums to 1 when any split exists).
    pub fn feature_importances(&self) -> Vec<f64> {
        normalize(self.raw_importance.clone())
    }

    /// Prove the tree's structural invariants (see [`verify_nodes`]),
    /// including the per-leaf probability simplex. Deserialization only
    /// checks parse shape — call this before predicting on a tree that
    /// crossed a trust boundary.
    pub fn verify(&self) -> Result<(), StructureIssue> {
        verify_nodes(&self.nodes, self.n_classes, self.raw_importance.len())
    }

    /// Borrow the SoA node arrays — `(feature, threshold, children,
    /// leaf_values)` — for the compiled-forest builder. Leaves are marked
    /// by [`LEAF`] in `feature` and store their arena offset in
    /// `children[2i]`.
    pub(crate) fn soa(&self) -> (&[u16], &[f64], &[u32], &[f64]) {
        (
            &self.nodes.feature,
            &self.nodes.threshold,
            &self.nodes.children,
            &self.nodes.leaf_values,
        )
    }
}

// ---------------------------------------------------------------------------
// Regression
// ---------------------------------------------------------------------------

/// MSE (variance-reduction) CART regressor, the gradient-boosting weak
/// learner.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: TreeNodes,
}

/// (count, sum, sum²) of the targets in each bin, variance decrease, a
/// leaf of the mean target.
struct Mse<'a>(&'a [f64]);

impl Criterion for Mse<'_> {
    type Target = f64;
    const EPS: f64 = 1e-15;

    fn stride(&self) -> usize {
        3
    }

    fn target(&self, row: u32) -> f64 {
        self.0[row as usize]
    }

    fn add_row(&self, hist: &mut [f64], bin: usize, t: f64) {
        let base = bin * 3;
        hist[base] += 1.0;
        hist[base + 1] += t;
        hist[base + 2] += t * t;
    }

    fn impurity(totals: &[f64], n: usize) -> Option<f64> {
        let (sum, sum2, n) = (totals[1], totals[2], n as f64);
        // `max` maps a NaN to 0, so `var` is never NaN.
        Some((sum2 - sum * sum / n).max(0.0) / n).filter(|&var| var > 1e-18)
    }

    fn count(slots: &[f64]) -> f64 {
        slots[0]
    }

    fn decrease(var: f64, totals: &[f64], left: &[f64], nl: usize, nr: usize) -> f64 {
        let (lsum, lsum2) = (left[1], left[2]);
        let (rsum, rsum2) = (totals[1] - lsum, totals[2] - lsum2);
        let (nl, nr) = (nl as f64, nr as f64);
        let sse = (lsum2 - lsum * lsum / nl) + (rsum2 - rsum * rsum / nr);
        var - sse / (nl + nr)
    }

    fn leaf(totals: &[f64]) -> &[f64] {
        &totals[1..2]
    }
}

impl RegressionTree {
    /// Fit over `rows` (indices into the shared binned matrix) with
    /// histogram split finding; `y` is indexed by original row id.
    pub fn fit_binned(
        b: &BinnedMatrix,
        y: &[f64],
        rows: &[u32],
        params: &TreeParams,
        rng: &mut StdRng,
        scratch: &mut TreeScratch,
    ) -> Self {
        let (nodes, _) = grow(b, rows, params, rng, scratch, Mse(y));
        RegressionTree { nodes }
    }

    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.nodes.descend(row, 1).first().copied().unwrap_or(0.0)
    }
}

/// Index of the maximum element (first wins ties).
pub fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Normalize a non-negative vector to sum 1 (identity on all-zero input).
pub fn normalize(mut v: Vec<f64>) -> Vec<f64> {
    let s: f64 = v.iter().sum();
    if s > 0.0 {
        for x in &mut v {
            *x /= s;
        }
    }
    v
}

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod value_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    /// Grow a classification tree over every row of `x` with the shipped
    /// histogram kernel.
    fn fit_tree(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> DecisionTree {
        let b = BinnedMatrix::from_matrix(x, MAX_BINS);
        let rows: Vec<u32> = (0..x.rows() as u32).collect();
        let mut scratch = TreeScratch::default();
        DecisionTree::fit_binned(&b, y, &rows, n_classes, params, rng, &mut scratch)
    }

    /// Regression twin of [`fit_tree`].
    fn fit_reg(x: &Matrix, y: &[f64], params: &TreeParams, rng: &mut StdRng) -> RegressionTree {
        let b = BinnedMatrix::from_matrix(x, MAX_BINS);
        let rows: Vec<u32> = (0..x.rows() as u32).collect();
        let mut scratch = TreeScratch::default();
        RegressionTree::fit_binned(&b, y, &rows, params, rng, &mut scratch)
    }

    /// Two clearly separable blobs.
    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let j = i as f64 * 0.01;
            rows.push(vec![j, 1.0 + j]);
            y.push(0);
            rows.push(vec![5.0 + j, 6.0 + j]);
            y.push(1);
        }
        (Matrix::from_rows(rows), y)
    }

    #[test]
    fn fits_separable_data_perfectly() {
        let (x, y) = blobs();
        let t = fit_tree(&x, &y, 2, &TreeParams::default(), &mut rng());
        assert_eq!(t.predict(&x), y);
        assert!(t.depth() >= 1);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = Matrix::from_rows([[1.0], [2.0], [3.0]]);
        let y = vec![1, 1, 1];
        let t = fit_tree(&x, &y, 2, &TreeParams::default(), &mut rng());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_proba_slice(&[5.0]), [0.0, 1.0]);
    }

    #[test]
    fn max_depth_limits_growth() {
        let (x, y) = blobs();
        let params = TreeParams {
            max_depth: Some(1),
            ..Default::default()
        };
        let t = fit_tree(&x, &y, 2, &params, &mut rng());
        assert!(t.depth() <= 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x = Matrix::from_rows([[0.0], [1.0], [2.0], [3.0]]);
        let y = vec![0, 0, 0, 1];
        let params = TreeParams {
            min_samples_leaf: 2,
            ..Default::default()
        };
        let t = fit_tree(&x, &y, 2, &params, &mut rng());
        // Only split leaving >= 2 on each side is between index 1 and 2.
        if t.nodes.feature[0] != LEAF {
            assert!((1.0..2.0).contains(&t.nodes.threshold[0]));
        }
    }

    #[test]
    fn importances_sum_to_one_and_pick_informative_feature() {
        // Feature 1 is informative, feature 0 is constant.
        let x = Matrix::from_rows([[7.0, 0.0], [7.0, 1.0], [7.0, 10.0], [7.0, 11.0]]);
        let y = vec![0, 0, 1, 1];
        let t = fit_tree(&x, &y, 2, &TreeParams::default(), &mut rng());
        let imp = t.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(imp[0], 0.0);
        assert!((imp[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs();
        let params = TreeParams {
            max_features: MaxFeatures::Count(1),
            ..Default::default()
        };
        let a = fit_tree(&x, &y, 2, &params, &mut StdRng::seed_from_u64(9));
        let b = fit_tree(&x, &y, 2, &params, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let x = Matrix::from_rows([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]]);
        let y = vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0];
        let t = fit_reg(&x, &y, &TreeParams::default(), &mut rng());
        assert!((t.predict_row(&[1.5]) - 1.0).abs() < 1e-9);
        assert!((t.predict_row(&[11.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn regression_tree_constant_target_single_leaf() {
        let x = Matrix::from_rows([[0.0], [1.0], [2.0]]);
        let y = vec![3.0, 3.0, 3.0];
        let t = fit_reg(&x, &y, &TreeParams::default(), &mut rng());
        assert_eq!(t.nodes.len(), 1);
        assert_eq!(t.predict_row(&[9.0]), 3.0);
    }

    #[test]
    fn tree_serde_roundtrip() {
        let (x, y) = blobs();
        let t = fit_tree(&x, &y, 2, &TreeParams::default(), &mut rng());
        let json = serde_json::to_string(&t).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn corrupt_artifacts_are_rejected_not_panics() {
        // The streamed reader and the `Value`-tree oracle, which must agree.
        let read = |json: &str| {
            let mut r = Reader::new(json);
            let tree = DecisionTree::read_json(&mut r).and_then(|t| r.end().map(|()| t));
            assert_eq!(tree.as_ref().ok(), serde_json::from_str(json).ok().as_ref());
            tree
        };
        // Leaf payload length mismatching n_classes, and a split child out
        // of range: both parse (the arrays agree on the node count), and
        // the typed verify pass names the corruption before any descent.
        let bad_leaf = r#"{"version": 2, "feature": [65535], "threshold": [0.0],
                           "children": [0, 0], "leaf_values": [1.0],
                           "n_classes": 2, "raw_importance": []}"#;
        assert_eq!(
            read(bad_leaf).unwrap().verify(),
            Err(StructureIssue::ArenaLength {
                expected: 2,
                actual: 1
            })
        );
        let bad_child = r#"{"version": 2, "feature": [0], "threshold": [0.0],
                            "children": [7, 8], "leaf_values": [],
                            "n_classes": 2, "raw_importance": [0.5]}"#;
        assert!(matches!(
            read(bad_child).unwrap().verify(),
            Err(StructureIssue::ChildOutOfBounds {
                node: 0,
                child: 7,
                n_nodes: 1
            })
        ));
        // Arrays of inconsistent lengths.
        let bad_soa = r#"{"version": 2, "feature": [65535], "threshold": [],
                          "children": [0, 0], "leaf_values": [0.5, 0.5],
                          "n_classes": 2, "raw_importance": []}"#;
        assert!(read(bad_soa).is_err());
    }

    /// Exercise `verify` against one hand-built violation per invariant
    /// class, and confirm a fitted tree verifies clean.
    #[test]
    fn verify_catches_each_structural_corruption() {
        let (x, y) = blobs();
        let t = fit_tree(&x, &y, 2, &TreeParams::default(), &mut rng());
        assert_eq!(t.verify(), Ok(()));

        let corrupt = |f: &dyn Fn(&mut DecisionTree)| {
            let mut bad = t.clone();
            f(&mut bad);
            bad.verify().unwrap_err()
        };
        assert!(matches!(
            corrupt(&|b| b.nodes.children[0] = 10_000),
            StructureIssue::ChildOutOfBounds { node: 0, .. }
        ));
        assert!(matches!(
            corrupt(&|b| b.nodes.children[1] = 0),
            StructureIssue::OrderViolation { node: 0, child: 0 }
        ));
        // First leaf: its unused slot must stay zero, its payload a simplex.
        let leaf = (0..t.nodes.len())
            .find(|&i| t.nodes.feature[i] == LEAF)
            .expect("fitted tree has a leaf");
        assert!(matches!(
            corrupt(&|b| b.nodes.children[2 * leaf + 1] = 1),
            StructureIssue::BadLeafSentinel { .. }
        ));
        assert!(matches!(
            corrupt(&|b| {
                let off = b.nodes.children[2 * leaf] as usize;
                b.nodes.leaf_values[off] += 0.5;
            }),
            StructureIssue::NotSimplex { .. } | StructureIssue::LeafValueOutOfRange { .. }
        ));
        assert!(matches!(
            corrupt(&|b| b.nodes.children[2 * leaf] += 1),
            StructureIssue::ArenaMismatch { .. }
        ));
        assert!(matches!(
            corrupt(&|b| b.nodes.leaf_values.push(0.0)),
            StructureIssue::ArenaLength { .. }
        ));
        assert!(matches!(
            corrupt(&|b| b.nodes.feature[0] = 9),
            StructureIssue::FeatureOutOfRange {
                node: 0,
                feature: 9,
                ..
            }
        ));
        assert!(matches!(
            corrupt(&|b| {
                b.nodes.threshold.pop();
            }),
            StructureIssue::Shape(_)
        ));
        let empty = DecisionTree {
            nodes: TreeNodes::default(),
            n_classes: 2,
            raw_importance: vec![0.0],
        };
        assert_eq!(empty.verify(), Err(StructureIssue::Empty));
    }

    /// Random small dataset with duplicate-heavy columns (the regime the
    /// real features live in: log₂ sizes, node counts).
    fn random_dataset(seed: u64, n: usize, d: usize, k: usize) -> (Matrix, Vec<usize>) {
        let mut r = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        if r.gen_bool(0.5) {
                            r.gen_range(0..8) as f64 // discrete, duplicate-heavy
                        } else {
                            r.gen_range(0.0..4.0) // continuous
                        }
                    })
                    .collect()
            })
            .collect();
        let y: Vec<usize> = rows
            .iter()
            .map(|row| ((row[0] + row[1 % d]) as usize + row.len()) % k)
            .collect();
        (Matrix::from_rows(rows), y)
    }

    /// Property: on lossless binnings (distinct values ≤ bins) the
    /// histogram kernel grows a tree whose train-set predictions match the
    /// sort-based oracle, and whose importances agree.
    #[test]
    fn binned_split_finding_matches_exact_on_train_data() {
        for seed in 0..12u64 {
            let (x, y) = random_dataset(seed, 60, 4, 3);
            let params = TreeParams::default();
            let exact = DecisionTree::fit(&x, &y, 3, &params, &mut StdRng::seed_from_u64(seed));
            let hist = fit_tree(&x, &y, 3, &params, &mut StdRng::seed_from_u64(seed));
            assert_eq!(
                exact.predict(&x),
                hist.predict(&x),
                "seed {seed}: train predictions diverge"
            );
            for (e, h) in exact.raw_importance().iter().zip(hist.raw_importance()) {
                assert!((e - h).abs() < 1e-12, "seed {seed}: importances diverge");
            }
            assert_eq!(exact.depth(), hist.depth(), "seed {seed}");
            assert_eq!(exact.node_count(), hist.node_count(), "seed {seed}");
        }
    }

    /// The same equivalence holds under per-node feature subsampling: both
    /// growers consume the RNG identically, so the subsets align.
    #[test]
    fn binned_matches_exact_with_feature_subsampling() {
        for seed in 0..6u64 {
            let (x, y) = random_dataset(100 + seed, 50, 5, 3);
            let params = TreeParams {
                max_features: MaxFeatures::Count(2),
                ..Default::default()
            };
            let exact = DecisionTree::fit(&x, &y, 3, &params, &mut StdRng::seed_from_u64(seed));
            let hist = fit_tree(&x, &y, 3, &params, &mut StdRng::seed_from_u64(seed));
            assert_eq!(exact.predict(&x), hist.predict(&x), "seed {seed}");
        }
    }

    #[test]
    fn binned_regression_tree_fits_step_function() {
        let x = Matrix::from_rows([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]]);
        let y = vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0];
        let b = BinnedMatrix::from_matrix(&x, 256);
        // A subsample-style index slice: duplicates, one row absent.
        let rows: Vec<u32> = vec![0, 0, 1, 3, 4, 4, 5];
        let mut scratch = TreeScratch::default();
        let t = RegressionTree::fit_binned(
            &b,
            &y,
            &rows,
            &TreeParams::default(),
            &mut rng(),
            &mut scratch,
        );
        assert!((t.predict_row(&[1.5]) - 1.0).abs() < 1e-9);
        assert!((t.predict_row(&[11.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn binned_fit_over_duplicated_bootstrap_rows() {
        let (x, y) = blobs();
        let b = BinnedMatrix::from_matrix(&x, 256);
        // A bootstrap-style sample: duplicates, not all rows present.
        let rows: Vec<u32> = (0..x.rows() as u32).map(|i| (i * 7) % 40).collect();
        let mut scratch = TreeScratch::default();
        let t = DecisionTree::fit_binned(
            &b,
            &y,
            &rows,
            2,
            &TreeParams::default(),
            &mut rng(),
            &mut scratch,
        );
        // Still separates the blobs.
        assert_eq!(t.predict_row(&[0.1, 1.1]), 0);
        assert_eq!(t.predict_row(&[5.1, 6.1]), 1);
    }

    /// FNV-1a over a tree's node count, SoA arrays and importances, every
    /// `f64` by its bits.
    fn digest(nodes: &TreeNodes, raw_importance: &[f64]) -> u64 {
        let words = std::iter::once(nodes.len() as u64)
            .chain(nodes.feature.iter().map(|&f| u64::from(f)))
            .chain(nodes.threshold.iter().map(|t| t.to_bits()))
            .chain(nodes.children.iter().map(|&c| u64::from(c)))
            .chain(nodes.leaf_values.iter().map(|v| v.to_bits()))
            .chain(raw_importance.iter().map(|v| v.to_bits()));
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Grown trees of both kinds, pinned bit for bit by digests recorded
    /// before the two growers became one: any change to a criterion's
    /// arithmetic, the feature draw or the node numbering fails here.
    #[test]
    fn grown_trees_match_recorded_digests() {
        let (x, y) = random_dataset(29, 300, 6, 4);
        // 32 bins: the continuous columns bin lossily (quantile edges).
        let b = BinnedMatrix::from_matrix(&x, 32);
        let mut r = StdRng::seed_from_u64(5);
        let n = x.rows() as u32;
        let rows: Vec<u32> = (0..n).map(|_| r.gen_range(0..n)).collect();
        let target: Vec<f64> = (0..x.rows())
            .map(|i| 1.5 * x.get(i, 0) - x.get(i, 2) + y[i] as f64)
            .collect();
        let subset = TreeParams {
            max_depth: Some(9),
            min_samples_leaf: 2,
            max_features: MaxFeatures::Count(2),
            ..Default::default()
        };
        let mut scratch = TreeScratch::default();
        let mut fit = |params: &TreeParams, seed| {
            let t = DecisionTree::fit_binned(
                &b,
                &y,
                &rows,
                4,
                params,
                &mut StdRng::seed_from_u64(seed),
                &mut scratch,
            );
            (t.node_count(), digest(&t.nodes, &t.raw_importance))
        };
        let all = fit(&TreeParams::default(), 1);
        let two = fit(&subset, 2);
        let reg = RegressionTree::fit_binned(
            &b,
            &target,
            &rows,
            &TreeParams {
                min_samples_leaf: 3,
                max_features: MaxFeatures::Count(3),
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(3),
            &mut scratch,
        );
        let reg = (reg.nodes.len(), digest(&reg.nodes, &[]));
        assert_eq!(
            [all, two, reg],
            [
                (187, 0x88df_a2c2_cb09_1f03),
                (139, 0x9eeb_2fdd_757b_939a),
                (155, 0xeb42_e077_a98e_ed7d)
            ]
        );

        // The full bin budget, the shape the analytic-cost features have:
        // one column bins losslessly into ≈ 240 bins, one quantile-bins
        // past 256 distinct values, and most deep nodes see fewer rows
        // than bins.
        let (b, y, target, rows) = wide_bins();
        let mut scratch = TreeScratch::default();
        let sqrt = TreeParams {
            max_features: MaxFeatures::Sqrt,
            ..Default::default()
        };
        let gini = DecisionTree::fit_binned(
            &b,
            &y,
            &rows,
            4,
            &sqrt,
            &mut StdRng::seed_from_u64(7),
            &mut scratch,
        );
        let reg = RegressionTree::fit_binned(
            &b,
            &target,
            &rows,
            &TreeParams {
                min_samples_leaf: 2,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(8),
            &mut scratch,
        );
        assert_eq!(
            [
                (gini.node_count(), digest(&gini.nodes, &gini.raw_importance)),
                (reg.nodes.len(), digest(&reg.nodes, &[]))
            ],
            [(1371, 0x6456_150d_4fbe_6c8e), (1863, 0x3240_e719_5286_6d10)]
        );
    }

    /// A 2 400-row bootstrap over four columns binned at [`MAX_BINS`]:
    /// 240 distinct integers (lossless), a continuous column (quantile
    /// edges), and two small discrete ones. Gini labels in four classes and
    /// an MSE target, both noisy.
    fn wide_bins() -> (BinnedMatrix, Vec<usize>, Vec<f64>, Vec<u32>) {
        let mut r = StdRng::seed_from_u64(34);
        let n = 2_400;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    r.gen_range(0..240) as f64,
                    r.gen_range(0.0..100.0),
                    r.gen_range(0..8) as f64,
                    r.gen_range(0..3) as f64,
                ]
            })
            .collect();
        let y: Vec<usize> = rows
            .iter()
            .map(|v| (v[0] as usize / 60 + usize::from(v[1] > 50.0) + r.gen_range(0..2usize)) % 4)
            .collect();
        let target: Vec<f64> = rows
            .iter()
            .map(|v| v[0] * 0.1 - v[1] * v[2] * 0.01 + r.gen_range(-1.0..1.0))
            .collect();
        let x = Matrix::from_rows(rows);
        let b = BinnedMatrix::from_matrix(&x, MAX_BINS);
        // Column 1: 2 400 distinct values in equal-frequency bins of ten.
        assert_eq!((b.n_bins(0), b.n_bins(1)), (240, 240));
        let sample = (0..n).map(|_| r.gen_range(0..n as u32)).collect();
        (b, y, target, sample)
    }

    /// A scratch that grew other trees grows the same tree as a fresh one:
    /// every buffer it carries between trees is either overwritten or, the
    /// histogram, left all-zero by each feature pass.
    #[test]
    fn reused_scratch_grows_the_same_trees_as_a_fresh_one() {
        let (b, y, target, rows) = wide_bins();
        let params = TreeParams {
            max_features: MaxFeatures::Sqrt,
            ..Default::default()
        };
        let gini = |scratch: &mut TreeScratch, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            DecisionTree::fit_binned(&b, &y, &rows, 4, &params, &mut rng, scratch)
        };
        let reg = |scratch: &mut TreeScratch| {
            let mut rng = StdRng::seed_from_u64(3);
            RegressionTree::fit_binned(&b, &target, &rows[..900], &params, &mut rng, scratch)
        };
        let mut reused = TreeScratch::default();
        gini(&mut reused, 1);
        assert_eq!(gini(&mut reused, 2), gini(&mut TreeScratch::default(), 2));
        // Three slots a bin after four, then four again.
        assert_eq!(reg(&mut reused), reg(&mut TreeScratch::default()));
        assert_eq!(gini(&mut reused, 5), gini(&mut TreeScratch::default(), 5));
    }

    #[test]
    fn argmax_first_wins_ties() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
    }
}
