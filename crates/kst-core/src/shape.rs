//! Rooted ordered tree *shapes* with in-order key assignment.
//!
//! Several constructions in the paper fix a tree shape first and distribute
//! keys afterwards so that the search property holds (Section 3.2: "we can
//! first fix the tree structure and then distribute the keys"). A
//! [`ShapeTree`] is such a shape: an ordered rooted tree where each node has
//! a list of ordered children plus a `key_gap` saying between which children
//! the node's *own* key falls in the in-order sequence of its subtree.
//!
//! Shapes are produced by the balanced builder here, by the dynamic programs
//! in `kst-statics`, and by the centroid construction; they are consumed by
//! the arena-tree builder (`KstTree::from_shape`) and by the static distance
//! evaluator.

use crate::key::NodeKey;

/// An ordered rooted tree shape with a per-node in-order position for the
/// node's own key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeTree {
    /// `children[v]` lists the ordered children of shape node `v`.
    pub children: Vec<Vec<u32>>,
    /// The node's own key precedes child `key_gap[v]` in its in-order
    /// sequence (so `key_gap[v] == children[v].len()` puts it last).
    pub key_gap: Vec<u8>,
    /// Root shape node.
    pub root: u32,
}

impl ShapeTree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the shape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Builds the complete ("full" in the paper's terminology, Section 5)
    /// k-ary tree shape on `n` nodes: every level fully filled except the
    /// last, whose nodes are grouped to the left.
    ///
    /// The own-key gap is placed at the middle child to keep in-order keys
    /// near the subtree median.
    pub fn balanced_kary(n: usize, k: usize) -> ShapeTree {
        assert!(k >= 2, "arity must be at least 2");
        let mut shape = ShapeTree {
            children: Vec::with_capacity(n),
            key_gap: Vec::with_capacity(n),
            root: 0,
        };
        if n == 0 {
            return shape;
        }
        let root = build_complete(&mut shape, n, k);
        shape.root = root;
        shape
    }

    /// Builds a **weight-balanced** k-ary search tree shape on keys
    /// `1..=n` from observed per-key frequencies: every key gets a base
    /// weight of 1 plus its observed frequency from `hot` (a by-key sorted
    /// `(key, frequency)` list, keys in `1..=n`, typically
    /// `SparseDemand::key_weights`), and each node takes the weighted
    /// median of its key range as its own key, splitting the remainder
    /// into up to `k` child ranges of roughly equal weight.
    ///
    /// Hot keys therefore sit near the root (weighted depth is
    /// logarithmic in total weight), while regions with **no** observed
    /// demand degrade to the complete balanced subtree — with an empty
    /// `hot` the result is exactly [`ShapeTree::balanced_kary`]. Every
    /// range carries the slice of `hot` that lies inside it, so the
    /// hot-range test is O(1) and split decisions are O(log) binary
    /// searches over that slice only, paid only on ranges containing hot
    /// keys: a rebuild is O(n) shape materialization plus
    /// O(touched · log slice) decision work — no O(n³)-ish DP, which is
    /// what makes lazy rebuilds viable at 10⁶–10⁷ nodes.
    ///
    /// Fully deterministic: same `n`, `k`, `hot` → same shape.
    pub fn weight_balanced(n: usize, k: usize, hot: &[(NodeKey, u64)]) -> ShapeTree {
        assert!(k >= 2, "arity must be at least 2");
        debug_assert!(
            hot.windows(2).all(|w| w[0].0 < w[1].0),
            "hot keys must be strictly sorted"
        );
        debug_assert!(
            hot.iter().all(|&(key, _)| key >= 1 && key as usize <= n),
            "hot keys must lie in 1..={n}"
        );
        if hot.is_empty() {
            return ShapeTree::balanced_kary(n, k);
        }
        let mut shape = ShapeTree {
            children: Vec::with_capacity(n),
            key_gap: Vec::with_capacity(n),
            root: 0,
        };
        if n == 0 {
            return shape;
        }
        // `pre[i]` = sum of the first `i` hot frequencies, shared by every
        // range-local index below.
        let mut pre = Vec::with_capacity(hot.len() + 1);
        let mut acc = 0u64;
        pre.push(0);
        for &(_, w) in hot {
            acc += w;
            pre.push(acc);
        }

        // Explicit work stack (DFS preorder): a pathological weight profile
        // must not be able to overflow the call stack at 10⁶ nodes. Jobs
        // pop in left-to-right order, so appending each new node to its
        // parent's child list as it pops preserves child order. Each job
        // carries `hot[hlo..hhi]`, the hot keys inside its range `[a, b]`.
        const NO_PARENT: u32 = u32::MAX;
        let mut stack: Vec<(NodeKey, NodeKey, u32, usize, usize)> =
            vec![(1, n as NodeKey, NO_PARENT, 0, hot.len())];
        let mut ranges: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(2 * k);
        while let Some((a, b, parent, hlo, hhi)) = stack.pop() {
            let id = if pre[hhi] == pre[hlo] {
                // Cold range: no observed demand — fall back to the
                // complete balanced subtree (O(size), no searches).
                shape.push_balanced_subtree((b - a + 1) as usize, k)
            } else {
                let id = shape.push_leaf();
                let wb = WeightIndex {
                    hot: &hot[hlo..hhi],
                    pre: &pre[hlo..=hhi],
                };
                let m = wb.weighted_median(a, b);
                ranges.clear();
                let cl = wb.split_around(a, b, m, k, &mut ranges);
                shape.key_gap[id as usize] = cl as u8;
                for &(ca, cb) in ranges.iter().rev() {
                    let (clo, chi) = wb.slice_of(ca, cb);
                    stack.push((ca, cb, id, hlo + clo, hlo + chi));
                }
                id
            };
            if parent == NO_PARENT {
                shape.root = id;
            } else {
                shape.children[parent as usize].push(id);
            }
        }
        debug_assert_eq!(shape.len(), n);
        shape
    }

    /// Subtree sizes (number of shape nodes, including the node itself).
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.len()];
        self.inorder_walk(1, |v, first, last| {
            sizes[v as usize] = (last + 1 - first) as usize;
        });
        sizes
    }

    /// Assigns keys `first_key..first_key + n` to shape nodes by an in-order
    /// walk that respects each node's `key_gap`. Returns the key per shape
    /// node.
    pub fn assign_keys(&self, first_key: NodeKey) -> Vec<NodeKey> {
        self.inorder_walk(first_key, |_, _, _| {})
    }

    /// The in-order walk behind [`ShapeTree::assign_keys`]: assigns keys
    /// `first_key..` in order and, as the walk leaves each node `v`,
    /// reports `span(v, first, last)` — the first and last key of `v`'s
    /// subtree (contiguous, so the subtree holds `last − first + 1`
    /// nodes). Iterative, so long paths cannot overflow the call stack.
    pub(crate) fn inorder_walk(
        &self,
        first_key: NodeKey,
        mut span: impl FnMut(u32, NodeKey, NodeKey),
    ) -> Vec<NodeKey> {
        let n = self.len();
        let mut keys = vec![0 as NodeKey; n];
        if n == 0 {
            return keys;
        }
        // State = (node, next child position to visit, first subtree key).
        // Every state is seen once: each step either descends (advancing
        // the position) or leaves the node.
        let mut next = first_key;
        let mut stack: Vec<(u32, usize, NodeKey)> = vec![(self.root, 0, first_key)];
        while let Some(top) = stack.last_mut() {
            let (v, pos, first) = *top;
            let cs = &self.children[v as usize];
            if pos == self.key_gap[v as usize] as usize {
                keys[v as usize] = next;
                next += 1;
            }
            if pos < cs.len() {
                top.1 += 1;
                stack.push((cs[pos], 0, next));
            } else {
                span(v, first, next - 1);
                stack.pop();
            }
        }
        debug_assert_eq!(next, first_key + n as NodeKey);
        keys
    }

    /// Checks structural sanity: every node except the root has exactly one
    /// parent, children counts are within `k`, and `key_gap` is in range.
    pub fn validate(&self, k: usize) -> Result<(), String> {
        let n = self.len();
        if self.key_gap.len() != n {
            return Err(format!(
                "{} key gaps for {n} shape nodes",
                self.key_gap.len()
            ));
        }
        if n == 0 {
            return Ok(());
        }
        if self.root as usize >= n {
            return Err(format!("root {} out of range", self.root));
        }
        let mut seen = vec![false; n];
        let mut stack = vec![self.root];
        let mut visited = 0usize;
        while let Some(v) = stack.pop() {
            let v = v as usize;
            if seen[v] {
                return Err(format!("shape node {v} reached twice"));
            }
            seen[v] = true;
            visited += 1;
            if self.children[v].len() > k {
                return Err(format!(
                    "shape node {v} has {} > k = {k} children",
                    self.children[v].len()
                ));
            }
            if (self.key_gap[v] as usize) > self.children[v].len() {
                return Err(format!("shape node {v} key_gap out of range"));
            }
            for &c in &self.children[v] {
                if c as usize >= n {
                    return Err(format!("shape node {v} has out-of-range child {c}"));
                }
                stack.push(c);
            }
        }
        if visited != n {
            return Err(format!("only {visited} of {n} shape nodes reachable"));
        }
        Ok(())
    }

    /// Appends a complete k-ary subtree shape on `n >= 1` nodes into this
    /// arena and returns its root shape id (used to assemble composite
    /// topologies such as the centroid (k+1)-SplayNet).
    pub fn push_balanced_subtree(&mut self, n: usize, k: usize) -> u32 {
        assert!(n >= 1);
        build_complete(self, n, k)
    }

    /// Appends a single childless shape node and returns its id.
    pub fn push_leaf(&mut self) -> u32 {
        let id = self.children.len() as u32;
        self.children.push(Vec::new());
        self.key_gap.push(0);
        id
    }

    /// Depth of every node (root = 0).
    pub fn depths(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.len()];
        if self.is_empty() {
            return d;
        }
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            for &c in &self.children[v as usize] {
                d[c as usize] = d[v as usize] + 1;
                stack.push(c);
            }
        }
        d
    }

    /// Height (max depth) of the shape; 0 for a single node or none.
    pub fn height(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }
}

/// Prefix-sum index over a slice of the sorted hot-key frequencies backing
/// [`ShapeTree::weight_balanced`]: every range weight is two binary
/// searches over the hot keys plus closed-form base weight, so split
/// decisions never scan the keyspace. The slice must hold every hot key of
/// the ranges queried.
struct WeightIndex<'a> {
    hot: &'a [(NodeKey, u64)],
    /// `pre[i] − pre[0]` = sum of the first `i` frequencies of `hot`
    /// (a window of the whole hot list's prefix sums).
    pre: &'a [u64],
}

impl WeightIndex<'_> {
    /// `hot[lo..hi]` are exactly the hot keys in `[a, b]`.
    fn slice_of(&self, a: NodeKey, b: NodeKey) -> (usize, usize) {
        let lo = self.hot.partition_point(|&(key, _)| key < a);
        let hi = self.hot.partition_point(|&(key, _)| key <= b);
        (lo, hi)
    }

    /// Sum of hot frequencies for keys in `[a, b]`.
    fn hot_weight(&self, a: NodeKey, b: NodeKey) -> u64 {
        let (lo, hi) = self.slice_of(a, b);
        self.pre[hi] - self.pre[lo]
    }

    /// Weight of key range `[a, b]`: base 1 per key plus hot frequencies.
    fn weight(&self, a: NodeKey, b: NodeKey) -> u64 {
        (b - a + 1) as u64 + self.hot_weight(a, b)
    }

    /// Smallest `m` in `[a, b]` whose prefix `[a, m]` holds at least half
    /// the range's weight.
    fn weighted_median(&self, a: NodeKey, b: NodeKey) -> NodeKey {
        let total = self.weight(a, b);
        let (mut lo, mut hi) = (a, b);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if 2 * self.weight(a, mid) >= total {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Splits `[a, b]` into `c ≥ 1` non-empty contiguous parts of roughly
    /// equal weight (boundaries at the weight quantiles, clamped so every
    /// part keeps at least one key), appending them to `out`.
    fn quantiles(&self, a: NodeKey, b: NodeKey, c: usize, out: &mut Vec<(NodeKey, NodeKey)>) {
        debug_assert!(c >= 1 && (b - a + 1) as usize >= c);
        let total = self.weight(a, b);
        let mut start = a;
        for j in 1..c {
            // Smallest end with weight([a, end]) ≥ (j/c)·total, kept
            // within [start, b - (c - j)] so the remaining parts fit.
            let (mut lo, mut hi) = (start, b - (c - j) as NodeKey);
            let want = (j as u64 * total).div_ceil(c as u64);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.weight(a, mid) >= want {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            out.push((start, lo));
            start = lo + 1;
        }
        out.push((start, b));
    }

    /// Child ranges around own key `m` inside `[a, b]`: the left remainder
    /// `[a, m-1]` and right remainder `[m+1, b]` are each quantile-split,
    /// with the child budget `k` apportioned by weight. Appends the ranges
    /// in order and returns the number of left-side children (the node's
    /// `key_gap`).
    fn split_around(
        &self,
        a: NodeKey,
        b: NodeKey,
        m: NodeKey,
        k: usize,
        out: &mut Vec<(NodeKey, NodeKey)>,
    ) -> usize {
        let sl = (m - a) as usize;
        let sr = (b - m) as usize;
        if sl == 0 && sr == 0 {
            return 0;
        }
        let wl = if sl > 0 { self.weight(a, m - 1) } else { 0 };
        let wr = if sr > 0 { self.weight(m + 1, b) } else { 0 };
        // Ideal share of the child budget for the left side, rounded,
        // then clamped so each non-empty side keeps at least one child
        // and no side gets more children than keys.
        let mut cl = ((k as u64 * wl + (wl + wr) / 2) / (wl + wr).max(1)) as usize;
        cl = cl.clamp(usize::from(sl > 0), k - usize::from(sr > 0));
        cl = cl.min(sl);
        let cr = (k - cl).min(sr);
        // Hand any unusable right-side budget back to the left.
        cl = (k - cr).min(sl);
        if sl > 0 {
            self.quantiles(a, m - 1, cl, out);
        }
        if sr > 0 {
            self.quantiles(m + 1, b, cr, out);
        }
        cl
    }
}

/// Splits `n` nodes of a complete k-ary tree into the sizes of the root's
/// child subtrees (last level filled left to right).
pub fn complete_child_sizes(n: usize, k: usize) -> Vec<usize> {
    let mut sizes = Vec::with_capacity(k);
    complete_child_sizes_into(n, k, &mut sizes);
    sizes
}

/// [`complete_child_sizes`] into a caller-owned buffer (cleared first).
fn complete_child_sizes_into(n: usize, k: usize, sizes: &mut Vec<usize>) {
    debug_assert!(n >= 1);
    sizes.clear();
    let rest = n - 1;
    if rest == 0 {
        return;
    }
    // Height h of the whole tree: smallest h with cap(h) >= n, where
    // cap(h) = 1 + k + ... + k^h.
    let mut cap = 1usize; // cap(0)
    let mut level_cap = 1usize; // k^0
    let mut h = 0usize;
    while cap < n {
        h += 1;
        level_cap = level_cap.saturating_mul(k);
        cap = cap.saturating_add(level_cap);
    }
    if h == 0 {
        return;
    }
    // Each child is a tree of height <= h - 1. Fully-interior part per child:
    // cap(h - 2) nodes; the last level (k^{h-1} slots per child) is filled
    // left to right.
    let mut interior_child = 0usize; // cap(h-2)
    let mut lc = 1usize;
    for _ in 0..h.saturating_sub(1) {
        interior_child += lc;
        lc *= k;
    }
    let last_per_child = lc; // k^{h-1}
    let interior_total = interior_child * k;
    let last_total = rest.saturating_sub(interior_total);
    debug_assert!(rest >= interior_total, "n={n} k={k} h={h}");
    let mut remaining_last = last_total;
    for _ in 0..k {
        let take = remaining_last.min(last_per_child);
        remaining_last -= take;
        let s = interior_child + take;
        if s > 0 {
            sizes.push(s);
        }
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), rest);
}

/// Appends the complete k-ary shape on `n >= 1` nodes with ids in
/// pre-order (children left to right) and returns its root id.
/// Iterative: one child-size buffer serves every node, and each node's
/// child list is allocated once at its final length.
fn build_complete(shape: &mut ShapeTree, n: usize, k: usize) -> u32 {
    const NO_PARENT: u32 = u32::MAX;
    let root = shape.children.len() as u32;
    let mut sizes: Vec<usize> = Vec::with_capacity(k);
    // Jobs pop in pre-order (children pushed right to left), so each new
    // node is appended to its parent's child list in slot order.
    let mut stack: Vec<(usize, u32)> = vec![(n, NO_PARENT)];
    while let Some((size, parent)) = stack.pop() {
        let id = shape.children.len() as u32;
        complete_child_sizes_into(size, k, &mut sizes);
        shape.children.push(Vec::with_capacity(sizes.len()));
        shape.key_gap.push(sizes.len().div_ceil(2) as u8);
        if parent != NO_PARENT {
            shape.children[parent as usize].push(id);
        }
        for &s in sizes.iter().rev() {
            stack.push((s, id));
        }
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_sizes_sum() {
        for k in 2..=10 {
            for n in 1..200 {
                let sizes = complete_child_sizes(n, k);
                assert_eq!(sizes.iter().sum::<usize>(), n - 1, "n={n} k={k}");
                assert!(sizes.len() <= k);
            }
        }
    }

    #[test]
    fn balanced_height_is_logarithmic() {
        for k in 2..=10usize {
            for n in [1usize, 2, 10, 100, 1000] {
                let s = ShapeTree::balanced_kary(n, k);
                assert_eq!(s.len(), n);
                s.validate(k).unwrap();
                // height <= ceil(log_k(n(k-1)+1)) (complete tree bound)
                let mut cap = 1usize;
                let mut lvl = 1usize;
                let mut h = 0u32;
                while cap < n {
                    lvl *= k;
                    cap += lvl;
                    h += 1;
                }
                assert_eq!(s.height(), h, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn empty_shape_is_well_defined() {
        for k in 2..=6usize {
            let s = ShapeTree::balanced_kary(0, k);
            assert!(s.is_empty());
            assert_eq!(s.validate(k), Ok(()));
            assert_eq!(s.depths(), Vec::<u32>::new());
            assert_eq!(s.height(), 0);
            assert_eq!(s.subtree_sizes(), Vec::<usize>::new());
            assert_eq!(s.assign_keys(1), Vec::<NodeKey>::new());
            assert_eq!(ShapeTree::weight_balanced(0, k, &[]), s);
        }
    }

    #[test]
    fn subtree_sizes_count_every_descendant() {
        for (n, k) in [(1usize, 2usize), (37, 3), (100, 5), (64, 2)] {
            let s = ShapeTree::balanced_kary(n, k);
            let sizes = s.subtree_sizes();
            assert_eq!(sizes[s.root as usize], n);
            for v in 0..n {
                let kids: usize = s.children[v].iter().map(|&c| sizes[c as usize]).sum();
                assert_eq!(sizes[v], 1 + kids, "n={n} k={k} node {v}");
            }
        }
    }

    #[test]
    fn complete_tree_is_level_filled() {
        // All levels except the last are full.
        for k in 2..=5usize {
            for n in [7usize, 13, 40, 121] {
                let s = ShapeTree::balanced_kary(n, k);
                let depths = s.depths();
                let h = s.height();
                for lvl in 0..h {
                    let cnt = depths.iter().filter(|&&d| d == lvl).count();
                    assert_eq!(cnt, k.pow(lvl), "level {lvl} of n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn push_subtree_and_leaf_compose() {
        let mut s = ShapeTree {
            children: Vec::new(),
            key_gap: Vec::new(),
            root: 0,
        };
        let root = s.push_leaf();
        let a = s.push_balanced_subtree(7, 3);
        let b = s.push_balanced_subtree(4, 3);
        s.children[root as usize] = vec![a, b];
        s.key_gap[root as usize] = 1;
        s.root = root;
        assert_eq!(s.len(), 12);
        s.validate(3).unwrap();
        let mut keys = s.assign_keys(1);
        keys.sort_unstable();
        assert_eq!(keys, (1..=12).collect::<Vec<_>>());
    }

    #[test]
    fn validate_rejects_overfull_nodes() {
        let mut s = ShapeTree {
            children: Vec::new(),
            key_gap: Vec::new(),
            root: 0,
        };
        let root = s.push_leaf();
        let kids: Vec<u32> = (0..4).map(|_| s.push_leaf()).collect();
        s.children[root as usize] = kids;
        s.root = root;
        assert!(
            s.validate(3).is_err(),
            "4 children must not validate at k=3"
        );
        assert!(s.validate(4).is_ok());
    }

    #[test]
    fn validate_reports_malformed_arenas_instead_of_panicking() {
        let good = ShapeTree::balanced_kary(7, 2);
        let mut bad_child = good.clone();
        bad_child.children[0][1] = 7;
        assert!(bad_child.validate(2).is_err());
        let mut bad_root = good.clone();
        bad_root.root = 9;
        assert!(bad_root.validate(2).is_err());
        let mut bad_gaps = good;
        bad_gaps.key_gap.pop();
        assert!(bad_gaps.validate(2).is_err());
    }

    #[test]
    fn weight_balanced_with_no_demand_is_exactly_balanced() {
        for k in 2..=6usize {
            for n in [1usize, 13, 100, 1000] {
                assert_eq!(
                    ShapeTree::weight_balanced(n, k, &[]),
                    ShapeTree::balanced_kary(n, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn weight_balanced_is_valid_and_keys_are_a_permutation() {
        let hots: Vec<Vec<(NodeKey, u64)>> = vec![
            vec![(1, 1000)],
            vec![(50, 7), (51, 9000), (99, 3)],
            vec![(3, 1), (10, 1), (20, 1), (80, 1)],
            (1..=100)
                .map(|key| (key, key as u64 * key as u64))
                .collect(),
        ];
        for k in 2..=6usize {
            for n in [100usize, 257, 1000] {
                for hot in &hots {
                    let s = ShapeTree::weight_balanced(n, k, hot);
                    assert_eq!(s.len(), n, "n={n} k={k}");
                    s.validate(k).unwrap();
                    let mut keys = s.assign_keys(1);
                    keys.sort_unstable();
                    assert_eq!(keys, (1..=n as NodeKey).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn weight_balanced_puts_dominant_keys_near_the_root() {
        let n = 4096;
        for k in [2usize, 4] {
            for hot_key in [1 as NodeKey, 2000, 4096] {
                let s = ShapeTree::weight_balanced(n, k, &[(hot_key, 1_000_000)]);
                s.validate(k).unwrap();
                let keys = s.assign_keys(1);
                let depths = s.depths();
                let node = keys.iter().position(|&key| key == hot_key).unwrap();
                assert!(
                    depths[node] <= 1,
                    "key {hot_key} with dominant weight sits at depth {} (k={k})",
                    depths[node]
                );
            }
        }
    }

    #[test]
    fn weight_balanced_depth_stays_logarithmic_under_skew() {
        // A hot set plus a cold tail must not degenerate into a path: the
        // base weight of 1 per key keeps cold regions complete-balanced.
        let n = 10_000;
        let hot: Vec<(NodeKey, u64)> = (0..32).map(|i| (1 + i * 311, 1u64 << (i % 20))).collect();
        for k in [2usize, 3, 8] {
            let s = ShapeTree::weight_balanced(n, k, &hot);
            s.validate(k).unwrap();
            let bound = 4 * ((n as f64).log2() / (k as f64).log2()).ceil() as u32 + 8;
            assert!(
                s.height() <= bound,
                "height {} exceeds {bound} (k={k})",
                s.height()
            );
        }
    }

    #[test]
    fn weight_balanced_is_deterministic() {
        let hot = vec![(5 as NodeKey, 42u64), (900, 17), (901, 17)];
        let a = ShapeTree::weight_balanced(1000, 3, &hot);
        let b = ShapeTree::weight_balanced(1000, 3, &hot);
        assert_eq!(a, b);
    }

    #[test]
    fn keys_are_a_permutation() {
        for k in 2..=6 {
            for n in [1usize, 5, 37, 100] {
                let s = ShapeTree::balanced_kary(n, k);
                let mut keys = s.assign_keys(1);
                keys.sort_unstable();
                let want: Vec<NodeKey> = (1..=n as NodeKey).collect();
                assert_eq!(keys, want, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn inorder_keys_respect_child_order() {
        // For every node: keys of child i are all smaller than keys of
        // child i+1, and the own key sits in gap `key_gap`.
        for (n, k) in [(37usize, 3usize), (100, 5), (64, 2)] {
            let s = ShapeTree::balanced_kary(n, k);
            let keys = s.assign_keys(1);
            let sizes = s.subtree_sizes();
            fn min_max(s: &ShapeTree, keys: &[NodeKey], v: u32) -> (NodeKey, NodeKey) {
                let mut lo = keys[v as usize];
                let mut hi = keys[v as usize];
                for &c in &s.children[v as usize] {
                    let (a, b) = min_max(s, keys, c);
                    lo = lo.min(a);
                    hi = hi.max(b);
                }
                (lo, hi)
            }
            for v in 0..n as u32 {
                let cs = &s.children[v as usize];
                let mut prev_hi = 0;
                for (i, &c) in cs.iter().enumerate() {
                    let (lo, hi) = min_max(&s, &keys, c);
                    assert!(lo > prev_hi);
                    if i == s.key_gap[v as usize] as usize {
                        assert!(keys[v as usize] < lo);
                    }
                    if i + 1 == s.key_gap[v as usize] as usize {
                        assert!(keys[v as usize] > hi);
                    }
                    prev_hi = hi;
                }
            }
            let _ = sizes;
        }
    }
}
