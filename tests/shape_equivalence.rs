//! Shape-equivalence oracle for the rebuild shape builders.
//!
//! `ShapeTree::weight_balanced` searches only the slice of the hot list
//! that lies inside each range, and `ShapeTree::balanced_kary` builds the
//! complete tree iteratively. Both are optimisations of simpler
//! formulations that are kept below verbatim: a weight index that
//! binary-searches the **whole** hot array for every range weight, and a
//! recursive complete-tree builder. Shapes must be `==` — node ids, child
//! order and key gaps included — because the lazy nets' costs depend on
//! exactly which shape a rebuild materializes.

use kst_core::shape::complete_child_sizes;
use kst_core::{NodeKey, ShapeTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whole-array prefix-sum weight index (the reference formulation).
struct RefWeightIndex<'a> {
    hot: &'a [(NodeKey, u64)],
    pre: Vec<u64>,
}

impl<'a> RefWeightIndex<'a> {
    fn new(hot: &'a [(NodeKey, u64)]) -> RefWeightIndex<'a> {
        let mut pre = Vec::with_capacity(hot.len() + 1);
        let mut acc = 0u64;
        pre.push(0);
        for &(_, w) in hot {
            acc += w;
            pre.push(acc);
        }
        RefWeightIndex { hot, pre }
    }

    fn hot_weight(&self, a: NodeKey, b: NodeKey) -> u64 {
        let lo = self.hot.partition_point(|&(key, _)| key < a);
        let hi = self.hot.partition_point(|&(key, _)| key <= b);
        self.pre[hi] - self.pre[lo]
    }

    fn weight(&self, a: NodeKey, b: NodeKey) -> u64 {
        (b - a + 1) as u64 + self.hot_weight(a, b)
    }

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

    fn quantiles(&self, a: NodeKey, b: NodeKey, c: usize, out: &mut Vec<(NodeKey, NodeKey)>) {
        let total = self.weight(a, b);
        let mut start = a;
        for j in 1..c {
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
        let mut cl = ((k as u64 * wl + (wl + wr) / 2) / (wl + wr).max(1)) as usize;
        cl = cl.clamp(usize::from(sl > 0), k - usize::from(sr > 0));
        cl = cl.min(sl);
        let cr = (k - cl).min(sr);
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

/// Recursive complete k-ary builder (ids in pre-order).
fn ref_build_complete(shape: &mut ShapeTree, n: usize, k: usize) -> u32 {
    let id = shape.children.len() as u32;
    shape.children.push(Vec::new());
    shape.key_gap.push(0);
    let sizes = complete_child_sizes(n, k);
    let mut kids = Vec::with_capacity(sizes.len());
    for s in &sizes {
        kids.push(ref_build_complete(shape, *s, k));
    }
    let gap = kids.len().div_ceil(2);
    shape.children[id as usize] = kids;
    shape.key_gap[id as usize] = gap as u8;
    id
}

fn empty_shape() -> ShapeTree {
    ShapeTree {
        children: Vec::new(),
        key_gap: Vec::new(),
        root: 0,
    }
}

fn ref_balanced_kary(n: usize, k: usize) -> ShapeTree {
    let mut shape = empty_shape();
    if n > 0 {
        shape.root = ref_build_complete(&mut shape, n, k);
    }
    shape
}

fn ref_weight_balanced(n: usize, k: usize, hot: &[(NodeKey, u64)]) -> ShapeTree {
    if hot.is_empty() {
        return ref_balanced_kary(n, k);
    }
    let mut shape = empty_shape();
    if n == 0 {
        return shape;
    }
    let wb = RefWeightIndex::new(hot);
    const NO_PARENT: u32 = u32::MAX;
    let mut stack: Vec<(NodeKey, NodeKey, u32)> = vec![(1, n as NodeKey, NO_PARENT)];
    let mut ranges: Vec<(NodeKey, NodeKey)> = Vec::new();
    while let Some((a, b, parent)) = stack.pop() {
        let id = if wb.hot_weight(a, b) == 0 {
            let id = shape.children.len() as u32;
            ref_build_complete(&mut shape, (b - a + 1) as usize, k);
            id
        } else {
            let id = shape.push_leaf();
            let m = wb.weighted_median(a, b);
            ranges.clear();
            let cl = wb.split_around(a, b, m, k, &mut ranges);
            shape.key_gap[id as usize] = cl as u8;
            for &(ca, cb) in ranges.iter().rev() {
                stack.push((ca, cb, id));
            }
            id
        };
        if parent == NO_PARENT {
            shape.root = id;
        } else {
            shape.children[parent as usize].push(id);
        }
    }
    shape
}

/// Strictly sorted hot list from arbitrary `(key, weight)` draws (later
/// duplicates dropped).
fn sorted_hot(mut hot: Vec<(NodeKey, u64)>) -> Vec<(NodeKey, u64)> {
    hot.sort_by_key(|&(key, _)| key);
    hot.dedup_by_key(|e| e.0);
    hot
}

/// The hot profiles probed for one `n`: single key, every key hot, both
/// extreme keys, heavy skew, a sparse random set (with zero weights, which
/// count as cold), and a dense random set.
fn hot_profiles(n: usize, rng: &mut StdRng) -> Vec<(&'static str, Vec<(NodeKey, u64)>)> {
    let nk = n as NodeKey;
    vec![
        (
            "single",
            vec![(rng.gen_range(1..=nk), rng.gen_range(1..=1_000_000u64))],
        ),
        (
            "all",
            (1..=nk)
                .map(|key| (key, rng.gen_range(1..=50u64)))
                .collect(),
        ),
        ("ends", sorted_hot(vec![(1, 500), (nk, 7)])),
        (
            "skew",
            sorted_hot(
                (0..32)
                    .map(|i| (rng.gen_range(1..=nk), 1u64 << (i % 40)))
                    .collect(),
            ),
        ),
        (
            "sparse",
            sorted_hot(
                (0..(n / 20).max(1))
                    .map(|_| (rng.gen_range(1..=nk), rng.gen_range(0..=9u64)))
                    .collect(),
            ),
        ),
        (
            "dense",
            sorted_hot(
                (0..n / 2)
                    .map(|_| (rng.gen_range(1..=nk), rng.gen_range(1..=300u64)))
                    .collect(),
            ),
        ),
    ]
}

#[test]
fn weight_balanced_matches_whole_array_reference() {
    let mut rng = StdRng::seed_from_u64(0x5A9E_0001);
    let mut probed = 0;
    for k in 2..=6usize {
        for n in [1usize, 2, 3, 7, 64, 100, 257, 1000, 5000] {
            for (label, hot) in hot_profiles(n, &mut rng) {
                let got = ShapeTree::weight_balanced(n, k, &hot);
                let want = ref_weight_balanced(n, k, &hot);
                assert!(got == want, "{label} profile, n={n} k={k}: shapes differ");
                got.validate(k).unwrap();
                probed += 1;
            }
        }
    }
    assert!(probed >= 5 * 9 * 5, "too few profiles probed ({probed})");
}

#[test]
fn balanced_kary_matches_recursive_reference() {
    for k in 2..=8usize {
        for n in (0..=300).chain([511, 1000, 1093, 4095, 5000]) {
            assert_eq!(
                ShapeTree::balanced_kary(n, k),
                ref_balanced_kary(n, k),
                "n={n} k={k}"
            );
        }
    }
}

#[test]
fn composite_subtrees_keep_reference_ids() {
    // `push_balanced_subtree` appends into a non-empty arena (the centroid
    // net and `extract_range` connectors build shapes this way): ids must
    // continue from the arena's length exactly as the recursive builder's.
    for k in 2..=8usize {
        let mut got = empty_shape();
        let mut want = empty_shape();
        got.root = got.push_leaf();
        want.root = want.push_leaf();
        for n in [1usize, 5, 40, 300] {
            let a = got.push_balanced_subtree(n, k);
            let b = ref_build_complete(&mut want, n, k);
            assert_eq!(a, b, "k={k} n={n}");
            got.children[0].push(a);
            want.children[0].push(b);
        }
        assert_eq!(got, want, "k={k}");
    }
}
