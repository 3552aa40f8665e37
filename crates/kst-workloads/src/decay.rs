//! Decaying epoch-demand ledger and the planner-facing demand view.
//!
//! [`SparseDemand`] forgets everything at each rebuild boundary, which is
//! exactly wrong for the non-stationary traffic *Toward Demand-Aware
//! Networking* argues real datacenter workloads exhibit: a lazy net that
//! re-optimizes from single-epoch samples thrashes between unrelated
//! optima. [`DecayingDemand`] keeps an **exponentially weighted moving
//! average** of the per-pair demand across epochs: at every epoch boundary
//! ([`DecayingDemand::decay_merge`]) the smoothed ledger is multiplied by
//! `λ = 2^(−1/half_life)` and the raw epoch counts are added, so demand
//! observed `half_life` epochs ago contributes half of what fresh demand
//! does. `half_life = 0` disables the memory entirely (λ = 0), reproducing
//! the per-epoch `SparseDemand` semantics bit-for-bit — the differential
//! tests rely on that degenerate case.
//!
//! The EWMA runs in **fixed-point** arithmetic ([`FRAC`] fractional bits,
//! decay multiplication rounds *down*) so the ledger stays deterministic
//! across platforms and every entry strictly decreases under decay —
//! un-refreshed pairs reach zero and are pruned, keeping memory
//! output-sensitive. `tests/proptests.rs` pins the arithmetic against an
//! f64 reference with a derived error bound.
//!
//! On top of the smoothed ledger sits the **dirty tracking** the two-phase
//! rebuild planner consumes: the ledger remembers the rounded per-key
//! weights the last plan was built from ([`DecayingDemand::mark_planned`])
//! and [`DecayingDemand::view`] exposes the absolute per-key weight change
//! since then as a [`DirtyIndex`] — prefix-summed, so a planner can ask
//! "how much did demand change inside key range `[a, b]`" in O(log)
//! ("which subtree roots saw demand change ≥ τ since the last rebuild").

use crate::demand::{pack, unpack, SparseDemand};
use crate::trace::NodeKey;
use std::collections::HashMap;

/// Fractional bits of the fixed-point EWMA counts.
pub const FRAC: u32 = 16;

const HALF: u64 = 1 << (FRAC - 1);

/// Rounds a fixed-point count to the nearest integer (half away from
/// zero) — the integer view rebuild policies consume.
#[inline]
fn round_fp(v: u64) -> u64 {
    (v + HALF) >> FRAC
}

/// Per-epoch decay multiplier `2^(−1/half_life)` in [`FRAC`]-bit
/// fixed-point; 0 for `half_life = 0` (no memory). Clamped to strictly
/// below 1.0: past `half_life ≈ 90 852` the rounded multiplier would
/// saturate to exactly `1 << FRAC`, turning decay into a no-op and
/// breaking the strictly-decreasing/pruning invariant (unbounded ledger
/// growth) — huge half-lives degrade to the slowest representable decay
/// instead.
///
/// This is the ledger's one f64 touchpoint: all merge arithmetic is
/// integer-only given `lambda_fp`, but the multiplier itself comes from
/// `powf`, which is not correctly rounded and may differ by 1 ulp across
/// libm implementations. The 16-bit quantization absorbs that for every
/// half-life checked, and `lambda_fp_is_pinned_for_common_half_lives`
/// pins representative values so any platform drift fails loudly instead
/// of silently desynchronizing replicas.
fn lambda_fp(half_life: u32) -> u64 {
    if half_life == 0 {
        return 0;
    }
    let lambda = 0.5f64.powf(1.0 / half_life as f64);
    ((lambda * (1u64 << FRAC) as f64).round() as u64).min((1u64 << FRAC) - 1)
}

/// EWMA-smoothed sparse demand ledger with per-key dirty tracking.
///
/// Owns the current epoch's raw [`SparseDemand`]; epoch boundaries fold it
/// into the smoothed fixed-point ledger via [`DecayingDemand::decay_merge`].
#[derive(Debug, Clone)]
pub struct DecayingDemand {
    n: usize,
    half_life: u32,
    lambda_fp: u64,
    /// Raw demand of the current (not yet merged) epoch.
    epoch: SparseDemand,
    /// Smoothed pair → fixed-point count; entries pruned at zero.
    smoothed: HashMap<u64, u64>,
    /// Exact sum of all `smoothed` entries.
    total_fp: u64,
    /// Rounded per-key weight the last plan consumed, per key (absent =
    /// planned at weight 0). Baselines update only for the key ranges a
    /// plan actually patched, so drift in untouched regions keeps
    /// accumulating until a patch covers it.
    planned: HashMap<NodeKey, u64>,
}

impl DecayingDemand {
    /// An empty ledger over keys `1..=n` with the given half-life in
    /// epochs (`0` = no cross-epoch memory: each merge replaces the
    /// smoothed ledger with the epoch's raw counts).
    pub fn new(n: usize, half_life: u32) -> DecayingDemand {
        DecayingDemand {
            n,
            half_life,
            lambda_fp: lambda_fp(half_life),
            epoch: SparseDemand::new(n),
            smoothed: HashMap::new(),
            total_fp: 0,
            planned: HashMap::new(),
        }
    }

    /// Number of nodes in the keyspace.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Configured half-life in epochs (0 = no memory).
    pub fn half_life(&self) -> u32 {
        self.half_life
    }

    /// The per-epoch decay multiplier exactly as represented in fixed
    /// point (`λ = lambda_fp / 2^FRAC ≈ 2^(−1/half_life)`) — the value an
    /// f64 reference model must use to reproduce the ledger's arithmetic
    /// up to per-merge floor rounding.
    pub fn lambda(&self) -> f64 {
        self.lambda_fp as f64 / (1u64 << FRAC) as f64
    }

    /// Read access to the current (unmerged) epoch's raw ledger.
    pub fn epoch(&self) -> &SparseDemand {
        &self.epoch
    }

    /// Records one `u → v` request into the current epoch.
    #[inline]
    pub fn record(&mut self, u: NodeKey, v: NodeKey) {
        self.epoch.record(u, v);
    }

    /// Records `w` requests `u → v` into the current epoch.
    #[inline]
    pub fn record_many(&mut self, u: NodeKey, v: NodeKey, w: u64) {
        self.epoch.record_many(u, v, w);
    }

    /// Smoothed demand from `u` to `v`, rounded to the nearest integer
    /// (excludes the current unmerged epoch).
    pub fn get(&self, u: NodeKey, v: NodeKey) -> u64 {
        round_fp(self.smoothed.get(&pack(u, v)).copied().unwrap_or(0))
    }

    /// Smoothed demand in raw fixed-point units (testing hook for the
    /// EWMA arithmetic proptests).
    pub fn get_fp(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.smoothed.get(&pack(u, v)).copied().unwrap_or(0)
    }

    /// Total smoothed demand, rounded (excludes the unmerged epoch).
    pub fn total(&self) -> u64 {
        round_fp(self.total_fp)
    }

    /// Exact fixed-point total (sum of all smoothed entries).
    pub fn total_fp(&self) -> u64 {
        self.total_fp
    }

    /// Number of distinct pairs in the smoothed ledger.
    pub fn distinct_pairs(&self) -> usize {
        self.smoothed.len()
    }

    /// True when both the smoothed ledger and the current epoch are empty.
    pub fn is_empty(&self) -> bool {
        self.smoothed.is_empty() && self.epoch.is_empty()
    }

    /// Epoch boundary: decays the smoothed ledger by one half-life step
    /// and folds the current epoch's raw counts in, then clears the epoch.
    ///
    /// Decay multiplies each entry by `λ` rounding **down**, so every
    /// un-refreshed entry strictly decreases and is pruned on reaching
    /// zero (bounded memory); the fold adds exact fixed-point values, so
    /// with `half_life = 0` the smoothed ledger equals the epoch's raw
    /// counts exactly.
    pub fn decay_merge(&mut self) {
        let lam = self.lambda_fp;
        let mut total = 0u64;
        if lam == 0 {
            self.smoothed.clear();
        } else {
            // ksan-allow: determinism per-entry decay plus a commutative total; visit order cannot change the result
            self.smoothed.retain(|_, v| {
                *v = ((*v as u128 * lam as u128) >> FRAC) as u64;
                total += *v;
                *v > 0
            });
        }
        // Unsorted iteration is fine here: the fold is commutative, exact
        // u64 addition, so the merged ledger is identical in any order —
        // no need to pay the canonical sort.
        for (u, v, c) in self.epoch.pairs_unsorted() {
            let fp = c << FRAC;
            *self.smoothed.entry(pack(u, v)).or_insert(0) += fp;
            total += fp;
        }
        self.total_fp = total;
        self.epoch.clear();
    }

    /// Forgets everything: smoothed ledger, current epoch, and planned
    /// baselines (capacity retained).
    pub fn clear(&mut self) {
        self.smoothed.clear();
        self.total_fp = 0;
        self.epoch.clear();
        self.planned.clear();
    }

    /// All smoothed `(u, v, count)` entries with nonzero rounded count, in
    /// canonical row-major order.
    pub fn pairs_sorted(&self) -> Vec<(NodeKey, NodeKey, u64)> {
        let mut pairs: Vec<(NodeKey, NodeKey, u64)> = self
            .smoothed
            // ksan-allow: determinism collected fully and sorted canonically below
            .iter()
            .filter_map(|(&p, &fp)| {
                let c = round_fp(fp);
                (c > 0).then(|| {
                    let (u, v) = unpack(p);
                    (u, v, c)
                })
            })
            .collect();
        pairs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        pairs
    }

    /// Rounded smoothed per-key weights (each pair credits both
    /// endpoints), sorted by key, zero-weight keys omitted. The
    /// fixed-point sums are rounded once per key, so with `half_life = 0`
    /// this equals `SparseDemand::key_weights` of the last epoch exactly.
    pub fn key_weights(&self) -> Vec<(NodeKey, u64)> {
        let mut w: HashMap<NodeKey, u64> = HashMap::with_capacity(self.smoothed.len());
        // ksan-allow: determinism commutative accumulation; the result is sorted by key below
        for (&p, &fp) in &self.smoothed {
            let (u, v) = unpack(p);
            *w.entry(u).or_insert(0) += fp;
            *w.entry(v).or_insert(0) += fp;
        }
        let mut out: Vec<(NodeKey, u64)> = w
            // ksan-allow: determinism collected fully and sorted by key below
            .into_iter()
            .filter_map(|(key, fp)| {
                let c = round_fp(fp);
                (c > 0).then_some((key, c))
            })
            .collect();
        out.sort_unstable_by_key(|&(key, _)| key);
        out
    }

    /// Builds the planner-facing view of the smoothed ledger: rounded key
    /// weights plus the dirty index of per-key change since each key's
    /// last planned baseline. Call after [`DecayingDemand::decay_merge`].
    ///
    /// A key counts as **drifted** once its weight roughly doubled or
    /// halved relative to the baseline (or appeared/vanished); sub-octave
    /// jitter is noise — a weight-balanced tree assigns depth on a log
    /// scale, so sub-factor-2 changes never warrant moving a key, and
    /// counting them would let diffuse ±1 noise across a big range
    /// masquerade as structural drift. Changes entirely at or below
    /// weight 2 are filtered the same way: `ShapeTree::weight_balanced`
    /// gives every key an implicit base weight of 1, so observed weights
    /// in `{1, 2}` are indistinguishable from the cold floor and their
    /// 1 ↔ 2 flips (formally factor-2 moves) carry no placement signal.
    /// A drifted key's dirty mass is the absolute weight change, so
    /// τ-thresholded range queries weigh a hot key's explosion far above
    /// a warm key's flicker.
    pub fn view(&self) -> DemandView<'_> {
        let kw = self.key_weights();
        let mut dirty: Vec<(NodeKey, u64)> = Vec::with_capacity(kw.len());
        for &(key, w) in &kw {
            let base = self.planned.get(&key).copied().unwrap_or(0);
            let delta = w.abs_diff(base);
            if delta > 0 && (w >= 2 * base || 2 * w <= base) && w.max(base) > 2 {
                dirty.push((key, delta));
            }
        }
        // Keys whose weight decayed all the way to zero still differ from
        // a nonzero baseline (membership via binary search on the sorted
        // weights — no per-trigger HashSet build).
        // ksan-allow: determinism dirty keys are sorted immediately below, erasing visit order
        for (&key, &base) in &self.planned {
            if base > 2 && kw.binary_search_by_key(&key, |e| e.0).is_err() {
                dirty.push((key, base));
            }
        }
        dirty.sort_unstable_by_key(|&(key, _)| key);
        DemandView {
            n: self.n,
            weights_pre: prefix_sums(&kw),
            key_weights: kw,
            dirty: DirtyIndex::new(dirty),
            demand: self,
        }
    }

    /// Records the rounded key weights inside the given **sorted,
    /// disjoint** key ranges as the new planned baseline — the ranges a
    /// rebuild plan actually patched. Keys outside every range keep their
    /// old baseline, so their drift keeps counting as dirty.
    pub fn mark_planned(&mut self, ranges: &[(NodeKey, NodeKey)]) {
        if ranges.is_empty() {
            return;
        }
        let kw = self.key_weights();
        self.mark_planned_from(&kw, ranges);
    }

    /// [`DecayingDemand::mark_planned`] with the current rounded key
    /// weights supplied by the caller — the lazy net already holds them
    /// from the plan's [`DemandView`], so the rebuild trigger avoids a
    /// second O(distinct pairs) ledger scan. `key_weights` must be this
    /// ledger's weights as of the last merge
    /// ([`DemandView::into_key_weights`]).
    pub fn mark_planned_from(
        &mut self,
        key_weights: &[(NodeKey, u64)],
        ranges: &[(NodeKey, NodeKey)],
    ) {
        if ranges.is_empty() {
            return;
        }
        debug_assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0), "ranges overlap");
        let in_ranges = |key: NodeKey| {
            let i = ranges.partition_point(|&(_, hi)| hi < key);
            i < ranges.len() && ranges[i].0 <= key
        };
        // ksan-allow: determinism per-key membership predicate; the surviving set is order-independent
        self.planned.retain(|&key, _| !in_ranges(key));
        for &(key, w) in key_weights {
            if in_ranges(key) {
                self.planned.insert(key, w);
            }
        }
    }
}

/// Mass of entries with key in `[a, b]` given by-key sorted entries and
/// their prefix sums — the one copy of the boundary logic behind
/// [`DirtyIndex::range_mass`] and [`DemandView::weight_mass`]. Inverted
/// ranges are empty, never an underflow.
fn range_mass_over(entries: &[(NodeKey, u64)], pre: &[u64], a: NodeKey, b: NodeKey) -> u64 {
    if a > b {
        return 0;
    }
    let lo = entries.partition_point(|&(key, _)| key < a);
    let hi = entries.partition_point(|&(key, _)| key <= b);
    pre[hi] - pre[lo]
}

/// `pre[i]` = sum of the first `i` weights — the range-mass backbone
/// shared by [`DemandView::weight_mass`] and [`DirtyIndex`].
fn prefix_sums(entries: &[(NodeKey, u64)]) -> Vec<u64> {
    let mut pre = Vec::with_capacity(entries.len() + 1);
    let mut acc = 0u64;
    pre.push(0);
    for &(_, w) in entries {
        acc += w;
        pre.push(acc);
    }
    pre
}

/// The demand snapshot a rebuild planner consumes: node count, rounded
/// per-key weights, canonical-order pair counts, and the dirty index of
/// demand change since the last plan.
///
/// Constructed by [`DecayingDemand::view`] (smoothed, dirty vs planned
/// baselines); pair queries read through to that ledger.
pub struct DemandView<'a> {
    n: usize,
    key_weights: Vec<(NodeKey, u64)>,
    /// Prefix sums over `key_weights` backing [`DemandView::weight_mass`].
    weights_pre: Vec<u64>,
    dirty: DirtyIndex,
    demand: &'a DecayingDemand,
}

impl<'a> DemandView<'a> {
    /// Number of nodes in the keyspace.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounded per-key weights sorted by key (zero-weight keys omitted) —
    /// the input of the weight-balanced policies.
    pub fn key_weights(&self) -> &[(NodeKey, u64)] {
        &self.key_weights
    }

    /// Per-key weights restricted to keys in `[a, b]` (a sorted subslice).
    pub fn key_weights_in(&self, a: NodeKey, b: NodeKey) -> &[(NodeKey, u64)] {
        let lo = self.key_weights.partition_point(|&(key, _)| key < a);
        let hi = self.key_weights.partition_point(|&(key, _)| key <= b);
        &self.key_weights[lo..hi]
    }

    /// All `(u, v, count)` pair entries in canonical row-major order
    /// (materialized on demand — only the dense-DP policies need pairs).
    pub fn pairs_sorted(&self) -> Vec<(NodeKey, NodeKey, u64)> {
        self.demand.pairs_sorted()
    }

    /// Total demand (sum of all pair counts, rounded for smoothed views).
    pub fn total(&self) -> u64 {
        self.demand.total()
    }

    /// The dirty index: per-key absolute weight change since the last
    /// planned baseline, with O(log) range-mass queries.
    pub fn dirty(&self) -> &DirtyIndex {
        &self.dirty
    }

    /// Total demand weight of keys in `[a, b]` (two binary searches) —
    /// the denominator a planner compares dirty mass against to decide
    /// whether a range's demand profile has fundamentally changed.
    pub fn weight_mass(&self, a: NodeKey, b: NodeKey) -> u64 {
        range_mass_over(&self.key_weights, &self.weights_pre, a, b)
    }

    /// Consumes the view, handing back its key-weight vector — so a
    /// rebuild trigger can feed [`DecayingDemand::mark_planned_from`]
    /// without a second ledger scan.
    pub fn into_key_weights(self) -> Vec<(NodeKey, u64)> {
        self.key_weights
    }
}

/// Prefix-summed per-key change mass: lets a planner ask "how much did
/// demand change inside key range `[a, b]` since the last rebuild" in two
/// binary searches.
#[derive(Debug, Clone, Default)]
pub struct DirtyIndex {
    /// `(key, |Δweight|)` sorted by key, zero deltas omitted.
    keys: Vec<(NodeKey, u64)>,
    /// `pre[i]` = sum of the first `i` deltas.
    pre: Vec<u64>,
}

impl DirtyIndex {
    /// Builds the index from by-key sorted `(key, change)` entries.
    pub fn new(keys: Vec<(NodeKey, u64)>) -> DirtyIndex {
        debug_assert!(keys.windows(2).all(|w| w[0].0 < w[1].0));
        let pre = prefix_sums(&keys);
        DirtyIndex { keys, pre }
    }

    /// Total change mass across all keys.
    pub fn total(&self) -> u64 {
        *self.pre.last().unwrap_or(&0)
    }

    /// Change mass of keys in `[a, b]` (0 for an inverted/empty range —
    /// never an underflow).
    pub fn range_mass(&self, a: NodeKey, b: NodeKey) -> u64 {
        range_mass_over(&self.keys, &self.pre, a, b)
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The raw `(key, change)` entries, sorted by key.
    pub fn entries(&self) -> &[(NodeKey, u64)] {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_memory_half_life_reproduces_the_epoch_exactly() {
        let mut d = DecayingDemand::new(50, 0);
        let mut s = SparseDemand::new(50);
        for &(u, v, w) in &[(1u32, 2u32, 3u64), (7, 40, 1), (2, 1, 9)] {
            d.record_many(u, v, w);
            s.record_many(u, v, w);
        }
        d.decay_merge();
        assert_eq!(d.pairs_sorted(), s.pairs_sorted());
        assert_eq!(d.key_weights(), s.key_weights());
        assert_eq!(d.total(), s.total());
        assert!(d.epoch().is_empty(), "merge must clear the epoch");
        // A second merge with an empty epoch wipes everything (λ = 0).
        d.decay_merge();
        assert_eq!(d.total(), 0);
        assert_eq!(d.distinct_pairs(), 0);
    }

    #[test]
    fn half_life_halves_after_h_epochs() {
        let h = 4u32;
        let mut d = DecayingDemand::new(10, h);
        d.record_many(1, 2, 1000);
        d.decay_merge();
        let start = d.get(1, 2);
        assert_eq!(start, 1000);
        for _ in 0..h {
            d.decay_merge(); // empty epochs: pure decay
        }
        let halved = d.get(1, 2);
        assert!(
            (halved as i64 - 500).abs() <= 2,
            "after {h} epochs 1000 should decay to ~500, got {halved}"
        );
    }

    #[test]
    fn unrefreshed_pairs_decay_to_zero_and_are_pruned() {
        let mut d = DecayingDemand::new(10, 2);
        d.record_many(3, 4, 5);
        d.decay_merge();
        let mut merges = 0;
        while d.distinct_pairs() > 0 {
            d.decay_merge();
            merges += 1;
            assert!(merges < 200, "entry never pruned");
        }
        assert_eq!(d.total_fp(), 0);
    }

    #[test]
    fn dirty_tracks_change_since_mark_planned() {
        let mut d = DecayingDemand::new(100, 0);
        d.record_many(10, 20, 6);
        d.decay_merge();
        // Nothing planned yet: everything is dirty.
        let v = d.view();
        assert_eq!(v.dirty().total(), 12); // both endpoints credited 6
        d.mark_planned(&[(1, 100)]);
        // Same demand again: weights unchanged → clean.
        d.record_many(10, 20, 6);
        d.decay_merge();
        assert_eq!(d.view().dirty().total(), 0);
        // New traffic elsewhere: only those keys dirty.
        d.record_many(50, 60, 3);
        d.record_many(10, 20, 6);
        d.decay_merge();
        let v = d.view();
        assert_eq!(v.dirty().range_mass(50, 60), 6);
        assert_eq!(v.dirty().range_mass(1, 40), 0);
    }

    #[test]
    fn lambda_fp_is_pinned_for_common_half_lives() {
        // Golden values for the one f64-derived constant in the ledger:
        // if a platform's powf rounds differently, this fails loudly
        // instead of letting replicas silently desynchronize.
        for (h, want) in [
            (1u32, 32768u64),
            (2, 46341),
            (4, 55109),
            (8, 60097),
            (16, 62757),
            (64, 64830),
        ] {
            assert_eq!(lambda_fp(h), want, "half_life {h}");
        }
        assert_eq!(lambda_fp(0), 0);
    }

    #[test]
    fn huge_half_life_still_decays() {
        // Regression: past H ≈ 90 852 the rounded multiplier would
        // saturate to 1.0 and never forget; the clamp keeps decay strict.
        let mut d = DecayingDemand::new(10, u32::MAX);
        assert!(d.lambda() < 1.0);
        d.record_many(1, 2, 5);
        d.decay_merge();
        let before = d.get_fp(1, 2);
        d.decay_merge(); // empty epoch: pure decay
        assert!(
            d.get_fp(1, 2) < before,
            "entry must strictly decrease under any positive half-life"
        );
    }

    #[test]
    fn sub_base_weight_flicker_is_not_dirty() {
        // Weight-1↔2 flips sit at the implicit +1 base weight of the
        // weight-balanced builder: formally factor-2 changes, but they
        // carry no placement signal and must not count as drift.
        let mut d = DecayingDemand::new(100, 0);
        d.record_many(10, 20, 1);
        d.decay_merge();
        d.mark_planned(&[(1, 100)]);
        d.record_many(10, 20, 2);
        d.decay_merge();
        assert_eq!(d.view().dirty().total(), 0, "1→2 flicker counted as drift");
        // A genuine jump clears both the factor-2 and the floor filter.
        d.record_many(10, 20, 40);
        d.decay_merge();
        assert!(d.view().dirty().range_mass(10, 20) >= 76);
    }

    #[test]
    fn mark_planned_only_resets_covered_ranges() {
        let mut d = DecayingDemand::new(100, 0);
        d.record_many(5, 6, 4);
        d.record_many(90, 91, 8);
        d.decay_merge();
        d.mark_planned(&[(1, 10)]); // only the left region was patched
        let v = d.view();
        assert_eq!(v.dirty().range_mass(1, 10), 0);
        assert_eq!(
            v.dirty().range_mass(80, 100),
            16,
            "uncovered drift persists"
        );
    }

    #[test]
    fn decayed_to_zero_keys_count_as_dirty() {
        let mut d = DecayingDemand::new(50, 0);
        d.record_many(7, 8, 5);
        d.decay_merge();
        d.mark_planned(&[(1, 50)]);
        // Next epoch has no traffic at all: with half_life 0 the weights
        // drop to zero, which is a change of the full baseline.
        d.decay_merge();
        let v = d.view();
        assert_eq!(v.dirty().range_mass(7, 8), 10);
    }

    #[test]
    fn dirty_index_range_masses_are_prefix_consistent() {
        let idx = DirtyIndex::new(vec![(2, 5), (7, 1), (8, 4), (40, 10)]);
        assert_eq!(idx.total(), 20);
        assert_eq!(idx.range_mass(1, 100), 20);
        assert_eq!(idx.range_mass(3, 6), 0);
        assert_eq!(idx.range_mass(7, 8), 5);
        assert_eq!(idx.range_mass(8, 40), 14);
    }

    #[test]
    fn key_weights_in_slices_by_range() {
        let mut d = DecayingDemand::new(100, 0);
        d.record_many(10, 20, 1);
        d.record_many(30, 40, 2);
        d.decay_merge();
        let v = d.view();
        assert_eq!(v.key_weights_in(15, 35), &[(20, 1), (30, 2)]);
        assert_eq!(v.key_weights_in(41, 100), &[]);
    }
}
