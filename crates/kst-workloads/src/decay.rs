//! The sparse demand ledger and the planner-facing demand view.
//!
//! The lazy meta-algorithm (Feder et al., the paper's Section 1) and the
//! live-resharding planner only ever observe the pairs a trace actually
//! requests, and real traces touch far fewer than n² pairs (the
//! sparse-demand insight of *Toward Demand-Aware Networking*). A dense n×n
//! count array would cost 8 TB at the engine's 10⁶-node per-shard scale,
//! so [`DecayingDemand`] stores one hash-map entry per **distinct directed
//! pair**: memory and clearing an epoch are O(distinct pairs).
//!
//! Forgetting everything at each rebuild boundary is exactly wrong for the
//! non-stationary traffic that paper argues real datacenter workloads
//! exhibit: a lazy net that re-optimizes from single-epoch samples
//! thrashes between unrelated optima. So the ledger keeps an
//! **exponentially weighted moving average** of the per-pair demand across
//! epochs: at every epoch boundary ([`DecayingDemand::decay_merge`]) the
//! smoothed ledger is multiplied by `λ = 2^(−1/half_life)` and the raw
//! epoch counts are added, so demand observed `half_life` epochs ago
//! contributes half of what fresh demand does. `half_life = 0` disables
//! the memory entirely (λ = 0): each merge replaces the smoothed ledger
//! with the epoch's raw counts bit-for-bit, the classic per-epoch
//! semantics the differential tests rely on.
//!
//! Iteration order of a hash map is not deterministic, so every exposed
//! traversal ([`DecayingDemand::pairs_sorted`],
//! [`DecayingDemand::key_weights`]) sorts into canonical order first, and
//! the policies consuming the ledger are bit-reproducible across runs and
//! platforms.
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
//! weights the last plan was built from ([`DecayingDemand::mark_planned`]),
//! and [`DecayingDemand::view`] exposes both the weights and their absolute
//! change since then as [`KeyMass`] indexes — prefix-summed, so a planner
//! can ask "how much demand (or change) lies inside key range `[a, b]`" in
//! O(log) ("which subtree roots saw demand change ≥ τ since the last
//! rebuild").

use crate::trace::NodeKey;
use std::collections::HashMap;
use std::ops::Range;

/// Fractional bits of the fixed-point EWMA counts.
pub const FRAC: u32 = 16;

const HALF: u64 = 1 << (FRAC - 1);

/// Packs a directed pair into one hash key (row-major order-preserving).
#[inline]
fn pack(u: NodeKey, v: NodeKey) -> u64 {
    ((u as u64) << 32) | v as u64
}

#[inline]
fn unpack(p: u64) -> (NodeKey, NodeKey) {
    ((p >> 32) as NodeKey, p as NodeKey)
}

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

/// EWMA-smoothed sparse directed-demand ledger over the keyspace `1..=n`,
/// with per-key dirty tracking.
///
/// Requests land in the current epoch's raw counts; epoch boundaries fold
/// them into the smoothed fixed-point ledger via
/// [`DecayingDemand::decay_merge`]. Recording a pair already in the epoch
/// never allocates; a **new** distinct pair may allocate (amortized
/// hash-map growth), which is the price of output-sensitive memory.
#[derive(Debug, Clone)]
pub struct DecayingDemand {
    n: usize,
    lambda_fp: u64,
    /// Raw pair → count of the current (not yet merged) epoch.
    epoch: HashMap<u64, u64>,
    /// Sum of all `epoch` counts.
    epoch_total: u64,
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
            lambda_fp: lambda_fp(half_life),
            epoch: HashMap::new(),
            epoch_total: 0,
            smoothed: HashMap::new(),
            total_fp: 0,
            planned: HashMap::new(),
        }
    }

    /// Number of nodes in the keyspace.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-epoch decay multiplier exactly as represented in fixed
    /// point (`λ = lambda_fp / 2^FRAC ≈ 2^(−1/half_life)`) — the value an
    /// f64 reference model must use to reproduce the ledger's arithmetic
    /// up to per-merge floor rounding.
    pub fn lambda(&self) -> f64 {
        self.lambda_fp as f64 / (1u64 << FRAC) as f64
    }

    /// Number of distinct directed pairs recorded in the current
    /// (unmerged) epoch.
    pub fn epoch_pairs(&self) -> usize {
        self.epoch.len()
    }

    /// Total requests recorded in the current (unmerged) epoch.
    pub fn epoch_total(&self) -> u64 {
        self.epoch_total
    }

    /// Records one `u → v` request (1-based keys, `u != v`) into the
    /// current epoch.
    #[inline]
    pub fn record(&mut self, u: NodeKey, v: NodeKey) {
        self.record_many(u, v, 1);
    }

    /// Records `w` requests `u → v` into the current epoch.
    #[inline]
    pub fn record_many(&mut self, u: NodeKey, v: NodeKey, w: u64) {
        debug_assert!(u != v, "self-demand ({u},{u})");
        debug_assert!(
            u >= 1 && u as usize <= self.n,
            "key {u} out of 1..={}",
            self.n
        );
        debug_assert!(
            v >= 1 && v as usize <= self.n,
            "key {v} out of 1..={}",
            self.n
        );
        if w == 0 {
            return;
        }
        *self.epoch.entry(pack(u, v)).or_insert(0) += w;
        self.epoch_total += w;
    }

    /// Smoothed demand from `u` to `v`, rounded to the nearest integer
    /// (excludes the current unmerged epoch).
    pub fn get(&self, u: NodeKey, v: NodeKey) -> u64 {
        round_fp(self.get_fp(u, v))
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
    /// and folds the current epoch's raw counts in, then clears the epoch
    /// (capacity retained, so the next epoch records its recurring pairs
    /// without reallocating).
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
        // ksan-allow: determinism commutative, exact u64 fold — the merged ledger is identical in any visit order, so the canonical sort would buy nothing
        for (&p, &c) in &self.epoch {
            let fp = c << FRAC;
            *self.smoothed.entry(p).or_insert(0) += fp;
            total += fp;
        }
        self.total_fp = total;
        self.epoch.clear();
        self.epoch_total = 0;
    }

    /// Forgets everything: smoothed ledger, current epoch, and planned
    /// baselines (capacity retained).
    pub fn clear(&mut self) {
        self.smoothed.clear();
        self.total_fp = 0;
        self.epoch.clear();
        self.epoch_total = 0;
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

    /// Rounded smoothed per-key weights — each pair credits its count to
    /// **both** endpoints — sorted by key, zero-weight keys omitted
    /// (O(distinct pairs)). The fixed-point sums are rounded once per key,
    /// so with `half_life = 0` these are the last epoch's exact integer
    /// key frequencies.
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
    /// weights plus the per-key change since each key's last planned
    /// baseline, both as [`KeyMass`] indexes. Call after
    /// [`DecayingDemand::decay_merge`].
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
        let weights = KeyMass::new(self.key_weights());
        let kw = weights.entries();
        let mut dirty: Vec<(NodeKey, u64)> = Vec::with_capacity(kw.len());
        for &(key, w) in kw {
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
            weights,
            dirty: KeyMass::new(dirty),
            demand: self,
        }
    }

    /// Records `key_weights` inside the given **sorted, disjoint** key
    /// ranges as the new planned baseline — the ranges a rebuild plan
    /// actually patched. Keys outside every range keep their old baseline,
    /// so their drift keeps counting as dirty. `key_weights` must be this
    /// ledger's rounded weights as of the last merge: the lazy net hands
    /// back the ones its plan's view already built
    /// ([`DemandView::into_key_weights`]), so a rebuild trigger scans the
    /// ledger once, not twice.
    pub fn mark_planned(&mut self, key_weights: &[(NodeKey, u64)], ranges: &[(NodeKey, NodeKey)]) {
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

/// The demand snapshot a rebuild planner consumes: node count, rounded
/// per-key weights, canonical-order pair counts, and the per-key change
/// since the last plan.
///
/// Constructed by [`DecayingDemand::view`]; pair queries read through to
/// that ledger.
pub struct DemandView<'a> {
    weights: KeyMass,
    dirty: KeyMass,
    demand: &'a DecayingDemand,
}

impl<'a> DemandView<'a> {
    /// Number of nodes in the keyspace.
    pub fn n(&self) -> usize {
        self.demand.n
    }

    /// Rounded per-key weights (zero-weight keys omitted) — the input of
    /// the weight-balanced policies, and the denominator a planner compares
    /// dirty mass against to decide whether a range's demand profile has
    /// fundamentally changed.
    pub fn weights(&self) -> &KeyMass {
        &self.weights
    }

    /// Per-key absolute weight change since the last planned baseline.
    pub fn dirty(&self) -> &KeyMass {
        &self.dirty
    }

    /// All `(u, v, count)` pair entries in canonical row-major order
    /// (materialized on demand — only the dense-DP policies need pairs).
    pub fn pairs_sorted(&self) -> Vec<(NodeKey, NodeKey, u64)> {
        self.demand.pairs_sorted()
    }

    /// Consumes the view, handing back its key-weight entries — so a
    /// rebuild trigger can feed [`DecayingDemand::mark_planned`] without a
    /// second ledger scan.
    pub fn into_key_weights(self) -> Vec<(NodeKey, u64)> {
        self.weights.entries
    }
}

/// Sorted per-key mass with prefix sums — the one range index over the
/// ledger: a planner asks "how much mass lies on keys in `[a, b]`" in two
/// binary searches. A [`DemandView`] holds two: the key weights and their
/// change since the last plan.
#[derive(Debug, Clone)]
pub struct KeyMass {
    /// `(key, mass)` sorted by key.
    entries: Vec<(NodeKey, u64)>,
    /// `pre[i]` = sum of the first `i` masses.
    pre: Vec<u64>,
}

impl KeyMass {
    /// Builds the index from by-key sorted `(key, mass)` entries.
    pub fn new(entries: Vec<(NodeKey, u64)>) -> KeyMass {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut pre = Vec::with_capacity(entries.len() + 1);
        let mut acc = 0u64;
        pre.push(0);
        for &(_, m) in &entries {
            acc += m;
            pre.push(acc);
        }
        KeyMass { entries, pre }
    }

    /// The `(key, mass)` entries, sorted by key.
    pub fn entries(&self) -> &[(NodeKey, u64)] {
        &self.entries
    }

    /// Total mass across all keys.
    pub fn total(&self) -> u64 {
        self.pre[self.entries.len()]
    }

    /// True when no key carries mass.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mass of keys in `[a, b]` (0 for an inverted range — never an
    /// underflow).
    pub fn range_mass(&self, a: NodeKey, b: NodeKey) -> u64 {
        let span = self.span(a, b);
        self.pre[span.end] - self.pre[span.start]
    }

    /// The entries with key in `[a, b]`, a sorted subslice (empty for an
    /// inverted range).
    pub fn range(&self, a: NodeKey, b: NodeKey) -> &[(NodeKey, u64)] {
        &self.entries[self.span(a, b)]
    }

    /// Entry indices of the keys in `[a, b]`: the one key-range search
    /// behind [`KeyMass::range_mass`] and [`KeyMass::range`].
    fn span(&self, a: NodeKey, b: NodeKey) -> Range<usize> {
        if a > b {
            return 0..0;
        }
        let lo = self.entries.partition_point(|&(key, _)| key < a);
        let hi = self.entries.partition_point(|&(key, _)| key <= b);
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A half-life-0 ledger holding exactly one merged epoch.
    fn merged(n: usize, pairs: &[(NodeKey, NodeKey, u64)]) -> DecayingDemand {
        let mut d = DecayingDemand::new(n, 0);
        for &(u, v, w) in pairs {
            d.record_many(u, v, w);
        }
        d.decay_merge();
        d
    }

    /// Advances the planned baselines over `ranges` to the current weights.
    fn plan_all(d: &mut DecayingDemand, ranges: &[(NodeKey, NodeKey)]) {
        let kw = d.key_weights();
        d.mark_planned(&kw, ranges);
    }

    #[test]
    fn record_is_directed_and_counts_totals() {
        let mut d = DecayingDemand::new(10, 0);
        assert!(d.is_empty());
        d.record(1, 2);
        d.record(1, 2);
        d.record(9, 3);
        assert_eq!((d.epoch_pairs(), d.epoch_total()), (2, 3));
        d.decay_merge();
        assert_eq!(d.get(1, 2), 2);
        assert_eq!(d.get(2, 1), 0, "demand is directed");
        assert_eq!(d.get(9, 3), 1);
        assert_eq!(d.total(), 3);
        assert_eq!(d.distinct_pairs(), 2);
    }

    #[test]
    fn clear_empties_but_keeps_keyspace() {
        let mut d = merged(5, &[(1, 5, 7)]);
        d.record_many(2, 3, 4);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.total(), 0);
        assert_eq!(d.distinct_pairs(), 0);
        assert_eq!((d.epoch_pairs(), d.epoch_total()), (0, 0));
        assert_eq!(d.n(), 5);
        assert_eq!(d.get(1, 5), 0);
    }

    #[test]
    fn pairs_sorted_is_canonical_row_major() {
        // insertion order deliberately scrambled
        let d = merged(
            100,
            &[(50, 3, 1), (2, 90, 1), (2, 4, 1), (50, 1, 1), (7, 8, 1)],
        );
        let keys: Vec<(u32, u32)> = d.pairs_sorted().iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(keys, vec![(2, 4), (2, 90), (7, 8), (50, 1), (50, 3)]);
    }

    #[test]
    fn key_weights_credit_both_endpoints() {
        let d = merged(10, &[(1, 2, 3), (2, 5, 4)]);
        assert_eq!(d.key_weights(), vec![(1, 3), (2, 7), (5, 4)]);
    }

    #[test]
    fn record_zero_is_a_noop() {
        let mut d = DecayingDemand::new(4, 0);
        d.record_many(1, 2, 0);
        assert!(d.is_empty());
        assert_eq!(d.epoch_total(), 0);
        d.decay_merge();
        assert!(d.is_empty());
    }

    #[test]
    fn no_memory_half_life_reproduces_the_epoch_exactly() {
        let mut d = DecayingDemand::new(50, 0);
        for &(u, v, w) in &[(1u32, 2u32, 3u64), (7, 40, 1), (2, 1, 9)] {
            d.record_many(u, v, w);
        }
        assert_eq!((d.epoch_pairs(), d.epoch_total()), (3, 13));
        d.decay_merge();
        assert_eq!(d.pairs_sorted(), vec![(1, 2, 3), (2, 1, 9), (7, 40, 1)]);
        assert_eq!(d.key_weights(), vec![(1, 12), (2, 12), (7, 1), (40, 1)]);
        assert_eq!(d.total(), 13);
        assert_eq!(d.total_fp(), 13 << FRAC, "no rounding at half-life 0");
        assert_eq!(
            (d.epoch_pairs(), d.epoch_total()),
            (0, 0),
            "merge must clear the epoch"
        );
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
        let mut d = merged(100, &[(10, 20, 6)]);
        // Nothing planned yet: everything is dirty.
        let v = d.view();
        assert_eq!(v.dirty().total(), 12); // both endpoints credited 6
        let kw = v.into_key_weights();
        d.mark_planned(&kw, &[(1, 100)]);
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
        assert_eq!(v.weights().range(15, 55), &[(20, 6), (50, 3)]);
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
        let mut d = merged(100, &[(10, 20, 1)]);
        plan_all(&mut d, &[(1, 100)]);
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
        let mut d = merged(100, &[(5, 6, 4), (90, 91, 8)]);
        plan_all(&mut d, &[(1, 10)]); // only the left region was patched
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
        let mut d = merged(50, &[(7, 8, 5)]);
        plan_all(&mut d, &[(1, 50)]);
        // Next epoch has no traffic at all: with half_life 0 the weights
        // drop to zero, which is a change of the full baseline.
        d.decay_merge();
        let v = d.view();
        assert_eq!(v.dirty().range_mass(7, 8), 10);
    }

    #[test]
    fn key_mass_ranges_match_brute_force_sums() {
        let entries = vec![(2, 5), (7, 1), (8, 4), (40, 10)];
        let idx = KeyMass::new(entries.clone());
        assert_eq!(idx.total(), 20);
        assert!(!idx.is_empty());
        assert_eq!(idx.entries(), &entries[..]);
        for a in 0..=42 {
            for b in a..=42 {
                let want: Vec<(NodeKey, u64)> = entries
                    .iter()
                    .copied()
                    .filter(|&(key, _)| a <= key && key <= b)
                    .collect();
                assert_eq!(idx.range(a, b), &want[..], "range [{a},{b}]");
                let mass: u64 = want.iter().map(|&(_, m)| m).sum();
                assert_eq!(idx.range_mass(a, b), mass, "range_mass [{a},{b}]");
            }
        }
        // Inverted ranges are empty, never an underflow or a bad slice.
        assert_eq!(idx.range_mass(8, 7), 0);
        assert_eq!(idx.range(40, 2), &[]);
        assert!(KeyMass::new(Vec::new()).is_empty());
        assert_eq!(KeyMass::new(Vec::new()).range_mass(1, 9), 0);
    }
}
