//! The paper's novel rotations: `k-semi-splay`, `k-splay`, and their d-node
//! generalization (Section 4.1).
//!
//! All three are instances of one procedure, sketched at the end of
//! Section 4.1: given a downward path `x₁ → x₂ → … → x_d`,
//!
//! 1. merge the d routing arrays (and the `d(k-1)+1` hanging subtrees) into
//!    one virtual super-node;
//! 2. re-form the nodes in order `x₁, …, x_d`: each takes `k-1`
//!    *consecutive* elements whose span covers its own key, consumes the
//!    `k` subtrees between them, collapses into a single subtree occupying
//!    its gap, and is removed from the array;
//! 3. the last node `x_d` takes the remaining `k-1` elements and becomes the
//!    root of the fragment, reattached where `x₁` hung.
//!
//! With `d = 2` this is **k-semi-splay** (Fig. 3: promote child over
//! parent, ≙ zig); with `d = 3` it is **k-splay** (Figs. 4–6). The paper's
//! two k-splay cases emerge from window placement: when the keys of `x₁`
//! and `x₂` are distant, their windows avoid each other and both end up as
//! direct children of `x₃` (case 1 ≙ zig-zag); when close, `x₂`'s window
//! spans `x₁`'s collapsed gap, producing the chain `x₃ → x₂ → x₁`
//! (case 2 ≙ zig-zig).
//!
//! The *window policy* decides among valid windows. [`WindowPolicy::Paper`]
//! (1. avoid spanning a pending path key's gap when possible, 2. centre on
//! the own key's gap, 3. leftmost) reproduces classic binary splay-tree
//! rotations move-for-move at `k = 2`, which the differential tests against
//! `splaynet-classic` verify. `Leftmost`/`Rightmost` are ablation variants.

use crate::key::{key_image, NodeIdx, RoutingKey, NIL};
use crate::net::ServeCost;
use crate::tree::KstTree;

/// Policy choosing a window position when several cover the key's gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowPolicy {
    /// Avoid pending path keys, then centre, then leftmost (the paper's
    /// case rules; ≙ classic splay rotations at k = 2).
    #[default]
    Paper,
    /// Always the leftmost valid window.
    Leftmost,
    /// Always the rightmost valid window.
    Rightmost,
}

impl KstTree {
    /// Generalized k-splay on a downward path (`path[i+1]` must be a child
    /// of `path[i]`, `path.len() >= 2`). After the call `path.last()`
    /// occupies the old position of `path\[0\]`. Returns the adjustment
    /// cost (`routing: 0`): `d − 1` rotations and the links added plus
    /// removed.
    ///
    /// Hot-path implementation notes: the merged super-node is assembled in
    /// a **single pass** (one descent copying prefixes, one ascent copying
    /// suffixes — no `Vec::insert` shifting), all working state lives in
    /// the tree's persistent scratch arenas (zero heap allocation once the
    /// arenas are warm — `reserve_scratch` makes even the first call
    /// allocation-free), and the key-gap positions of every path node are
    /// computed once on the merged array and then maintained incrementally
    /// as each re-form step consumes its window, instead of being
    /// re-searched from scratch per step.
    pub fn restructure(&mut self, path: &[NodeIdx], policy: WindowPolicy) -> ServeCost {
        let d = path.len();
        assert!(d >= 2, "restructure needs at least two nodes");
        let k = self.k();
        let km1 = k - 1;
        debug_assert!(self.is_downward_path(path), "not a downward path");

        // A rotation window reattaches whole subtrees, so exact depth-cache
        // maintenance would cost O(moved subtrees), not O(path): disarm it
        // in O(1) instead (releasing memory is not an allocation, so the
        // zero-alloc serve contract is untouched).
        self.disarm_depth_cache();

        let top = path[0];
        let anchor = self.parent(top);
        let anchor_slot = if anchor == NIL {
            usize::MAX
        } else {
            self.slot_of(anchor, top)
        };
        let (frag_lo, frag_hi) = self.bounds(top);

        // --- 1. merge (single pass) ----------------------------------------
        // Scratch arenas: elems (d·(k-1)), slots (d·(k-1)+1), per-slot
        // origin tags, slot positions of each path child within its parent,
        // and key-gap positions.
        let mut elems = std::mem::take(&mut self.scratch_elems);
        let mut slots = std::mem::take(&mut self.scratch_slots);
        let mut origin = std::mem::take(&mut self.scratch_origin);
        let mut pos = std::mem::take(&mut self.scratch_pos);
        let mut gaps = std::mem::take(&mut self.scratch_gaps);
        elems.clear();
        slots.clear();
        origin.clear();
        pos.clear();
        gaps.clear();

        // The merged array is the nested splice of each node's arrays into
        // its parent's slot gap. Emit it front-to-back: descending, copy the
        // strict prefix of each node up to the slot holding the next path
        // node; at the deepest node copy everything; ascending, copy the
        // suffixes. No element is ever moved twice. `origin[t]` tags each
        // merged slot with the path index of the node it hung from.
        for w in 0..d - 1 {
            let p = self.slot_of(path[w], path[w + 1]);
            pos.push(p as u32);
            elems.extend_from_slice(&self.elems(path[w])[..p]);
            slots.extend_from_slice(&self.children(path[w])[..p]);
            origin.resize(slots.len(), w as u32);
        }
        elems.extend_from_slice(self.elems(path[d - 1]));
        slots.extend_from_slice(self.children(path[d - 1]));
        origin.resize(slots.len(), (d - 1) as u32);
        for w in (0..d - 1).rev() {
            let p = pos[w] as usize;
            elems.extend_from_slice(&self.elems(path[w])[p..]);
            slots.extend_from_slice(&self.children(path[w])[p + 1..]);
            origin.resize(slots.len(), w as u32);
        }
        debug_assert_eq!(elems.len(), d * km1);
        debug_assert_eq!(slots.len(), d * km1 + 1);
        debug_assert!(elems.windows(2).all(|w| w[0] < w[1]));

        // Key-gap position of every path node in the merged array, computed
        // once; re-form steps below keep them current incrementally.
        for &node in path {
            gaps.push(elems.partition_point(|&e| e < key_image(node + 1)));
        }

        // Link accounting without materializing edge sets: the affected
        // undirected links before the restructure are the anchor edge, the
        // d-1 path edges, and one edge per non-NIL merged slot; afterwards,
        // the same count. An edge survives iff a consumed slot lands under
        // the same node it hung from (`origin` match), or an adjacent path
        // pair swaps orientation (a collapsed path node consumed by its own
        // old path child — a flip). Everything else is one removal plus one
        // addition, so links_changed = 2·(total − matches).
        let n_s = slots.iter().filter(|&&s| s != NIL).count() as u64;
        let affected = n_s + (d as u64 - 1) + u64::from(anchor != NIL);
        let mut matches = 0u64;
        // Origin tag for a path node collapsed at re-form step `j`.
        const COLLAPSED: u32 = 1 << 31;

        // --- 2. re-form nodes ---------------------------------------------
        for i in 0..d {
            let node = path[i];
            let m = elems.len();
            let gap = gaps[i];
            debug_assert_eq!(gap, elems.partition_point(|&e| e < key_image(node + 1)));
            let (a, consumed) = if i + 1 == d {
                // Fragment root takes everything that remains.
                debug_assert_eq!(m, km1);
                (0, km1 + 1)
            } else {
                let a_min = gap.saturating_sub(km1);
                let a_max = gap.min(m - km1);
                debug_assert!(a_min <= a_max);
                (
                    choose_window(policy, a_min, a_max, gap, km1, &gaps[i + 1..]),
                    km1 + 1,
                )
            };
            for t in a..a + consumed {
                if slots[t] == NIL {
                    continue;
                }
                let o = origin[t];
                if o & COLLAPSED == 0 {
                    // Original subtree slot: unchanged iff it stays under
                    // the node it hung from.
                    matches += u64::from(o as usize == i);
                } else {
                    // Collapsed path node from step j: the old edge
                    // (path[j], path[j+1]) survives with flipped
                    // orientation iff path[j+1] consumes it now.
                    matches += u64::from((o & !COLLAPSED) as usize + 1 == i);
                }
            }
            if i + 1 == d {
                self.install_node(node, &elems, &slots, frag_lo, frag_hi);
                break;
            }
            let lo = if a == 0 { frag_lo } else { elems[a - 1] };
            let hi = if a + km1 == m {
                frag_hi
            } else {
                elems[a + km1]
            };
            self.install_node(node, &elems[a..a + km1], &slots[a..=a + km1], lo, hi);
            // Compact in place (drain/splice without the iterator
            // machinery): remove the consumed window, leave the collapsed
            // node in its gap.
            elems.copy_within(a + km1.., a);
            elems.truncate(m - km1);
            slots[a] = node;
            slots.copy_within(a + km1 + 1.., a + 1);
            slots.truncate(m + 1 - km1);
            origin[a] = COLLAPSED | i as u32;
            origin.copy_within(a + km1 + 1.., a + 1);
            origin.truncate(m + 1 - km1);
            // Incremental window maintenance: removing elems[a..a+km1]
            // shifts any pending gap position q down by however many of the
            // removed elements preceded it — exactly clamp(q - a, 0, km1).
            for g in gaps[i + 1..].iter_mut() {
                *g -= (*g).saturating_sub(a).min(km1);
            }
        }

        // --- 3. reattach ----------------------------------------------------
        let new_top = path[d - 1];
        self.attach(new_top, anchor, anchor_slot);

        self.scratch_elems = elems;
        self.scratch_slots = slots;
        self.scratch_origin = origin;
        self.scratch_pos = pos;
        self.scratch_gaps = gaps;
        ServeCost {
            links_changed: 2 * (affected - matches),
            rotations: (d - 1) as u64,
            ..ServeCost::default()
        }
    }

    /// k-semi-splay (Fig. 3): promote `child` over its parent.
    pub fn k_semi_splay(&mut self, child: NodeIdx, policy: WindowPolicy) -> ServeCost {
        let p = self.parent(child);
        assert!(p != NIL, "cannot semi-splay the root");
        self.restructure(&[p, child], policy)
    }

    /// k-splay (Figs. 4–6): promote `node` over its parent and grandparent.
    pub fn k_splay(&mut self, node: NodeIdx, policy: WindowPolicy) -> ServeCost {
        let p = self.parent(node);
        assert!(p != NIL, "node has no parent");
        let g = self.parent(p);
        assert!(g != NIL, "node has no grandparent");
        self.restructure(&[g, p, node], policy)
    }

    fn is_downward_path(&self, path: &[NodeIdx]) -> bool {
        path.windows(2).all(|w| self.parent(w[1]) == w[0])
    }

    fn install_node(
        &mut self,
        node: NodeIdx,
        elems: &[RoutingKey],
        slots: &[NodeIdx],
        lo: RoutingKey,
        hi: RoutingKey,
    ) {
        let k = self.k();
        debug_assert_eq!(elems.len(), k - 1);
        debug_assert_eq!(slots.len(), k);
        self.elems_mut(node).copy_from_slice(elems);
        self.children_mut(node).copy_from_slice(slots);
        self.set_bounds(node, lo, hi);
        for (j, &c) in slots.iter().enumerate() {
            if c != NIL {
                self.set_parent(c, node);
                let clo = if j == 0 { lo } else { elems[j - 1] };
                let chi = if j == k - 1 { hi } else { elems[j] };
                self.set_bounds(c, clo, chi);
            }
        }
    }
}

/// Chooses the window start within `[a_min, a_max]` for a node whose key
/// sits at `gap` in the current merged array. `pend_gaps` holds the
/// (incrementally maintained) gap positions of the pending path keys; only
/// the first 8 are considered.
fn choose_window(
    policy: WindowPolicy,
    a_min: usize,
    a_max: usize,
    gap: usize,
    km1: usize,
    pend_gaps: &[usize],
) -> usize {
    match policy {
        WindowPolicy::Leftmost => a_min,
        WindowPolicy::Rightmost => a_max,
        WindowPolicy::Paper => {
            if a_min == a_max {
                return a_min;
            }
            let np = pend_gaps.len().min(8);
            // A window starting at `a` spans gaps a..=a+km1.
            let clean =
                |a: usize| -> bool { pend_gaps[..np].iter().all(|&q| q < a || q > a + km1) };
            let ideal = gap as i64 - (km1 as i64 + 1) / 2;
            let score = |a: usize| -> i64 { (a as i64 - ideal).abs() };
            let mut best = usize::MAX;
            let mut best_score = i64::MAX;
            let mut any_clean = false;
            for a in a_min..=a_max {
                if clean(a) {
                    any_clean = true;
                }
            }
            for a in a_min..=a_max {
                if any_clean && !clean(a) {
                    continue;
                }
                let s = score(a);
                if s < best_score || (s == best_score && a < best) {
                    best_score = s;
                    best = a;
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::validate;

    fn check_conserved(t1: &KstTree, t2: &KstTree) {
        assert_eq!(t1.element_multiset(), t2.element_multiset());
    }

    #[test]
    fn semi_splay_promotes_child() {
        for k in 2..=8 {
            let mut t = KstTree::balanced(k, 60);
            let before = t.clone();
            // pick the deepest node
            let deepest = t.nodes().max_by_key(|&v| t.depth(v)).unwrap();
            let p = t.parent(deepest);
            let gp = t.parent(p);
            let stats = t.k_semi_splay(deepest, WindowPolicy::Paper);
            assert!(stats.links_changed > 0);
            validate(&t).unwrap_or_else(|e| panic!("k={k}: {e}"));
            check_conserved(&before, &t);
            assert_eq!(t.parent(deepest), gp, "child must take parent's place");
        }
    }

    #[test]
    fn k_splay_promotes_grandchild() {
        for k in 2..=8 {
            let mut t = KstTree::balanced(k, 200);
            let before = t.clone();
            let deepest = t.nodes().max_by_key(|&v| t.depth(v)).unwrap();
            if t.depth(deepest) < 2 {
                continue;
            }
            let g = t.parent(t.parent(deepest));
            let gg = t.parent(g);
            t.k_splay(deepest, WindowPolicy::Paper);
            validate(&t).unwrap_or_else(|e| panic!("k={k}: {e}"));
            check_conserved(&before, &t);
            assert_eq!(
                t.parent(deepest),
                gg,
                "grandchild must take grandparent's place"
            );
        }
    }

    #[test]
    fn repeated_restructure_keeps_invariants() {
        for k in [2usize, 3, 5, 10] {
            let mut t = KstTree::balanced(k, 100);
            let snapshot = t.element_multiset();
            let mut x = 1u64;
            for _ in 0..500 {
                // xorshift for determinism without rand dependency
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % 100) as NodeIdx;
                let d = t.depth(v);
                if d >= 2 {
                    t.k_splay(v, WindowPolicy::Paper);
                } else if d == 1 {
                    t.k_semi_splay(v, WindowPolicy::Paper);
                }
            }
            validate(&t).unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert_eq!(t.element_multiset(), snapshot, "elements not conserved");
        }
    }

    #[test]
    fn all_policies_preserve_invariants() {
        for policy in [
            WindowPolicy::Paper,
            WindowPolicy::Leftmost,
            WindowPolicy::Rightmost,
        ] {
            let mut t = KstTree::balanced(4, 120);
            let mut x = 99u64;
            for _ in 0..300 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % 120) as NodeIdx;
                if t.depth(v) >= 2 {
                    t.k_splay(v, policy);
                }
            }
            validate(&t).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn deep_generalized_restructure() {
        // d = 4 and d = 5 paths also work.
        let mut t = KstTree::balanced(2, 500);
        let deepest = t.nodes().max_by_key(|&v| t.depth(v)).unwrap();
        assert!(t.depth(deepest) >= 4);
        let p1 = t.parent(deepest);
        let p2 = t.parent(p1);
        let p3 = t.parent(p2);
        let anchor = t.parent(p3);
        t.restructure(&[p3, p2, p1, deepest], WindowPolicy::Paper);
        validate(&t).unwrap();
        assert_eq!(t.parent(deepest), anchor);
    }
}
