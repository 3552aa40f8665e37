//! The arena-backed k-ary search tree network (Definition 1 of the paper).
//!
//! Every network node stores:
//! * its permanent key (identifier) — implicit: node with key `κ` lives at
//!   arena index `κ - 1`, so identifiers survive arbitrary rotations by
//!   construction;
//! * a routing array of exactly `k - 1` strictly increasing routing
//!   elements ([`RoutingKey`]s, never key images);
//! * `k` child slots, slot `j` holding a subtree whose keys embed strictly
//!   between elements `j-1` and `j` (with the node's interval bounds at the
//!   extremes);
//! * its interval bounds `(lo, hi)` — the local knowledge a network node
//!   needs for greedy routing (see `routing` module). The stored interval
//!   always contains every key in the node's subtree; it is exact for nodes
//!   touched by a rotation and may be a (safe) superset for nodes whose
//!   enclosing gap widened.
//!
//! # Arena layout invariants
//!
//! Layout is struct-of-arrays over flat vectors — **no per-node `Vec` exists
//! anywhere on the serve path**, and every per-request working set lives in
//! scratch arenas owned by the tree:
//!
//! * `parent[v]` — parent index, `NIL` for the root (stride 1);
//! * `elems[v * (k-1) .. (v+1) * (k-1)]` — the node's `k - 1` strictly
//!   increasing routing elements (stride `k - 1`);
//! * `children[v * k .. (v+1) * k]` — the node's `k` child slots (stride
//!   `k`, `NIL` = empty slot);
//! * `lo[v]` / `hi[v]` — stored interval bounds (stride 1).
//!
//! Strides are fixed at construction; node `v`'s state is always located by
//! multiplication, never by pointer chasing, and rotations only ever
//! `copy_from_slice` whole per-node windows.
//!
//! # Scratch reuse contract
//!
//! The `scratch_*` fields are reusable arenas for [`restructure`] and
//! [`splay_until`] (`crate::restructure` / `crate::splay`): merged element /
//! slot buffers, per-slot origin tags for link accounting, the access
//! path, per-path slot positions, and per-path key-gap positions. The
//! contract is:
//!
//! * a serve-path operation `std::mem::take`s the buffers it needs, clears
//!   them, and moves them back before returning (so panics at worst leave
//!   an empty scratch, never a dangling one);
//! * buffers only ever grow; after [`KstTree::reserve_scratch`] (called by
//!   every network constructor) or one warm-up operation at the deepest
//!   path span in use, **no serve-path operation allocates** — the
//!   zero-allocation tests and bench assertions enforce this;
//! * scratch contents are meaningless between operations; only capacity
//!   persists. `Clone` transfers scratch **capacity** (never contents), so
//!   cloned trees keep the zero-allocation guarantee.
//!
//! [`restructure`]: KstTree::restructure
//! [`splay_until`]: KstTree::splay_until

use crate::key::{idx_to_key, key_image, key_to_idx, NodeIdx, NodeKey, RoutingKey, NIL};
use crate::net::ServeCost;
use crate::shape::ShapeTree;
use std::convert::identity;
use std::ops::Range;

/// A k-ary search tree on `n` nodes with permanent identifiers `1..=n`.
pub struct KstTree {
    k: usize,
    n: usize,
    root: NodeIdx,
    parent: Vec<NodeIdx>,
    /// Flat `n × (k-1)` strictly-increasing routing elements.
    elems: Vec<RoutingKey>,
    /// Flat `n × k` child slots (`NIL` = empty).
    children: Vec<NodeIdx>,
    /// Exclusive interval bounds per node; always a superset of the node's
    /// subtree key images.
    lo: Vec<RoutingKey>,
    hi: Vec<RoutingKey>,
    /// Depth cache (root = 0), `u32` to keep the 10⁸-node footprint at
    /// 4 B/node. **Armed or disarmed as a whole**: when non-empty it holds
    /// the exact depth of *every* node and `distance_lca` skips its two
    /// O(depth) pre-walks; when empty the pre-walks run as before. All
    /// non-rotating mutation paths (`from_shape`/`write_fragment`,
    /// `patch_subtree`, `extract_range`/`absorb_fragment`) maintain it
    /// exactly; [`KstTree::restructure`] disarms it in O(1) on entry,
    /// because a rotation window reattaches whole subtrees and exact
    /// maintenance would cost O(subtree), not O(path). Nets that never
    /// rotate (the lazy family) therefore stay armed for their entire
    /// lifetime, which is exactly the distance-dominated regime where the
    /// pre-walks were the bill.
    depth: Vec<u32>,
    /// Scratch arenas reused by the serve path (see the module docs for the
    /// reuse contract): merged routing elements …
    pub(crate) scratch_elems: Vec<RoutingKey>,
    /// … merged child slots …
    pub(crate) scratch_slots: Vec<NodeIdx>,
    /// … per-merged-slot origin tags for O(d·k) link accounting …
    pub(crate) scratch_origin: Vec<u32>,
    /// … the access path buffer threaded through `splay_until` …
    pub(crate) scratch_path: Vec<NodeIdx>,
    /// … per-path-node slot positions used by the single-pass merge …
    pub(crate) scratch_pos: Vec<u32>,
    /// … and per-path-node key-gap positions, maintained incrementally
    /// across the re-form steps of one restructure.
    pub(crate) scratch_gaps: Vec<usize>,
    /// Snapshot of the patched range's parent pointers, reused by
    /// [`KstTree::patch_subtree`]'s link accounting (capacity persists
    /// across patches).
    pub(crate) scratch_parents: Vec<NodeIdx>,
}

/// Which end of the keyspace a [`KstTree::absorb_fragment`] attaches to.
///
/// Live resharding only ever moves **boundary runs** between neighbouring
/// shards (a shard's keyspace must stay contiguous), so a fragment either
/// becomes the new lowest keys (`Low`, every existing key is renumbered
/// up) or the new highest keys (`High`, existing keys keep their numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Prepend: fragment keys become `1..=f`, existing keys shift up by `f`.
    Low,
    /// Append: fragment keys become `n+1..=n+f`, existing keys unchanged.
    High,
}

/// Where [`KstTree::locate_range`]'s descent stopped: the range root (or
/// the node where the range `split`s), its `anchor` parent and `slot`
/// (`NIL` / `usize::MAX` at the root), that slot's enclosing gap
/// `(glo, ghi)`, and its `depth`.
struct RangeLoc {
    node: NodeIdx,
    anchor: NodeIdx,
    slot: usize,
    glo: RoutingKey,
    ghi: RoutingKey,
    depth: u32,
    split: bool,
}

impl KstTree {
    /// Builds a tree realizing `shape` with keys assigned in-order and a
    /// valid routing-element layout. Panics if any shape node has more than
    /// `k` children.
    pub fn from_shape(k: usize, shape: &ShapeTree) -> KstTree {
        assert!(k >= 2, "arity must be at least 2");
        let n = shape.len();
        assert!(n >= 1, "tree must have at least one node");
        assert!(
            (n as u64) < (u32::MAX as u64),
            "node count must fit in u32 keys"
        );
        shape
            .validate(k)
            // ksan-allow: panic-surface constructor contract — an invalid shape is a caller bug and validate carries the diagnostic
            .expect("shape incompatible with requested arity");
        let mut t = KstTree {
            k,
            n,
            root: 0,
            parent: vec![NIL; n],
            elems: vec![0; n * (k - 1)],
            children: vec![NIL; n * k],
            lo: vec![0; n],
            hi: vec![0; n],
            depth: vec![0; n],
            scratch_elems: Vec::new(),
            scratch_slots: Vec::new(),
            scratch_origin: Vec::new(),
            scratch_path: Vec::new(),
            scratch_pos: Vec::new(),
            scratch_gaps: Vec::new(),
            scratch_parents: Vec::new(),
        };
        let root = t.write_fragment(shape, 1, 0, RoutingKey::MAX, 0);
        t.root = root;
        t
    }

    /// Materializes `shape` **in place** over the contiguous key range
    /// starting at `first_key`, with every routing element drawn strictly
    /// from the enclosing gap `(glo, ghi)`. Overwrites exactly the arena
    /// entries of keys `first_key .. first_key + shape.len()` and returns
    /// the fragment's root index; the caller attaches the root (parent
    /// pointer / child slot / tree root).
    ///
    /// This is `from_shape`'s materialization loop, factored out so
    /// [`KstTree::patch_subtree`] can re-form a single subtree without
    /// touching the rest of the arena. Element placement mirrors the
    /// original greedy scheme — one mandatory separator between adjacent
    /// chunks, spares clustered immediately below the own key image — with
    /// two additions that make it correct for **arbitrary** enclosing gaps
    /// (a patched subtree's gap boundaries are ancestor elements that may
    /// crowd right up against the fragment's extreme key images, unlike
    /// the unbounded `(0, MAX)` gap of a full build):
    ///
    /// * **capacity reservation** — the element closing a child chunk's
    ///   gap is floored at `gap_lo + size·k + 1`, reserving exactly the
    ///   `size` key images plus `size·(k−1)` elements the chunk's own
    ///   materialization will place inside that gap;
    /// * **cluster spill** — when the gap's lower boundary leaves no room
    ///   below the own key image (only possible at the fragment's minimum
    ///   key), the remaining cluster elements spill to just *above* the
    ///   image.
    ///
    /// Feasibility invariant: any gap that previously held a subtree on
    /// the same key range has at least `size·k` usable values (`size`
    /// images + `size·(k−1)` elements fit there before), and the
    /// reservation floor propagates exactly that bound down the fragment,
    /// so the placement asserts can only trip on a range that never was a
    /// subtree. In the unconstrained full-build gap neither addition ever
    /// binds and the produced elements are identical to the historical
    /// `from_shape` output.
    /// `base_depth` is the tree depth at which the fragment's root lands
    /// (its attachment point's depth + 1, or 0 for a full build); when the
    /// depth cache is armed the materialization fills it alongside the
    /// other arenas.
    fn write_fragment(
        &mut self,
        shape: &ShapeTree,
        first_key: NodeKey,
        glo: RoutingKey,
        ghi: RoutingKey,
        base_depth: u32,
    ) -> NodeIdx {
        let k = self.k;
        let km1 = k - 1;
        // Keys and the key range (first, last key) of every shape subtree,
        // for element placement and capacity reservation, from one in-order
        // walk (subtree keys are contiguous, so the subtree size is
        // `last − first + 1`).
        let mut span: Vec<(NodeKey, NodeKey)> = vec![(0, 0); shape.len()];
        let keys = shape.inorder_walk(first_key, |v, first, last| {
            span[v as usize] = (first, last);
        });
        // Pre-order: materialize each node given its interval. The working
        // vectors are hoisted out of the loop and reused per node, so the
        // build allocates O(1) times past the initial arena reservation.
        #[derive(Clone, Copy)]
        struct Item {
            lo_img: RoutingKey,
            hi_img: RoutingKey,
            chunk: usize, // usize::MAX for the own key
        }
        let mut elems: Vec<RoutingKey> = Vec::with_capacity(km1);
        let mut slot_of_chunk: Vec<usize> = Vec::with_capacity(k);
        let mut chunk_size: Vec<u64> = Vec::with_capacity(k);
        let mut items: Vec<Item> = Vec::with_capacity(k + 1);
        let armed = !self.depth.is_empty();
        let mut stack: Vec<(u32, RoutingKey, RoutingKey, u32)> =
            vec![(shape.root, glo, ghi, base_depth)];
        while let Some((v, lo, hi, d)) = stack.pop() {
            let vi = key_to_idx(keys[v as usize]) as usize;
            self.lo[vi] = lo;
            self.hi[vi] = hi;
            if armed {
                self.depth[vi] = d;
            }
            let cs = &shape.children[v as usize];
            let gap = shape.key_gap[v as usize] as usize;
            let own = key_image(keys[v as usize]);
            // Items in order: chunks (children) with the own key at `gap`.
            let c = cs.len();
            elems.clear();
            slot_of_chunk.clear();
            slot_of_chunk.resize(c, usize::MAX);
            chunk_size.clear();
            items.clear();
            for (i, &ch) in cs.iter().enumerate() {
                if i == gap {
                    items.push(Item {
                        lo_img: own,
                        hi_img: own,
                        chunk: usize::MAX,
                    });
                }
                let (first, last) = span[ch as usize];
                items.push(Item {
                    lo_img: key_image(first),
                    hi_img: key_image(last),
                    chunk: i,
                });
                chunk_size.push((last - first + 1) as u64);
            }
            if gap == c {
                items.push(Item {
                    lo_img: own,
                    hi_img: own,
                    chunk: usize::MAX,
                });
            }
            // Element placement. Budget: exactly k-1 elements.
            // * one mandatory separator between each adjacent chunk pair
            //   whose boundary is not occupied by the own key (placed just
            //   above the left chunk, floored by the capacity
            //   reservation);
            // * everything else — the separator of the key-occupied
            //   boundary plus all spares — forms a cluster immediately
            //   *below* the own key image, spilling above it when the gap
            //   boundary is tight.
            //
            // The below-key cluster makes every node's elements
            // order-adjacent to its identifier, which (a) mimics the
            // routing-based layout as closely as a non-routing-based tree
            // can, and (b) makes the k = 2 instance order-isomorphic to a
            // classic BST whose routing element *is* the key — the basis of
            // the move-for-move differential test against splaynet-classic.
            let mandatory = c.saturating_sub(1);
            let spares = km1 - mandatory;
            let key_interior = c > 0 && gap > 0 && gap < c;
            let cluster = spares + usize::from(key_interior);
            // `last` = value of the last pin (element or image) emitted;
            // `min_next` = capacity floor for the next element value,
            // accumulating the reservations of everything in the open gap.
            let mut last = lo;
            let mut min_next = lo.saturating_add(1);
            for (i, it) in items.iter().enumerate() {
                if it.chunk == usize::MAX {
                    if cluster > 0 {
                        let floor = (last + 1).max(min_next);
                        let below = own.saturating_sub(floor).min(cluster as u64) as usize;
                        for s in 0..below {
                            elems.push(own - (below - s) as RoutingKey);
                        }
                        last = own;
                        min_next = own + 1;
                        let overflow = cluster - below;
                        if overflow > 0 {
                            // Tight lower boundary (fragment-min image):
                            // spill the rest just above the own key.
                            let upper = items.get(i + 1).map(|nx| nx.lo_img).unwrap_or(hi);
                            assert!(
                                own + (overflow as RoutingKey) < upper,
                                "routing-element space exhausted"
                            );
                            for s in 0..overflow {
                                elems.push(own + 1 + s as RoutingKey);
                            }
                            last = own + overflow as RoutingKey;
                            min_next = last + 1;
                        }
                    } else {
                        last = last.max(own);
                        min_next = min_next.max(own + 1);
                    }
                } else {
                    slot_of_chunk[it.chunk] = elems.len();
                    // Reserve room for the chunk's internal images and
                    // elements before anything else may close its gap.
                    min_next = min_next.saturating_add(chunk_size[it.chunk] * k as u64);
                    last = last.max(it.hi_img);
                    min_next = min_next.max(last + 1);
                    // Mandatory separator if the next item is also a chunk.
                    if let Some(next) = items.get(i + 1) {
                        if next.chunk != usize::MAX {
                            let val = (last + 1).max(min_next);
                            assert!(val < next.lo_img, "routing-element space exhausted");
                            elems.push(val);
                            last = val;
                            min_next = val + 1;
                        }
                    }
                }
            }
            assert_eq!(elems.len(), km1);
            debug_assert!(elems.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(elems.first().map(|&e| e > lo).unwrap_or(true));
            debug_assert!(elems.last().map(|&e| e < hi).unwrap_or(true));
            // Write node.
            let base_e = vi * km1;
            self.elems[base_e..base_e + km1].copy_from_slice(&elems);
            let base_c = vi * k;
            self.children[base_c..base_c + k].fill(NIL);
            for (i, &ch) in cs.iter().enumerate() {
                let slot = slot_of_chunk[i];
                let ci = key_to_idx(keys[ch as usize]);
                self.children[base_c + slot] = ci;
                self.parent[ci as usize] = vi as NodeIdx;
                let slo = if slot == 0 { lo } else { elems[slot - 1] };
                let shi = if slot == k - 1 { hi } else { elems[slot] };
                stack.push((ch, slo, shi, d + 1));
            }
        }
        key_to_idx(keys[shape.root as usize])
    }

    /// Replaces the subtree whose key set is exactly `[lo, hi]` with a
    /// freshly materialized `fragment` (a shape on `hi − lo + 1` nodes;
    /// keys are assigned `lo..=hi` in-order), re-forming **only** the
    /// arena entries of that range — the incremental counterpart of a full
    /// `from_shape` rebuild, O(subtree) instead of O(n).
    ///
    /// The range must currently be a subtree: some node's descendants
    /// carry exactly the keys `lo..=hi` (the planner derives candidate
    /// ranges from the live tree). Locating the range root is O(depth);
    /// verification, re-forming and the exact adjustment cost are
    /// O(subtree): the range's edges are `{v, parent(v)}` for every `v` in
    /// it (anchor edge included), so a snapshot of its parent pointers
    /// (persistent scratch) gives the old edge set, and a new edge
    /// `{v, p}` survived iff `old[v] == p` or (`p` in range and)
    /// `old[p] == v`. `links_changed` is `|before| + |after| − 2·common`,
    /// without building or sorting edge lists. Returns one patch of
    /// `hi − lo + 1` nodes and its `links_changed`.
    ///
    /// Panics if the range is not a subtree or the fragment does not fit;
    /// the whole-tree range `[1, n]` degenerates to a full rebuild.
    pub fn patch_subtree(&mut self, lo: NodeKey, hi: NodeKey, fragment: &ShapeTree) -> ServeCost {
        assert!(
            lo >= 1 && lo <= hi && hi as usize <= self.n,
            "patch range [{lo},{hi}] outside keyspace 1..={}",
            self.n
        );
        let size = (hi - lo + 1) as usize;
        assert_eq!(
            fragment.len(),
            size,
            "fragment has {} nodes, range [{lo},{hi}] needs {size}",
            fragment.len()
        );
        fragment
            .validate(self.k)
            // ksan-allow: panic-surface patch contract — an invalid fragment is a caller bug and validate carries the diagnostic
            .expect("fragment incompatible with requested arity");
        // 1. Locate the range root and verify its subtree is exactly the
        //    range.
        let at = self.locate_range(lo, hi);
        let rk = idx_to_key(at.node);
        assert!(
            !at.split,
            "[{lo},{hi}] splits across node key {rk}: not a subtree range"
        );
        let (count, kmin, kmax) = self.tally(at.node, NIL);
        assert!(
            lo <= kmin && kmax <= hi,
            "subtree under key {rk} spans keys [{kmin},{kmax}], outside [{lo},{hi}]: not a subtree range"
        );
        assert_eq!(
            count, size,
            "subtree under key {rk} holds {count} nodes, range [{lo},{hi}] needs {size}"
        );
        // Snapshot the range's parent pointers: its old edge set.
        let base = key_to_idx(lo);
        let range = base as usize..base as usize + size;
        let mut old = std::mem::take(&mut self.scratch_parents);
        old.clear();
        old.extend_from_slice(&self.parent[range.clone()]);
        // 2. Re-form the range in place and reattach; the range root's
        //    depth seeds the depth cache for the re-formed fragment.
        let new_root = self.write_fragment(fragment, lo, at.glo, at.ghi, at.depth);
        self.attach(new_root, at.anchor, at.slot);
        // 3. Exact links_changed: count the edges both trees share. Tree
        //    edges are distinct and never both `old[v] == p` and
        //    `old[p] == v`, so each shared edge is counted once.
        let (mut before, mut after, mut common) = (0u64, 0u64, 0u64);
        for (i, (&old_p, &p)) in old.iter().zip(&self.parent[range]).enumerate() {
            before += u64::from(old_p != NIL);
            if p == NIL {
                continue;
            }
            after += 1;
            let v = base + i as NodeIdx;
            let pi = p.wrapping_sub(base) as usize;
            if old_p == p || (pi < size && old[pi] == v) {
                common += 1;
            }
        }
        let links_changed = before + after - 2 * common;
        self.scratch_parents = old;
        ServeCost {
            links_changed,
            rebuild_patches: 1,
            rebuild_nodes: size as u64,
            ..ServeCost::default()
        }
    }

    /// Captures the shape of the subtree rooted at `r` (child order and
    /// own-key gaps), so the subtree can be re-materialized elsewhere with
    /// [`KstTree::patch_subtree`] / [`KstTree::absorb_fragment`]. O(subtree).
    pub fn subtree_shape(&self, r: NodeIdx) -> ShapeTree {
        let mut shape = ShapeTree {
            children: Vec::new(),
            key_gap: Vec::new(),
            root: 0,
        };
        // DFS; arena children are pushed in reverse slot order so each
        // parent's shape-child list is appended in slot (= key) order.
        let mut stack: Vec<(NodeIdx, u32)> = vec![(r, u32::MAX)];
        while let Some((v, ps)) = stack.pop() {
            let id = shape.children.len() as u32;
            shape.children.push(Vec::new());
            let own = idx_to_key(v);
            let gap = self
                .children(v)
                .iter()
                .filter(|&&c| c != NIL && idx_to_key(c) < own)
                .count();
            shape.key_gap.push(gap as u8);
            if ps == u32::MAX {
                shape.root = id;
            } else {
                shape.children[ps as usize].push(id);
            }
            for &c in self.children(v).iter().rev() {
                if c != NIL {
                    stack.push((c, id));
                }
            }
        }
        shape
    }

    /// Splices the boundary key run `[lo, hi]` out of the tree and returns
    /// its shape plus the restructuring cost, shrinking the tree to the
    /// remaining `n − (hi − lo + 1)` keys. The run must touch an end of the
    /// keyspace (`lo == 1` or `hi == n`) — live resharding only moves
    /// boundary runs, and only boundary runs keep the remainder contiguous.
    ///
    /// If the run is not already an exact subtree, a **connector patch**
    /// first re-forms the minimal enclosing subtree (via
    /// [`KstTree::patch_subtree`]) so the run hangs off a single anchor
    /// edge; the run's subtree is then detached and the arena compacted.
    /// On a `Low` extraction the remaining keys are renumbered down by `hi`
    /// (key `κ` lives at index `κ − 1`, so renumbering is an arena shift)
    /// and every routing element / stored bound is translated with it;
    /// remaining elements *below* the first surviving key image (leading
    /// empty-slot elements left by past rotations) are order-preservingly
    /// compressed into `1, 2, …` so no transform can underflow.
    ///
    /// The returned [`ServeCost`] counts the connector patch plus the
    /// detached anchor link; the fragment's internal links are charged by
    /// the matching [`KstTree::absorb_fragment`] on the receiving tree.
    /// Cold-path: allocates freely (runs at migration boundaries only).
    ///
    /// Panics if the run is empty, covers the whole tree, or is interior.
    pub fn extract_range(&mut self, lo: NodeKey, hi: NodeKey) -> (ShapeTree, ServeCost) {
        let (k, n) = (self.k, self.n);
        assert!(
            lo >= 1 && lo <= hi && (hi as usize) <= n,
            "extract range [{lo},{hi}] outside keyspace 1..={n}"
        );
        let size = (hi - lo + 1) as usize;
        assert!(size < n, "cannot extract the whole tree");
        assert!(
            lo == 1 || hi as usize == n,
            "extract range [{lo},{hi}] must touch a keyspace boundary (n={n})"
        );
        let mut cost = ServeCost::default();
        // 1. Find the minimal subtree containing the run: the node where
        //    the descent towards [lo, hi] stops.
        let mut r = self.locate_range(lo, hi).node;
        // 2. Grow the containing subtree until its key set is contiguous
        //    (a node's own image may sit inside a *child's* gap interval —
        //    a legal "shadow" state after rotations — so a subtree's key
        //    span can include keys living at its ancestors; the whole tree
        //    is always contiguous, so this terminates at the root). If the
        //    contiguous cover is larger than [lo, hi], re-form it with a
        //    connector so the run becomes an exact subtree. Each node is
        //    tallied at most once across the growth, so this is O(cover).
        let (mut count, mut a, mut b) = self.tally(r, NIL);
        while (b - a + 1) as usize != count {
            let p = self.parent(r);
            debug_assert!(p != NIL, "whole keyspace must be contiguous");
            let (pc, pa, pb) = self.tally(p, r);
            (count, a, b, r) = (count + pc, a.min(pa), b.max(pb), p);
        }
        debug_assert!(a <= lo && hi <= b);
        debug_assert!(if lo == 1 { a == 1 } else { b as usize == n });
        if (a, b) != (lo, hi) {
            let mut conn = ShapeTree {
                children: Vec::new(),
                key_gap: Vec::new(),
                root: 0,
            };
            // Connector root = the key adjacent to the run; the run itself
            // and the rest of the covered range hang off it as balanced
            // subtrees, so the run is an exact subtree afterwards.
            let (left, right, gap) = if lo == 1 {
                // root key hi+1: [1, hi] | hi+1 | [hi+2, b]
                (size, (b - hi - 1) as usize, 1u8)
            } else {
                // root key lo−1: [a, lo−2] | lo−1 | [lo, n]
                let left = (lo - 1 - a) as usize;
                (left, size, u8::from(left > 0))
            };
            let mut kids = Vec::new();
            if left > 0 {
                kids.push(conn.push_balanced_subtree(left, k));
            }
            if right > 0 {
                kids.push(conn.push_balanced_subtree(right, k));
            }
            let root = conn.push_leaf();
            conn.children[root as usize] = kids;
            conn.key_gap[root as usize] = gap;
            conn.root = root;
            cost += self.patch_subtree(a, b, &conn);
        }
        // 3. Re-locate the (now exact) run subtree, keeping its anchor.
        let at = self.locate_range(lo, hi);
        assert!(
            !at.split && at.anchor != NIL,
            "boundary run [{lo},{hi}] must be a non-root subtree after the connector patch"
        );
        let shape = self.subtree_shape(at.node);
        debug_assert_eq!(shape.len(), size);
        // 4. Detach the run and compact the arena. Detaching a subtree
        //    leaves every survivor's depth unchanged.
        self.children_mut(at.anchor)[at.slot] = NIL;
        cost.links_changed += 1;
        let new_n = n - size;
        if lo == 1 {
            // Low run: renumber keys down by hi. The compressed ranks stay
            // strictly below every shifted image and element, so global
            // element order (and every gap containment) is preserved.
            // Stored bounds stay safe supersets: lo shrinks to 0 when it
            // referenced the compressed region, hi widens to image(1).
            let img_f = key_image(hi);
            let next_img = key_image(hi + 1);
            let mut small: Vec<RoutingKey> = self.elems[size * (k - 1)..]
                .iter()
                .copied()
                .filter(|&e| e < next_img)
                .collect();
            small.sort_unstable();
            debug_assert!(small.windows(2).all(|w| w[0] < w[1]));
            assert!(
                (small.len() as u64) < key_image(1),
                "routing-element space exhausted"
            );
            let rank = |e: RoutingKey| small.partition_point(|&s| s < e) as RoutingKey + 1;
            self.resize_arenas(
                new_n,
                End::Low,
                |e| if e >= next_img { e - img_f } else { rank(e) },
                |b| if b >= next_img { b - img_f } else { 0 },
                |b| match b {
                    RoutingKey::MAX => b,
                    _ if b >= next_img => b - img_f,
                    _ => key_image(1),
                },
            );
        } else {
            // High run: keys 1..=new_n keep their numbers; drop the tail.
            self.resize_arenas(new_n, End::High, identity, identity, identity);
        }
        (shape, cost)
    }

    /// Grafts a fragment of `f` keys onto one end of the keyspace, growing
    /// the tree to `n + f` keys — the receiving half of a live-resharding
    /// hand-off (the donor side is [`KstTree::extract_range`]). `End::High`
    /// appends the fragment as keys `n+1..=n+f`; `End::Low` renumbers the
    /// existing keys up by `f` (arena shift, elements and stored bounds
    /// translated with the keys) and materializes the fragment as keys
    /// `1..=f`. Either way the fragment is re-formed in the deepest
    /// boundary gap via the same greedy element placement as a rebuild, so
    /// all arena invariants hold afterwards.
    ///
    /// Returns the attachment cost as one patch of `f` nodes: the
    /// fragment's `f − 1` internal links plus its anchor link (the donor
    /// charged the detach separately).
    /// Cold-path: allocates freely (runs at migration boundaries only).
    pub fn absorb_fragment(&mut self, end: End, fragment: &ShapeTree) -> ServeCost {
        let k = self.k;
        let f = fragment.len();
        assert!(f >= 1, "cannot absorb an empty fragment");
        fragment
            .validate(k)
            // ksan-allow: panic-surface absorb contract — an invalid fragment is a caller bug and validate carries the diagnostic
            .expect("fragment incompatible with requested arity");
        let old_n = self.n;
        let new_n = old_n + f;
        assert!(
            (new_n as u64) < (u32::MAX as u64),
            "node count must fit in u32 keys"
        );
        // On `End::Low` the existing keys renumber up by f: elements move
        // by image(f), left-spine stored lo stays 0 (its exact bound) and
        // hi saturates so MAX stays MAX.
        let img_f = key_image(f as NodeKey);
        self.resize_arenas(
            new_n,
            end,
            |e| e + img_f,
            |b| if b == 0 { 0 } else { b + img_f },
            |b| b.saturating_add(img_f),
        );
        // Deepest boundary node on the fragment's side; its outermost gap
        // holds every new image. The walk's step count is `w`'s depth — the
        // fragment hangs one level below it.
        let (slot, first) = match end {
            End::Low => (0, 1),
            End::High => (k - 1, old_n as NodeKey + 1),
        };
        let (mut w, mut dw) = (self.root, 0u32);
        while self.children(w)[slot] != NIL {
            w = self.children(w)[slot];
            dw += 1;
        }
        let (glo, ghi) = match end {
            End::Low => (0, self.elems(w)[0]),
            End::High => (self.elems(w)[k - 2], RoutingKey::MAX),
        };
        debug_assert!(glo < key_image(first) && key_image(first + f as NodeKey - 1) < ghi);
        let root_frag = self.write_fragment(fragment, first, glo, ghi, dw + 1);
        self.attach(root_frag, w, slot);
        ServeCost {
            links_changed: f as u64,
            rebuild_patches: 1,
            rebuild_nodes: f as u64,
            ..ServeCost::default()
        }
    }

    /// Descends from the root towards the key range `[lo, hi]`: while the
    /// node's own key lies outside the range and both endpoints route into
    /// the same child slot, it steps into that slot, narrowing the
    /// enclosing gap. It stops at the first node whose key is in the range,
    /// or (`split`) where the endpoints part. O(depth). Panics on an empty
    /// slot, which a valid tree never routes a present key into.
    fn locate_range(&self, lo: NodeKey, hi: NodeKey) -> RangeLoc {
        let (lo_img, hi_img) = (key_image(lo), key_image(hi));
        let mut at = RangeLoc {
            node: self.root,
            anchor: NIL,
            slot: usize::MAX,
            glo: 0,
            ghi: RoutingKey::MAX,
            depth: 0,
            split: false,
        };
        loop {
            let rk = idx_to_key(at.node);
            if lo <= rk && rk <= hi {
                return at;
            }
            let es = self.elems(at.node);
            let j = es.partition_point(|&e| e < lo_img);
            if j != es.partition_point(|&e| e < hi_img) {
                at.split = true;
                return at;
            }
            let c = self.children(at.node)[j];
            assert!(
                c != NIL,
                "[{lo},{hi}] routes into an empty slot: not a subtree range"
            );
            if j > 0 {
                at.glo = es[j - 1];
            }
            if j < self.k - 1 {
                at.ghi = es[j];
            }
            at.anchor = at.node;
            at.slot = j;
            at.node = c;
            at.depth += 1;
        }
    }

    /// Node count and smallest / largest key of the subtree under `r`,
    /// leaving out the subtree under `skip` (`NIL` leaves out nothing).
    /// O(subtree).
    fn tally(&self, r: NodeIdx, skip: NodeIdx) -> (usize, NodeKey, NodeKey) {
        let (mut count, mut kmin, mut kmax) = (0usize, NodeKey::MAX, 0 as NodeKey);
        let mut stack: Vec<NodeIdx> = vec![r];
        while let Some(v) = stack.pop() {
            count += 1;
            kmin = kmin.min(idx_to_key(v));
            kmax = kmax.max(idx_to_key(v));
            for &c in self.children(v) {
                if c != NIL && c != skip {
                    stack.push(c);
                }
            }
        }
        (count, kmin, kmax)
    }

    /// Resizes all six arenas (depth cache included) from `n` to `new_n`
    /// nodes, adding blank entries or dropping entries at the `end` of the
    /// keyspace. On `End::Low` the survivors are renumbered by the size
    /// difference: parent, child and root indices move with them, and
    /// their routing elements and stored bounds pass through `elem`, `lo`
    /// and `hi`; `End::High` keeps every number and ignores the
    /// transforms. Survivor depths never change, so the cache moves as a
    /// block (a no-op while it is disarmed).
    fn resize_arenas(
        &mut self,
        new_n: usize,
        end: End,
        elem: impl Fn(RoutingKey) -> RoutingKey,
        lo: impl Fn(RoutingKey) -> RoutingKey,
        hi: impl Fn(RoutingKey) -> RoutingKey,
    ) {
        let (k, km1, old_n) = (self.k, self.k - 1, self.n);
        // `cut` nodes leave and `add` blank ones arrive at node index `at`.
        let (cut, add) = (old_n.saturating_sub(new_n), new_n.saturating_sub(old_n));
        let at = if end == End::Low { 0 } else { old_n - cut };
        // Arena by arena in a fixed order: reordering the reallocations
        // measurably changes the allocator's fragmentation and peak RSS.
        let window = |stride: usize| (at * stride..(at + cut) * stride, add * stride);
        fn splice<T: Copy>(v: &mut Vec<T>, (range, len): (Range<usize>, usize), blank: T) {
            v.splice(range, std::iter::repeat_n(blank, len));
        }
        splice(&mut self.parent, window(1), NIL);
        splice(&mut self.elems, window(km1), 0);
        splice(&mut self.children, window(k), NIL);
        splice(&mut self.lo, window(1), 0);
        splice(&mut self.hi, window(1), 0);
        if !self.depth.is_empty() {
            splice(&mut self.depth, window(1), 0);
        }
        if end == End::Low {
            let renumber = |v: NodeIdx| {
                if v == NIL {
                    NIL
                } else {
                    (v as usize + add - cut) as NodeIdx
                }
            };
            let kept = add..add + old_n.min(new_n);
            let kids = &mut self.children[kept.start * k..kept.end * k];
            for v in self.parent[kept.clone()].iter_mut().chain(kids) {
                *v = renumber(*v);
            }
            for e in &mut self.elems[kept.start * km1..kept.end * km1] {
                *e = elem(*e);
            }
            for (l, h) in self.lo[kept.clone()].iter_mut().zip(&mut self.hi[kept]) {
                (*l, *h) = (lo(*l), hi(*h));
            }
            self.root = renumber(self.root);
        }
        self.n = new_n;
    }

    /// Hangs the subtree rooted at `v` into `anchor`'s child `slot`, or
    /// makes it the tree root when `anchor` is `NIL` — the one reattach
    /// step of the range surgeries and of [`KstTree::restructure`].
    pub(crate) fn attach(&mut self, v: NodeIdx, anchor: NodeIdx, slot: usize) {
        self.set_parent(v, anchor);
        if anchor == NIL {
            self.root = v;
        } else {
            self.children_mut(anchor)[slot] = v;
        }
    }

    /// Builds the complete (balanced) k-ary search tree on `n` nodes.
    ///
    /// ```
    /// use kst_core::KstTree;
    /// let t = KstTree::balanced(3, 40);
    /// assert_eq!(t.n(), 40);
    /// assert_eq!(t.k(), 3);
    /// // node identifiers are permanent: key 7 lives at index 6 forever
    /// assert_eq!(t.key_of(t.node_of(7)), 7);
    /// ```
    pub fn balanced(k: usize, n: usize) -> KstTree {
        KstTree::from_shape(k, &ShapeTree::balanced_kary(n, k))
    }

    /// Arity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Root node index.
    #[inline]
    pub fn root(&self) -> NodeIdx {
        self.root
    }

    /// Parent index of `v`, `NIL` for the root.
    #[inline]
    pub fn parent(&self, v: NodeIdx) -> NodeIdx {
        self.parent[v as usize]
    }

    pub(crate) fn set_parent(&mut self, v: NodeIdx, p: NodeIdx) {
        self.parent[v as usize] = p;
    }

    /// The `k - 1` routing elements of `v`.
    #[inline]
    pub fn elems(&self, v: NodeIdx) -> &[RoutingKey] {
        let b = v as usize * (self.k - 1);
        &self.elems[b..b + self.k - 1]
    }

    pub(crate) fn elems_mut(&mut self, v: NodeIdx) -> &mut [RoutingKey] {
        let b = v as usize * (self.k - 1);
        &mut self.elems[b..b + self.k - 1]
    }

    /// The `k` child slots of `v` (`NIL` = empty slot).
    #[inline]
    pub fn children(&self, v: NodeIdx) -> &[NodeIdx] {
        let b = v as usize * self.k;
        &self.children[b..b + self.k]
    }

    pub(crate) fn children_mut(&mut self, v: NodeIdx) -> &mut [NodeIdx] {
        let b = v as usize * self.k;
        &mut self.children[b..b + self.k]
    }

    /// Stored interval bounds of `v` (exclusive). Superset of the subtree's
    /// key images.
    #[inline]
    pub fn bounds(&self, v: NodeIdx) -> (RoutingKey, RoutingKey) {
        (self.lo[v as usize], self.hi[v as usize])
    }

    pub(crate) fn set_bounds(&mut self, v: NodeIdx, lo: RoutingKey, hi: RoutingKey) {
        self.lo[v as usize] = lo;
        self.hi[v as usize] = hi;
    }

    /// Permanent key of node `v`.
    #[inline]
    pub fn key_of(&self, v: NodeIdx) -> NodeKey {
        idx_to_key(v)
    }

    /// Node index carrying `key`.
    #[inline]
    pub fn node_of(&self, key: NodeKey) -> NodeIdx {
        debug_assert!(key >= 1 && key as usize <= self.n);
        key_to_idx(key)
    }

    /// Slot index of `child` within `parent`'s child array.
    pub fn slot_of(&self, parent: NodeIdx, child: NodeIdx) -> usize {
        self.children(parent)
            .iter()
            .position(|&c| c == child)
            // ksan-allow: panic-surface structural invariant — callers pass a (parent, child) edge read from the tree itself
            .expect("child not attached to parent")
    }

    /// Depth of `v` (root = 0). O(1) while the depth cache is armed,
    /// O(depth) parent walk after a restructure disarmed it.
    pub fn depth(&self, v: NodeIdx) -> usize {
        if !self.depth.is_empty() {
            return self.depth[v as usize] as usize;
        }
        self.depth_walk(v)
    }

    /// Depth of `v` by fresh parent walk, ignoring the cache. The
    /// coherence tests diff this against the armed cache.
    pub fn depth_walk(&self, v: NodeIdx) -> usize {
        let mut d = 0usize;
        let mut w = v;
        while self.parent[w as usize] != NIL {
            w = self.parent[w as usize];
            d += 1;
        }
        d
    }

    /// Whether the depth cache is armed (exact for every node). Armed from
    /// construction; the first [`KstTree::restructure`] disarms it for the
    /// tree's remaining lifetime.
    #[inline]
    pub fn depth_cache_armed(&self) -> bool {
        !self.depth.is_empty()
    }

    /// Disarms the depth cache in O(1) by releasing its arena. Called on
    /// entry by every rotation window (see the field docs for why exact
    /// maintenance under rotations is off the table). Releasing memory is
    /// outside the zero-allocation contract (`alloc_probe` counts
    /// allocations, not frees), and `Vec::new` never allocates.
    pub(crate) fn disarm_depth_cache(&mut self) {
        if !self.depth.is_empty() {
            self.depth = Vec::new();
        }
    }

    /// Lowest common ancestor of `u` and `v`. O(depth).
    pub fn lca(&self, u: NodeIdx, v: NodeIdx) -> NodeIdx {
        self.distance_lca(u, v).1
    }

    /// Tree distance (hops) between node indices.
    pub fn distance(&self, u: NodeIdx, v: NodeIdx) -> u64 {
        self.distance_lca(u, v).0
    }

    /// Tree distance and lowest common ancestor in **one pass** over the
    /// access paths. The serve hot path uses this so the routing charge and
    /// the splay target come out of the same pointer chase instead of
    /// six-plus redundant root walks.
    ///
    /// While the depth cache is armed the two O(depth) depth pre-walks
    /// collapse to two O(1) lookups and only the aligned climb chases
    /// pointers. Disarmed, the pre-walks run but are **interleaved**: the
    /// two parent chains are independent, so alternating their loads lets
    /// the cache misses of one chain overlap the other's instead of
    /// serializing two full root walks. Both paths return bit-identical
    /// results — the differential oracles pin this.
    pub fn distance_lca(&self, u: NodeIdx, v: NodeIdx) -> (u64, NodeIdx) {
        if u == v {
            return (0, u);
        }
        let (du, dv) = if !self.depth.is_empty() {
            (
                self.depth[u as usize] as usize,
                self.depth[v as usize] as usize,
            )
        } else {
            let (mut au, mut av) = (u, v);
            let (mut du, mut dv) = (0usize, 0usize);
            loop {
                let pu = self.parent[au as usize];
                let pv = self.parent[av as usize];
                match (pu != NIL, pv != NIL) {
                    (true, true) => {
                        au = pu;
                        av = pv;
                        du += 1;
                        dv += 1;
                    }
                    (true, false) => {
                        au = pu;
                        du += 1;
                    }
                    (false, true) => {
                        av = pv;
                        dv += 1;
                    }
                    (false, false) => break,
                }
            }
            (du, dv)
        };
        let (mut a, mut b) = (u, v);
        let (mut da, mut db) = (du, dv);
        while da > db {
            a = self.parent[a as usize];
            da -= 1;
        }
        while db > da {
            b = self.parent[b as usize];
            db -= 1;
        }
        while a != b {
            a = self.parent[a as usize];
            b = self.parent[b as usize];
            da -= 1;
        }
        ((du - da + (dv - da)) as u64, a)
    }

    /// Tree distance between two keys.
    pub fn distance_keys(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.distance(self.node_of(u), self.node_of(v))
    }

    /// Pre-sizes the serve-path scratch arenas for restructure paths of up
    /// to `span` nodes, so that **no serve-path operation ever allocates**
    /// — not even the first one. Called by every network constructor with
    /// its splay strategy's span; idempotent and monotone (capacity only
    /// grows). See the module docs for the scratch reuse contract.
    pub fn reserve_scratch(&mut self, span: usize) {
        let span = span.max(2);
        let km1 = self.k - 1;
        let merged = span * km1;
        reserve_to(&mut self.scratch_elems, merged);
        reserve_to(&mut self.scratch_slots, merged + 1);
        reserve_to(&mut self.scratch_origin, merged + 1);
        reserve_to(&mut self.scratch_path, span);
        reserve_to(&mut self.scratch_pos, span);
        reserve_to(&mut self.scratch_gaps, span);
    }

    /// Sorted copy of the global routing-element multiset; conserved by all
    /// rotations (n·(k−1) values).
    pub fn element_multiset(&self) -> Vec<RoutingKey> {
        let mut v = self.elems.clone();
        v.sort_unstable();
        v
    }

    /// Iterates node indices `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeIdx> {
        0..self.n as NodeIdx
    }
}

/// Grows `v`'s capacity to at least `cap` without shrinking.
fn reserve_to<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() < cap {
        v.reserve(cap - v.len());
    }
}

impl Clone for KstTree {
    /// Clones the tree state; scratch arenas transfer their **capacity**
    /// but not their (meaningless between operations) contents, so a clone
    /// keeps the zero-allocation serve guarantee. A derived impl would do
    /// the opposite — copy stale contents at shrunk capacity.
    fn clone(&self) -> KstTree {
        KstTree {
            k: self.k,
            n: self.n,
            root: self.root,
            parent: self.parent.clone(),
            elems: self.elems.clone(),
            children: self.children.clone(),
            lo: self.lo.clone(),
            hi: self.hi.clone(),
            depth: self.depth.clone(),
            scratch_elems: Vec::with_capacity(self.scratch_elems.capacity()),
            scratch_slots: Vec::with_capacity(self.scratch_slots.capacity()),
            scratch_origin: Vec::with_capacity(self.scratch_origin.capacity()),
            scratch_path: Vec::with_capacity(self.scratch_path.capacity()),
            scratch_pos: Vec::with_capacity(self.scratch_pos.capacity()),
            scratch_gaps: Vec::with_capacity(self.scratch_gaps.capacity()),
            scratch_parents: Vec::with_capacity(self.scratch_parents.capacity()),
        }
    }
}

impl std::fmt::Debug for KstTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "KstTree(k={}, n={}, root=key {})",
            self.k,
            self.n,
            idx_to_key(self.root)
        )?;
        for v in 0..self.n as NodeIdx {
            let kids: Vec<String> = self
                .children(v)
                .iter()
                .map(|&c| {
                    if c == NIL {
                        "·".to_string()
                    } else {
                        idx_to_key(c).to_string()
                    }
                })
                .collect();
            writeln!(
                f,
                "  key {:>4}: parent={} elems={:?} slots=[{}]",
                idx_to_key(v),
                if self.parent[v as usize] == NIL {
                    "root".to_string()
                } else {
                    idx_to_key(self.parent[v as usize]).to_string()
                },
                self.elems(v),
                kids.join(" ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::validate;

    #[test]
    fn balanced_trees_are_valid() {
        for k in 2..=10 {
            for n in [1usize, 2, 3, 7, 10, 50, 100, 257] {
                let t = KstTree::balanced(k, n);
                validate(&t).unwrap_or_else(|e| panic!("k={k} n={n}: {e}"));
            }
        }
    }

    #[test]
    fn balanced_depth_bound() {
        for k in 2..=10usize {
            let n = 1000;
            let t = KstTree::balanced(k, n);
            let h = (0..n as NodeIdx).map(|v| t.depth(v)).max().unwrap();
            let mut cap = 1usize;
            let mut lvl = 1usize;
            let mut want = 0usize;
            while cap < n {
                lvl *= k;
                cap += lvl;
                want += 1;
            }
            assert_eq!(h, want, "k={k}");
        }
    }

    #[test]
    fn distance_is_metric_like() {
        let t = KstTree::balanced(3, 40);
        for u in 0..40u32 {
            assert_eq!(t.distance(u, u), 0);
            for v in 0..40u32 {
                assert_eq!(t.distance(u, v), t.distance(v, u));
            }
        }
        // triangle inequality on a sample
        for (a, b, c) in [(0u32, 5u32, 17u32), (3, 30, 12), (8, 9, 39)] {
            assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
        }
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn subtree_shape_round_trips_through_from_shape() {
        for k in 2..=5usize {
            for n in [1usize, 2, 7, 40, 121] {
                let t = KstTree::balanced(k, n);
                let s = t.subtree_shape(t.root());
                assert_eq!(s.len(), n);
                s.validate(k).unwrap();
                let t2 = KstTree::from_shape(k, &s);
                validate(&t2).unwrap();
                // Same topology: every node keeps its parent key.
                for v in t.nodes() {
                    assert_eq!(t2.parent(v), t.parent(v), "k={k} n={n} v={v}");
                }
            }
        }
    }

    #[test]
    fn extract_then_absorb_preserves_validity() {
        for k in 2..=5usize {
            for n in [10usize, 37, 100] {
                for cut in [1usize, 3, n / 2] {
                    // High run moves to a fresh receiver's low end.
                    let mut donor = KstTree::balanced(k, n);
                    let (shape, stats) =
                        donor.extract_range((n - cut + 1) as NodeKey, n as NodeKey);
                    assert_eq!(donor.n(), n - cut);
                    assert_eq!(shape.len(), cut);
                    assert!(stats.links_changed >= 1);
                    validate(&donor).unwrap_or_else(|e| panic!("donor k={k} n={n} cut={cut}: {e}"));
                    let mut recv = KstTree::balanced(k, n);
                    let astats = recv.absorb_fragment(End::Low, &shape);
                    assert_eq!(recv.n(), n + cut);
                    assert_eq!(astats.rebuild_nodes, cut as u64);
                    validate(&recv).unwrap_or_else(|e| panic!("recv k={k} n={n} cut={cut}: {e}"));

                    // Low run moves to a fresh receiver's high end.
                    let mut donor = KstTree::balanced(k, n);
                    let (shape, _) = donor.extract_range(1, cut as NodeKey);
                    assert_eq!(donor.n(), n - cut);
                    validate(&donor)
                        .unwrap_or_else(|e| panic!("low donor k={k} n={n} cut={cut}: {e}"));
                    let mut recv = KstTree::balanced(k, n);
                    recv.absorb_fragment(End::High, &shape);
                    assert_eq!(recv.n(), n + cut);
                    validate(&recv)
                        .unwrap_or_else(|e| panic!("high recv k={k} n={n} cut={cut}: {e}"));
                }
            }
        }
    }

    #[test]
    fn extract_absorb_after_rotation_history_stays_valid() {
        // The hard case: arbitrary serve history scatters routing elements
        // (leading empty-slot values below the first image included), so
        // the renumbering transforms must hold on *rotated* trees, not
        // just fresh balanced ones.
        use crate::ksplaynet::KSplayNet;
        use crate::net::Network;
        for k in [2usize, 3, 5] {
            let n = 60usize;
            let mut a = KSplayNet::balanced(k, n);
            let mut b = KSplayNet::balanced(k, n);
            let mut x = 99u64;
            for round in 0..8 {
                for _ in 0..40 {
                    let u = (xorshift(&mut x) % a.len() as u64 + 1) as NodeKey;
                    let v = (xorshift(&mut x) % a.len() as u64 + 1) as NodeKey;
                    if u != v {
                        a.serve(u, v);
                    }
                    let u = (xorshift(&mut x) % b.len() as u64 + 1) as NodeKey;
                    let v = (xorshift(&mut x) % b.len() as u64 + 1) as NodeKey;
                    if u != v {
                        b.serve(u, v);
                    }
                }
                // Shuttle a run from a's high end to b's low end and back
                // the other way, exercising all four end combinations.
                let cut = 1 + (round % 5) as usize;
                let an = a.tree().n();
                let (shape, _) = a
                    .tree_mut()
                    .extract_range((an - cut + 1) as NodeKey, an as NodeKey);
                b.tree_mut().absorb_fragment(End::Low, &shape);
                let (shape, _) = b.tree_mut().extract_range(1, (2 * cut) as NodeKey);
                a.tree_mut().absorb_fragment(End::High, &shape);
                validate(a.tree()).unwrap_or_else(|e| panic!("a k={k} round={round}: {e}"));
                validate(b.tree()).unwrap_or_else(|e| panic!("b k={k} round={round}: {e}"));
            }
            assert_eq!(a.len() + b.len(), 2 * n);
            // Both trees still serve correctly after the shuttling.
            for _ in 0..50 {
                let u = (xorshift(&mut x) % a.len() as u64 + 1) as NodeKey;
                let v = (xorshift(&mut x) % a.len() as u64 + 1) as NodeKey;
                if u != v {
                    a.serve(u, v);
                    assert_eq!(a.distance(u, v), 1);
                }
            }
            validate(a.tree()).unwrap();
        }
    }

    #[test]
    fn absorb_into_single_node_tree() {
        for k in 2..=4usize {
            for end in [End::Low, End::High] {
                let mut t = KstTree::balanced(k, 1);
                let frag = ShapeTree::balanced_kary(5, k);
                let stats = t.absorb_fragment(end, &frag);
                assert_eq!(t.n(), 6);
                assert_eq!(stats.links_changed, 5);
                validate(&t).unwrap_or_else(|e| panic!("k={k} {end:?}: {e}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "boundary")]
    fn extract_interior_range_panics() {
        let mut t = KstTree::balanced(3, 20);
        let _ = t.extract_range(5, 10);
    }

    /// The message of the panic `f` must raise.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn patch_rejects_a_range_that_splits_across_a_node_key() {
        // Two adjacent keys whose lowest common ancestor is a third node:
        // they sit in neighbouring child slots of a node whose own key lies
        // elsewhere, so the descent towards [a, a+1] parts at that node.
        let mut t = KstTree::balanced(3, 40);
        let a = (1..40)
            .find(|&a| {
                let l = t.lca(t.node_of(a), t.node_of(a + 1));
                l != t.node_of(a) && l != t.node_of(a + 1)
            })
            .expect("a balanced 3-ary tree has slot-adjacent keys");
        let msg = panic_message(|| {
            t.patch_subtree(a, a + 1, &ShapeTree::balanced_kary(2, 3));
        });
        assert!(
            msg.contains("splits across node key") && msg.contains("not a subtree range"),
            "{msg}"
        );
    }

    #[test]
    fn patch_rejects_a_range_whose_subtree_holds_outside_keys() {
        // The root's key alone: the descent stops at the root at once, but
        // its subtree holds every other key too.
        let mut t = KstTree::balanced(3, 40);
        let rk = t.key_of(t.root());
        let msg = panic_message(|| {
            t.patch_subtree(rk, rk, &ShapeTree::balanced_kary(1, 3));
        });
        assert!(
            msg.contains("spans keys [1,40]") && msg.contains("not a subtree range"),
            "{msg}"
        );
    }

    #[test]
    fn lca_agrees_with_bruteforce() {
        let t = KstTree::balanced(4, 60);
        let ancestors = |mut v: NodeIdx| -> Vec<NodeIdx> {
            let mut a = vec![v];
            while t.parent(v) != NIL {
                v = t.parent(v);
                a.push(v);
            }
            a
        };
        for u in (0..60u32).step_by(7) {
            for v in (0..60u32).step_by(5) {
                let au = ancestors(u);
                let av = ancestors(v);
                let brute = *au
                    .iter()
                    .find(|x| av.contains(x))
                    .expect("trees are connected");
                assert_eq!(t.lca(u, v), brute, "u={u} v={v}");
            }
        }
    }
}
