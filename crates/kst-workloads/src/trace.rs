//! Communication traces: the request sequences σ = (σ₁, σ₂, …) of the
//! paper's model (Section 2).

/// Node key type (mirrors `kst_core::NodeKey` without the dependency).
pub type NodeKey = u32;

/// A finite communication sequence over nodes `1..=n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    n: usize,
    reqs: Vec<(NodeKey, NodeKey)>,
}

impl Trace {
    /// Creates a trace, checking every endpoint is in `1..=n` and `u != v`.
    pub fn new(n: usize, reqs: Vec<(NodeKey, NodeKey)>) -> Trace {
        for &(u, v) in &reqs {
            assert!(u >= 1 && u as usize <= n, "endpoint {u} out of range");
            assert!(v >= 1 && v as usize <= n, "endpoint {v} out of range");
            assert!(u != v, "self-request ({u},{u})");
        }
        Trace { n, reqs }
    }

    /// Number of network nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// The request sequence.
    pub fn requests(&self) -> &[(NodeKey, NodeKey)] {
        &self.reqs
    }

    /// Truncates to the first `m` requests (paper: "we restrict all
    /// datasets to 10⁶ requests").
    pub fn truncated(mut self, m: usize) -> Trace {
        self.reqs.truncate(m);
        self
    }

    /// Borrowing view of the trace as consecutive windows of `window`
    /// requests (the last window may be shorter) — the slicing behind the
    /// per-window regret evaluation in `kst-sim`. Zero-copy: each window
    /// is a subslice of the request vector.
    pub fn windows(&self, window: usize) -> std::slice::Chunks<'_, (NodeKey, NodeKey)> {
        assert!(window > 0, "window must be positive");
        self.reqs.chunks(window)
    }

    /// Serializes as `u,v` CSV lines with a `# n=<n>` header.
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.reqs.len() * 8 + 16);
        s.push_str(&format!("# n={}\n", self.n));
        for &(u, v) in &self.reqs {
            s.push_str(&format!("{u},{v}\n"));
        }
        s
    }

    /// Parses the format produced by [`Trace::to_csv`].
    pub fn from_csv(text: &str) -> Result<Trace, String> {
        let mut parser = CsvParser::new();
        for line in text.lines() {
            parser.feed(line)?;
        }
        parser.finish()
    }

    /// Streams the CSV format produced by [`Trace::to_csv`] from a file,
    /// line by line through a buffered reader — the file is never slurped
    /// into one `String`, so multi-gigabyte real-world traces load in
    /// constant extra memory beyond the request vector itself.
    #[cfg(feature = "trace-files")]
    pub fn from_csv_path(path: impl AsRef<std::path::Path>) -> Result<Trace, String> {
        use std::io::BufRead as _;
        let path = path.as_ref();
        let file = std::fs::File::open(path)
            .map_err(|e| format!("{}: cannot open: {e}", path.display()))?;
        let mut parser = CsvParser::new();
        for line in std::io::BufReader::new(file).lines() {
            let line = line.map_err(|e| format!("{}: read error: {e}", path.display()))?;
            parser
                .feed(&line)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        parser.finish()
    }
}

/// Incremental parser for the `# n=<n>` + `u,v` CSV trace format, shared
/// by the in-memory [`Trace::from_csv`] and the streaming file loader so
/// both accept and reject exactly the same inputs.
#[derive(Debug, Default)]
struct CsvParser {
    n: usize,
    lineno: usize,
    reqs: Vec<(NodeKey, NodeKey)>,
}

impl CsvParser {
    fn new() -> CsvParser {
        CsvParser::default()
    }

    /// Consumes one line (header, comment, blank, or `u,v` record).
    fn feed(&mut self, line: &str) -> Result<(), String> {
        self.lineno += 1;
        let lineno = self.lineno;
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(v) = rest.trim().strip_prefix("n=") {
                self.n = v
                    .trim()
                    .parse()
                    .map_err(|e| format!("line {lineno}: bad n: {e}"))?;
            }
            return Ok(());
        }
        let (a, b) = line
            .split_once(',')
            .ok_or_else(|| format!("line {lineno}: expected `u,v`"))?;
        let u: NodeKey = a
            .trim()
            .parse()
            .map_err(|e| format!("line {lineno}: {e}"))?;
        let v: NodeKey = b
            .trim()
            .parse()
            .map_err(|e| format!("line {lineno}: {e}"))?;
        // Validate here, where the line number is still known — a bad
        // record in a multi-gigabyte file must be locatable. The range
        // check needs `n`, so it only runs once a header was seen; in
        // header-less (inferred-n) files, n becomes the maximum observed
        // endpoint and every record is in range by construction.
        if u == v {
            return Err(format!("line {lineno}: self-request ({u},{u})"));
        }
        if u < 1 || v < 1 {
            return Err(format!("line {lineno}: endpoints are 1-based ({u},{v})"));
        }
        if self.n > 0 && (u as usize > self.n || v as usize > self.n) {
            return Err(format!(
                "line {lineno}: request ({u},{v}) outside keyspace 1..={}",
                self.n
            ));
        }
        self.reqs.push((u, v));
        Ok(())
    }

    /// Builds the trace, inferring `n` when no header was seen.
    fn finish(self) -> Result<Trace, String> {
        let CsvParser { mut n, reqs, .. } = self;
        if n == 0 {
            n = reqs
                .iter()
                .map(|&(u, v)| u.max(v) as usize)
                .max()
                .unwrap_or(0);
        }
        // A `# n=` header may legally appear after records (feed could
        // not range-check those), so re-validate before handing the data
        // to the panicking constructor.
        for &(u, v) in &reqs {
            if u as usize > n || v as usize > n {
                return Err(format!("request ({u},{v}) outside keyspace 1..={n}"));
            }
        }
        // All `Trace::new` invariants are now guaranteed: single
        // construction path, so future invariants added there cannot be
        // bypassed by CSV-loaded traces.
        Ok(Trace::new(n, reqs))
    }
}

/// A contiguous, inclusive slice `[lo, hi]` of the keyspace — the unit of
/// partitioning for sharded serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Smallest key in the range (≥ 1).
    pub lo: NodeKey,
    /// Largest key in the range (inclusive).
    pub hi: NodeKey,
}

impl KeyRange {
    /// Number of keys in the range.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize + 1
    }

    /// Always false: ranges are constructed non-empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when `key` falls inside the range.
    #[inline]
    pub fn contains(&self, key: NodeKey) -> bool {
        self.lo <= key && key <= self.hi
    }

    /// Maps a global key inside the range to the shard-local keyspace
    /// `1..=len`.
    #[inline]
    pub fn to_local(&self, key: NodeKey) -> NodeKey {
        debug_assert!(self.contains(key));
        key - self.lo + 1
    }

    /// Maps a shard-local key back to the global keyspace.
    #[inline]
    pub fn to_global(&self, local: NodeKey) -> NodeKey {
        debug_assert!(local >= 1 && (local as usize) <= self.len());
        self.lo + local - 1
    }
}

/// Splits the keyspace `1..=n` into `shards` contiguous ranges whose sizes
/// differ by at most one (the first `n % shards` ranges get the extra key).
/// `shards` is clamped to `1..=n`. Debug builds verify the result is a
/// partition — contiguous, disjoint, covering, every range non-empty —
/// since every consumer (shard maps, shard views, migration planners)
/// silently assumes it.
pub fn partition_keyspace(n: usize, shards: usize) -> Vec<KeyRange> {
    assert!(n >= 1, "cannot partition an empty keyspace");
    let shards = shards.clamp(1, n);
    let base = n / shards;
    let big = n % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut lo = 1usize;
    for s in 0..shards {
        let len = base + usize::from(s < big);
        ranges.push(KeyRange {
            lo: lo as NodeKey,
            hi: (lo + len - 1) as NodeKey,
        });
        lo += len;
    }
    debug_assert!(
        ranges.first().map(|r| r.lo) == Some(1)
            && ranges.last().map(|r| r.hi as usize) == Some(n)
            && ranges.iter().all(|r| r.lo <= r.hi)
            && ranges.windows(2).all(|w| w[1].lo == w[0].hi + 1),
        "partition_keyspace produced a non-partition for n={n} shards={shards}"
    );
    ranges
}

/// The n×n demand matrix D of the offline problem: `D[u][v]` counts
/// requests from `u` to `v` (diagonal is zero by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandMatrix {
    n: usize,
    d: Vec<u64>,
}

impl DemandMatrix {
    /// All-zero demand.
    pub fn zeros(n: usize) -> DemandMatrix {
        DemandMatrix {
            n,
            d: vec![0; n * n],
        }
    }

    /// Aggregates a trace.
    pub fn from_trace(trace: &Trace) -> DemandMatrix {
        let mut m = DemandMatrix::zeros(trace.n());
        for &(u, v) in trace.requests() {
            let s = m.slot(u, v);
            m.d[s] += 1;
        }
        m
    }

    /// Wraps pre-aggregated flat row-major counts (`counts[u*n + v]` =
    /// requests from key `u+1` to key `v+1`); the diagonal must be zero.
    ///
    /// This path **copies** the n² buffer; callers that already own the
    /// counts should hand them over via [`DemandMatrix::from_counts_vec`]
    /// instead.
    pub fn from_counts(n: usize, counts: &[u64]) -> DemandMatrix {
        DemandMatrix::from_counts_vec(n, counts.to_vec())
    }

    /// Owning variant of [`DemandMatrix::from_counts`]: takes the flat
    /// row-major buffer by value, so wrapping pre-aggregated counts is
    /// validation-only — no n²-element clone.
    pub fn from_counts_vec(n: usize, counts: Vec<u64>) -> DemandMatrix {
        assert_eq!(counts.len(), n * n);
        for u in 0..n {
            assert_eq!(counts[u * n + u], 0, "diagonal must be zero");
        }
        DemandMatrix { n, d: counts }
    }

    /// Densifies canonical-order `(u, v, count)` pair entries (as produced
    /// by `DecayingDemand::pairs_sorted` or `DemandView::pairs_sorted`) —
    /// the dense-DP consumers' entry point for the planner-facing demand
    /// views of the two-phase rebuild machinery.
    pub fn from_pairs(n: usize, pairs: &[(NodeKey, NodeKey, u64)]) -> DemandMatrix {
        let mut m = DemandMatrix::zeros(n);
        for &(u, v, c) in pairs {
            // Same invariant every other constructor enforces — record()
            // only debug-asserts it, so re-check here in release too.
            assert_ne!(u, v, "diagonal must be zero (self-demand ({u},{u}))");
            let s = m.slot(u, v);
            m.d[s] = c;
        }
        m
    }

    /// The finite uniform workload of Section 3.2 / Appendix A.2: an upper
    /// triangular all-ones matrix (each unordered pair requested once).
    pub fn uniform(n: usize) -> DemandMatrix {
        let mut m = DemandMatrix::zeros(n);
        for u in 0..n {
            for v in u + 1..n {
                m.d[u * n + v] = 1;
            }
        }
        m
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row-major slot of the 1-based key pair `(u, v)`.
    #[inline]
    fn slot(&self, u: NodeKey, v: NodeKey) -> usize {
        (u as usize - 1) * self.n + (v as usize - 1)
    }

    /// Demand from key `u` to key `v` (1-based keys).
    pub fn get(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.d[self.slot(u, v)]
    }

    /// Adds `w` requests from `u` to `v` (1-based keys).
    pub fn add(&mut self, u: NodeKey, v: NodeKey, w: u64) {
        assert!(u != v);
        let s = self.slot(u, v);
        self.d[s] += w;
    }

    /// Demand between 0-based indices (row-major access for hot loops).
    #[inline]
    pub fn at(&self, u: usize, v: usize) -> u64 {
        self.d[u * self.n + v]
    }

    /// Total number of requests.
    pub fn total(&self) -> u64 {
        self.d.iter().sum()
    }

    /// Symmetrized demand `D[u][v] + D[v][u]` at 0-based indices.
    #[inline]
    pub fn sym(&self, u: usize, v: usize) -> u64 {
        self.at(u, v) + self.at(v, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_roundtrip_csv() {
        let t = Trace::new(5, vec![(1, 2), (3, 5), (2, 1)]);
        let csv = t.to_csv();
        let t2 = Trace::from_csv(&csv).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    #[should_panic(expected = "self-request")]
    fn trace_rejects_self_requests() {
        Trace::new(3, vec![(2, 2)]);
    }

    #[test]
    fn demand_from_trace_counts() {
        let t = Trace::new(4, vec![(1, 2), (1, 2), (4, 3)]);
        let d = DemandMatrix::from_trace(&t);
        assert_eq!(d.get(1, 2), 2);
        assert_eq!(d.get(2, 1), 0);
        assert_eq!(d.get(4, 3), 1);
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn uniform_demand_is_upper_triangular() {
        let d = DemandMatrix::uniform(4);
        assert_eq!(d.total(), 6);
        for u in 1..=4u32 {
            for v in 1..=4u32 {
                let want = u64::from(u < v);
                assert_eq!(d.get(u, v), want);
            }
        }
    }

    #[test]
    fn truncation() {
        let t = Trace::new(3, vec![(1, 2); 10]).truncated(4);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        assert!(Trace::from_csv("# n=3\n1;2\n").is_err());
        assert!(Trace::from_csv("# n=3\nx,2\n").is_err());
        assert!(Trace::from_csv("# n=zzz\n1,2\n").is_err());
    }

    #[test]
    fn csv_infers_n_when_header_missing() {
        let t = Trace::from_csv("1,2\n5,3\n").unwrap();
        assert_eq!(t.n(), 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_ignores_blank_lines_and_comments() {
        let t = Trace::from_csv("# n=4\n\n# comment\n1,4\n").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.n(), 4);
    }

    #[test]
    fn from_counts_roundtrip() {
        let t = Trace::new(3, vec![(1, 2), (1, 2), (3, 1)]);
        let d = DemandMatrix::from_trace(&t);
        let flat: Vec<u64> = (0..3)
            .flat_map(|u| (0..3).map(move |v| (u, v)))
            .map(|(u, v)| d.at(u, v))
            .collect();
        let d2 = DemandMatrix::from_counts(3, &flat);
        assert_eq!(d, d2);
    }

    #[test]
    #[should_panic(expected = "diagonal must be zero")]
    fn from_counts_rejects_diagonal() {
        DemandMatrix::from_counts(2, &[1, 0, 0, 0]);
    }

    #[test]
    fn from_counts_vec_is_equivalent_without_copying() {
        let flat = vec![0, 2, 5, 0];
        let borrowed = DemandMatrix::from_counts(2, &flat);
        let owned = DemandMatrix::from_counts_vec(2, flat);
        assert_eq!(borrowed, owned);
        assert_eq!(owned.get(1, 2), 2);
        assert_eq!(owned.get(2, 1), 5);
    }

    #[test]
    #[should_panic(expected = "diagonal must be zero")]
    fn from_counts_vec_rejects_diagonal() {
        DemandMatrix::from_counts_vec(2, vec![0, 0, 0, 3]);
    }

    #[test]
    fn from_pairs_matches_from_trace() {
        let t = Trace::new(6, vec![(1, 2), (1, 2), (6, 3), (2, 1)]);
        let mut ledger = crate::DecayingDemand::new(6, 0);
        for &(u, v) in t.requests() {
            ledger.record(u, v);
        }
        ledger.decay_merge();
        assert_eq!(
            DemandMatrix::from_pairs(6, &ledger.pairs_sorted()),
            DemandMatrix::from_trace(&t)
        );
    }

    #[test]
    #[should_panic(expected = "self-demand (2,2)")]
    fn from_pairs_rejects_self_demand() {
        // The densifier re-checks the diagonal in release builds too, so a
        // self-pair that slipped past a ledger's debug-only check is caught
        // here, and the message names the offending pair.
        DemandMatrix::from_pairs(3, &[(1, 2, 4), (2, 2, 1)]);
    }

    #[test]
    fn csv_rejects_out_of_range_and_self_requests() {
        assert!(Trace::from_csv("# n=3\n1,7\n").is_err());
        assert!(Trace::from_csv("# n=3\n2,2\n").is_err());
    }

    #[test]
    fn partition_covers_keyspace_contiguously() {
        for n in [1usize, 2, 7, 64, 1000] {
            for shards in [1usize, 2, 3, 8, 2000] {
                let ranges = partition_keyspace(n, shards);
                assert_eq!(ranges.len(), shards.clamp(1, n));
                assert_eq!(ranges[0].lo, 1);
                assert_eq!(*ranges.last().map(|r| &r.hi).unwrap() as usize, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].hi + 1, w[1].lo, "contiguous");
                    assert!(w[0].len().abs_diff(w[1].len()) <= 1, "balanced");
                }
            }
        }
    }

    #[test]
    fn key_range_local_global_roundtrip() {
        let r = KeyRange { lo: 11, hi: 20 };
        assert_eq!(r.len(), 10);
        for key in 11..=20u32 {
            let local = r.to_local(key);
            assert!((1..=10).contains(&local));
            assert_eq!(r.to_global(local), key);
        }
    }

    #[cfg(feature = "trace-files")]
    mod files {
        use super::*;

        fn tmp_file(name: &str, content: &str) -> std::path::PathBuf {
            let path = std::env::temp_dir().join(format!("ksan-{name}-{}", std::process::id()));
            std::fs::write(&path, content).unwrap();
            path
        }

        #[test]
        fn from_csv_path_roundtrips() {
            let t = Trace::new(6, vec![(1, 6), (2, 5), (6, 3)]);
            let path = tmp_file("trace-ok.csv", &t.to_csv());
            let loaded = Trace::from_csv_path(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(loaded, t);
        }

        #[test]
        fn from_csv_path_reports_malformed_lines_with_path_and_lineno() {
            let path = tmp_file("trace-bad.csv", "# n=4\n1,2\nnot-a-pair\n");
            let err = Trace::from_csv_path(&path).unwrap_err();
            std::fs::remove_file(&path).ok();
            assert!(err.contains("line 3"), "error should cite the line: {err}");
            assert!(
                err.contains("ksan-trace-bad"),
                "error should cite the file: {err}"
            );
        }

        #[test]
        fn from_csv_path_missing_file_is_an_error() {
            let err = Trace::from_csv_path("/nonexistent/ksan-no-such-trace.csv").unwrap_err();
            assert!(err.contains("cannot open"), "{err}");
        }
    }
}
