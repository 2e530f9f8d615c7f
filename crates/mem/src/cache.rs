//! A generic set-associative, write-back, LRU cache core.
//!
//! Used for the L1-I/L1-D (32-byte lines), the private L2 and the shared
//! L3 banks (128-byte lines). Addresses are handled at *line* granularity:
//! callers shift byte addresses down before lookup, so one `Cache` never
//! needs to know its line size.
//!
//! The implementation is built for the batch engine's probe rate: each
//! way is one packed `u64` — the line tag shifted left with the
//! dirty/prefetched bits in the low bits — and every set keeps its ways
//! ordered **most- to least-recently-used**. Recency ordering makes the
//! position encode exact LRU: a hit rotates the way to the front, the
//! eviction victim is always the last way, and no per-way timestamp
//! array exists at all. Under the temporal locality the simulated
//! kernels exhibit, the hit fast path is a single load and compare of
//! way 0. Set selection is `line % sets`, reduced to a mask when `sets`
//! is a power of two — [`MachineConfig::validate`] guarantees the L1 and
//! L2 set counts are powers of two so their probes never take the `%`
//! branch, while the L3 is built from 2 MB eDRAM macros and legitimately
//! has non-power-of-two set counts (e.g. the 6 MB point of the paper's
//! Fig. 11 sweep).
//!
//! Alongside the way entries the cache maintains a **counting membership
//! filter** (one `u16` bucket per hashed line, kept exact by
//! incrementing on install and decrementing on eviction/invalidation).
//! A zero bucket proves a line absent without touching the set, which
//! turns the probe-heavy *usually-absent* paths — coherence snoops into
//! peer caches, prefetch-duplicate checks, write-back `mark_dirty`
//! probes — into a single hash and load. A non-zero bucket falls back to
//! the exact tag scan, so results never change; only the cost does.
//!
//! Way order is an implementation detail: no production consumer
//! observes it (the differential and golden tests pin that), so the
//! recency ordering is behaviorally identical to a timestamped LRU.
//!
//! [`MachineConfig::validate`]: bgp_arch::MachineConfig::validate

/// Packed-entry flag bit: line has been modified (write-back needed on
/// eviction).
const FLAG_DIRTY: u64 = 1 << 0;
/// Packed-entry flag bit: line was speculatively fetched and not yet
/// demand-touched.
const FLAG_PREFETCHED: u64 = 1 << 1;
/// Mask of the flag bits within a packed entry.
const FLAG_MASK: u64 = FLAG_DIRTY | FLAG_PREFETCHED;
/// Left shift turning a line address into its packed-entry tag.
const ENT_SHIFT: u32 = 2;
/// Sentinel entry meaning "invalid way". Cannot collide with a real
/// entry: a real tag has bit 1 << 63 clear (lines are byte addresses
/// shifted *down* by at least the 32-byte line shift, then up by
/// [`ENT_SHIFT`]).
const INVALID: u64 = u64::MAX;

/// A line evicted by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Line address (same granularity the cache was addressed with).
    pub line: u64,
    /// Whether the line was dirty (needs writing down the hierarchy).
    pub dirty: bool,
}

/// Result of a demand lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hit {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether the hit line had been brought in by a prefetch and this is
    /// the first demand touch since.
    pub first_prefetch_use: bool,
}

/// A set-associative LRU cache addressed at line granularity.
///
/// ```
/// use bgp_mem::Cache;
///
/// let mut c = Cache::new(2, 2); // 2 sets × 2 ways
/// assert!(!c.access(7, false).hit);   // cold miss
/// c.fill(7, false, false);
/// assert!(c.access(7, true).hit);     // write hit marks the line dirty
/// assert_eq!(c.flush(), vec![7]);     // flush returns the dirty lines
/// ```
/// Backing storage allocates **lazily**: a freshly built cache holds no
/// way array and no filter until the first [`Cache::fill`] (cold probes
/// answer "miss"/"absent" straight from the empty state). A machine with
/// tens of thousands of idle nodes therefore pays a few machine words
/// per cache, not `sets × ways`; the first line installed materializes
/// the arrays and behavior is identical from then on.
#[derive(Clone, Debug)]
pub struct Cache {
    /// Packed way entries (`line << ENT_SHIFT | flags`), `sets × ways`,
    /// set-major, each set ordered most- to least-recently-used.
    /// Empty until the first fill materializes it.
    ents: Vec<u64>,
    /// Counting membership filter: `filt[hash(line)]` is the number of
    /// resident lines hashing to that bucket. Zero proves absence.
    /// Empty until the first fill (or always, for unfiltered caches).
    filt: Vec<u16>,
    /// Length the filter materializes to (0 = unfiltered).
    filt_len: usize,
    /// Right-shift applied to the hashed line to index `filt`.
    filt_shift: u32,
    num_sets: usize,
    assoc: usize,
    set_mask: Option<u64>,
}

/// Multiplier of the Fibonacci line hash feeding the membership filter.
const FILT_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

impl Cache {
    /// Build a cache with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(sets: usize, assoc: usize) -> Cache {
        // Two filter buckets per line keeps bucket occupancy (and thus
        // the false-maybe rate of the absence test) low.
        Cache::build(sets, assoc, true)
    }

    /// Build a cache without the membership filter. Right for caches
    /// whose probe mix rarely benefits from absence proofs (the L3:
    /// write-backs it receives usually find their line resident, so a
    /// filter is maintenance cost without payoff).
    pub fn unfiltered(sets: usize, assoc: usize) -> Cache {
        Cache::build(sets, assoc, false)
    }

    fn build(sets: usize, assoc: usize, filtered: bool) -> Cache {
        assert!(sets > 0 && assoc > 0, "cache must have sets and ways");
        let filt_len = if filtered {
            (sets * assoc * 2).next_power_of_two().max(64)
        } else {
            0
        };
        Cache {
            ents: Vec::new(),
            filt: Vec::new(),
            filt_len,
            filt_shift: 64 - filt_len.trailing_zeros().min(63),
            num_sets: sets,
            assoc,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
        }
    }

    /// Whether the backing arrays have not been allocated yet (no line
    /// was ever installed, or every restore image was all-invalid).
    #[inline]
    fn is_cold(&self) -> bool {
        self.ents.is_empty()
    }

    /// Allocate the way array and filter. Idempotent.
    fn materialize(&mut self) {
        if self.is_cold() {
            self.ents = vec![INVALID; self.num_sets * self.assoc];
            self.filt = vec![0; self.filt_len];
        }
    }

    #[inline]
    fn filt_idx(&self, line: u64) -> usize {
        (line.wrapping_mul(FILT_HASH) >> self.filt_shift) as usize
    }

    /// Membership-filter check: `false` proves `line` is absent; `true`
    /// means "maybe resident" and callers fall back to the tag scan.
    #[inline]
    fn maybe_resident(&self, line: u64) -> bool {
        if self.is_cold() {
            return false;
        }
        self.filt.is_empty() || self.filt[self.filt_idx(line)] != 0
    }

    #[inline]
    fn filt_add(&mut self, line: u64) {
        if self.filt.is_empty() {
            return;
        }
        let i = self.filt_idx(line);
        debug_assert!(self.filt[i] < u16::MAX, "membership filter bucket overflow");
        self.filt[i] += 1;
    }

    #[inline]
    fn filt_remove(&mut self, line: u64) {
        if self.filt.is_empty() {
            return;
        }
        let i = self.filt_idx(line);
        debug_assert!(self.filt[i] > 0, "membership filter underflow");
        self.filt[i] -= 1;
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.num_sets * self.assoc
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(m) => (line & m) as usize,
            None => (line % self.num_sets as u64) as usize,
        }
    }

    /// Demand access: returns hit/miss, refreshes LRU, optionally marks
    /// the line dirty (write hit).
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> Hit {
        if self.is_cold() {
            return Hit { hit: false, first_prefetch_use: false };
        }
        let base = self.set_of(line) * self.assoc;
        let target = line << ENT_SHIFT;
        let wflag = if write { FLAG_DIRTY } else { 0 };
        let set = &mut self.ents[base..base + self.assoc];
        // Fast path: the MRU way answers most hits, with no reordering.
        let e0 = set[0];
        if e0 & !FLAG_MASK == target {
            set[0] = target | ((e0 & FLAG_DIRTY) | wflag);
            return Hit { hit: true, first_prefetch_use: e0 & FLAG_PREFETCHED != 0 };
        }
        for i in 1..set.len() {
            let e = set[i];
            if e & !FLAG_MASK == target {
                // Rotate the hit way to the MRU position. Shifted by
                // hand: the rotation distance is usually 1-3 ways, where
                // an explicit loop beats a generic `copy_within` memmove.
                let mut k = i;
                while k > 0 {
                    set[k] = set[k - 1];
                    k -= 1;
                }
                set[0] = target | ((e & FLAG_DIRTY) | wflag);
                return Hit { hit: true, first_prefetch_use: e & FLAG_PREFETCHED != 0 };
            }
        }
        Hit { hit: false, first_prefetch_use: false }
    }

    /// Probe without disturbing LRU or prefetch state (snoop path).
    /// The membership filter answers the common absent case without
    /// touching the set.
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        if !self.maybe_resident(line) {
            return false;
        }
        let base = self.set_of(line) * self.assoc;
        let target = line << ENT_SHIFT;
        self.ents[base..base + self.assoc].iter().any(|&e| e & !FLAG_MASK == target)
    }

    /// Install `line`, evicting the LRU way if the set is full.
    ///
    /// `dirty` marks the line modified on arrival (write-allocate store,
    /// or a write-back arriving from above). `prefetched` tags the line
    /// as speculatively fetched so the first demand hit can be attributed
    /// to the prefetcher.
    #[inline]
    pub fn fill(&mut self, line: u64, dirty: bool, prefetched: bool) -> Option<Evicted> {
        self.materialize();
        let base = self.set_of(line) * self.assoc;
        let target = line << ENT_SHIFT;
        let dflag = if dirty { FLAG_DIRTY } else { 0 };
        let set = &mut self.ents[base..base + self.assoc];
        let mut invalid_at = None;
        for i in 0..set.len() {
            let e = set[i];
            if e & !FLAG_MASK == target {
                // Already present (e.g. a racing prefetch): refresh.
                let mut f = (e & FLAG_MASK) | dflag;
                if !prefetched {
                    f &= !FLAG_PREFETCHED;
                }
                let mut k = i;
                while k > 0 {
                    set[k] = set[k - 1];
                    k -= 1;
                }
                set[0] = target | f;
                return None;
            }
            if e == INVALID && invalid_at.is_none() {
                invalid_at = Some(i);
            }
        }
        let pflag = if prefetched { FLAG_PREFETCHED } else { 0 };
        let new_ent = target | dflag | pflag;
        match invalid_at {
            Some(i) => {
                let mut k = i;
                while k > 0 {
                    set[k] = set[k - 1];
                    k -= 1;
                }
                set[0] = new_ent;
                self.filt_add(line);
                None
            }
            None => {
                let victim = set[set.len() - 1];
                let evicted = Evicted {
                    line: victim >> ENT_SHIFT,
                    dirty: victim & FLAG_DIRTY != 0,
                };
                let mut k = set.len() - 1;
                while k > 0 {
                    set[k] = set[k - 1];
                    k -= 1;
                }
                set[0] = new_ent;
                self.filt_remove(evicted.line);
                self.filt_add(line);
                Some(evicted)
            }
        }
    }

    /// Mark an already-present line dirty; returns whether it was
    /// present. Does not refresh LRU (write-backs arriving from above are
    /// not demand touches).
    #[inline]
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        if !self.maybe_resident(line) {
            return false;
        }
        let base = self.set_of(line) * self.assoc;
        let target = line << ENT_SHIFT;
        for e in &mut self.ents[base..base + self.assoc] {
            if *e & !FLAG_MASK == target {
                *e |= FLAG_DIRTY;
                return true;
            }
        }
        false
    }

    /// Remove a line (snoop invalidation); returns its dirtiness if it
    /// was present.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        if !self.maybe_resident(line) {
            return None;
        }
        let base = self.set_of(line) * self.assoc;
        let target = line << ENT_SHIFT;
        for e in &mut self.ents[base..base + self.assoc] {
            if *e & !FLAG_MASK == target {
                let dirty = *e & FLAG_DIRTY != 0;
                *e = INVALID;
                self.filt_remove(line);
                return Some(dirty);
            }
        }
        None
    }

    /// Number of valid lines currently resident (O(capacity); tests only).
    pub fn resident_lines(&self) -> usize {
        self.ents.iter().filter(|&&e| e != INVALID).count()
    }

    /// Fold `f` over the line address of every valid way, in storage
    /// order (O(capacity); rebuilding derived state after a restore).
    pub(crate) fn fold_lines<T>(&self, init: T, f: impl FnMut(T, u64) -> T) -> T {
        self.ents.iter().filter(|&&e| e != INVALID).map(|&e| e >> ENT_SHIFT).fold(init, f)
    }

    /// Serialize the cache's runtime state (checkpoint support).
    ///
    /// Only the packed way entries are written: the membership filter is
    /// an exact count of resident lines, so [`Cache::restore_state`]
    /// rebuilds it deterministically from the entries. A cold
    /// (never-filled) cache writes the same all-invalid image an eagerly
    /// allocated empty cache would, so snapshots stay byte-identical
    /// regardless of materialization state.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        if self.is_cold() {
            bgp_arch::wire::put_u64s(out, &vec![INVALID; self.num_sets * self.assoc]);
        } else {
            bgp_arch::wire::put_u64s(out, &self.ents);
        }
    }

    /// Restore state previously written by [`Cache::save_state`] into a
    /// cache of identical geometry.
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated input or an entry
    /// count that does not match this cache's `sets × ways`.
    pub fn restore_state(
        &mut self,
        r: &mut bgp_arch::wire::Reader<'_>,
    ) -> bgp_arch::error::Result<()> {
        let ents = r.u64s("cache entries")?;
        if ents.len() != self.num_sets * self.assoc {
            return Err(bgp_arch::BgpError::corrupt(format!(
                "cache geometry mismatch: snapshot has {} entries, cache holds {}",
                ents.len(),
                self.num_sets * self.assoc
            )));
        }
        if ents.iter().all(|&e| e == INVALID) {
            // All-invalid image: stay (or return to) the cold
            // representation so restored idle nodes cost nothing.
            self.ents = Vec::new();
            self.filt = Vec::new();
            return Ok(());
        }
        self.ents = ents;
        self.filt = vec![0; self.filt_len];
        if !self.filt.is_empty() {
            for i in 0..self.ents.len() {
                let e = self.ents[i];
                if e != INVALID {
                    self.filt_add(e >> ENT_SHIFT);
                }
            }
        }
        Ok(())
    }

    /// Drop every line, returning the dirty ones (cache flush).
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for e in &mut self.ents {
            if *e != INVALID && *e & FLAG_DIRTY != 0 {
                dirty.push(*e >> ENT_SHIFT);
            }
            *e = INVALID;
        }
        self.filt.fill(0);
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(4, 2);
        assert!(!c.access(10, false).hit);
        c.fill(10, false, false);
        assert!(c.access(10, false).hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Cache::new(1, 2);
        c.fill(1, false, false);
        c.fill(2, false, false);
        c.access(1, false); // 2 becomes LRU
        let ev = c.fill(3, false, false).unwrap();
        assert_eq!(ev.line, 2);
        assert!(c.contains(1));
        assert!(c.contains(3));
    }

    #[test]
    fn dirty_state_survives_and_reports_on_eviction() {
        let mut c = Cache::new(1, 1);
        c.fill(7, false, false);
        assert!(c.mark_dirty(7));
        let ev = c.fill(8, false, false).unwrap();
        assert_eq!(ev, Evicted { line: 7, dirty: true });
        let ev2 = c.fill(9, false, false).unwrap();
        assert_eq!(ev2, Evicted { line: 8, dirty: false });
    }

    #[test]
    fn write_access_marks_dirty() {
        let mut c = Cache::new(2, 2);
        c.fill(4, false, false);
        assert!(c.access(4, true).hit);
        let flushed = c.flush();
        assert_eq!(flushed, vec![4]);
    }

    #[test]
    fn prefetched_flag_reports_first_use_only() {
        let mut c = Cache::new(2, 2);
        c.fill(6, false, true);
        let h1 = c.access(6, false);
        assert!(h1.hit && h1.first_prefetch_use);
        let h2 = c.access(6, false);
        assert!(h2.hit && !h2.first_prefetch_use);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut c = Cache::new(1, 2);
        c.fill(1, false, false);
        c.fill(2, true, false);
        assert!(c.fill(2, false, false).is_none());
        // Dirty bit is sticky across the duplicate fill.
        let ev = c.fill(3, false, false).unwrap();
        assert_eq!(ev.line, 1, "line 2 was refreshed by refill");
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = Cache::new(2, 1);
        c.fill(3, true, false);
        assert_eq!(c.invalidate(3), Some(true));
        assert_eq!(c.invalidate(3), None);
        assert!(!c.contains(3));
    }

    #[test]
    fn non_power_of_two_sets_distribute_all_lines() {
        // Mirrors the 6 MB L3 configuration (3072 sets).
        let mut c = Cache::new(3, 2);
        for line in 0..6u64 {
            c.fill(line, false, false);
        }
        assert_eq!(c.resident_lines(), 6, "3 sets × 2 ways all used");
        for line in 0..6u64 {
            assert!(c.contains(line));
        }
    }

    #[test]
    fn conflict_misses_within_one_set() {
        let mut c = Cache::new(4, 1);
        c.fill(0, false, false);
        c.fill(4, false, false); // same set (0), evicts 0
        assert!(!c.contains(0));
        assert!(c.contains(4));
    }

    #[test]
    fn prefetched_flag_clears_on_duplicate_demand_fill() {
        // A duplicate fill with prefetched=false must clear the
        // speculative tag (prefetched &= prefetched semantics).
        let mut c = Cache::new(1, 2);
        c.fill(5, false, true);
        c.fill(5, false, false);
        let h = c.access(5, false);
        assert!(h.hit && !h.first_prefetch_use);
    }

    #[test]
    fn save_restore_preserves_lru_dirty_and_filter() {
        let mut c = Cache::new(4, 2);
        c.fill(1, true, false);
        c.fill(5, false, true);
        c.fill(9, false, false); // evicts within set 1
        c.access(1, false);

        let mut bytes = Vec::new();
        c.save_state(&mut bytes);
        let mut d = Cache::new(4, 2);
        let mut r = bgp_arch::wire::Reader::new(&bytes);
        d.restore_state(&mut r).unwrap();
        r.expect_end("cache").unwrap();

        assert_eq!(d.ents, c.ents, "packed entries identical");
        assert_eq!(d.filt, c.filt, "rebuilt filter identical");
        // Behavioral check: LRU victim order and dirtiness survive.
        assert_eq!(c.flush(), d.flush());

        // Geometry mismatch fails closed.
        let mut wrong = Cache::new(8, 2);
        assert!(wrong.restore_state(&mut bgp_arch::wire::Reader::new(&bytes)).is_err());
    }

    #[test]
    fn cold_cache_allocates_nothing_until_first_fill() {
        let mut c = Cache::new(1024, 8);
        assert!(c.ents.is_empty() && c.filt.is_empty(), "built cold");
        // Cold probes answer without materializing.
        assert!(!c.access(42, true).hit);
        assert!(!c.contains(42));
        assert!(!c.mark_dirty(42));
        assert_eq!(c.invalidate(42), None);
        assert_eq!(c.flush(), Vec::<u64>::new());
        assert_eq!(c.resident_lines(), 0);
        assert!(c.ents.is_empty() && c.filt.is_empty(), "still cold");
        // First fill materializes; behavior is the eager cache's.
        c.fill(42, true, false);
        assert_eq!(c.ents.len(), 1024 * 8);
        assert!(c.access(42, false).hit);
        assert_eq!(c.flush(), vec![42]);
    }

    #[test]
    fn cold_and_eager_empty_caches_snapshot_identically() {
        let cold = Cache::new(8, 2);
        let mut touched = Cache::new(8, 2);
        touched.fill(3, false, false);
        touched.invalidate(3);
        // `touched` is materialized but empty; images must match.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        cold.save_state(&mut a);
        touched.save_state(&mut b);
        assert_eq!(a, b);
        // Restoring an all-invalid image returns the cache to cold.
        let mut r = bgp_arch::wire::Reader::new(&a);
        touched.restore_state(&mut r).unwrap();
        assert!(touched.ents.is_empty(), "all-invalid restore de-materializes");
        assert!(!touched.contains(3));
    }

    #[test]
    fn invalidated_way_is_refilled_before_any_eviction() {
        let mut c = Cache::new(1, 3);
        for line in [1u64, 2, 3] {
            c.fill(line, false, false);
        }
        c.invalidate(2);
        // The freed way absorbs the next fill; nothing is evicted.
        assert!(c.fill(9, false, false).is_none());
        assert_eq!(c.resident_lines(), 3);
        // The set is full again: the next fill evicts true-LRU line 1.
        assert_eq!(c.fill(10, false, false).unwrap().line, 1);
    }
}
