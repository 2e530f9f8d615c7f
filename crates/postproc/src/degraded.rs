//! **Degraded-mode aggregation**: counter statistics over whatever
//! nodes survived.
//!
//! The strict [`Frame`] refuses to aggregate anything
//! suspicious — a missing set, a record-count mismatch — because on a
//! healthy machine those are integrity bugs. After faults, they are
//! Tuesday. [`DegradedFrame`] aggregates what actually arrived:
//!
//! * nodes whose dumps never made it simply don't contribute;
//! * every event carries a **coverage** fraction — surviving observers
//!   over the [`AggregateOptions::expected_nodes_in_mode`] census — and
//!   events below the [`AggregateOptions::coverage_floor`] are marked
//!   unreliable;
//! * per-node values wildly above the node median (a counter bit flip
//!   in a high bit, a saturated counter) are dropped as outliers before
//!   the mean, so one flipped bit doesn't poison a 64-node average;
//! * a [`DegradedFrame::sanity`] pass reports saturated counters,
//!   quarantine-level coverage, and dropped outliers in prose.
//!
//! [`DegradedFrame::reliable_frame`] then re-packages the events that
//! met the floor as an ordinary [`Frame`], so every
//! downstream metric (MFLOPS, DDR traffic, instruction mix) works
//! unchanged on degraded data.

use crate::frame::{EventStats, Frame};
use bgp_arch::events::{CounterMode, EventId, NUM_COUNTERS};
use bgp_core::dump::NodeDump;
use std::collections::HashMap;

/// Values at or above this are treated as saturation artifacts by the
/// sanity pass (no real counter of a finite run reaches 2^62).
pub const SATURATION_SUSPECT: u64 = 1 << 62;

/// Knobs of degraded aggregation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggregateOptions {
    /// How many nodes *should* be reporting in each counter mode (the
    /// job's census, from its counter policy) — the denominator of
    /// every coverage fraction.
    pub expected_nodes_in_mode: [usize; 4],
    /// Events covered by fewer than this fraction of their expected
    /// nodes are marked unreliable and excluded from
    /// [`DegradedFrame::reliable_frame`].
    pub coverage_floor: f64,
    /// A per-node value greater than `outlier_factor × median +
    /// outlier_slack` is dropped before the mean (needs ≥ 3 observers).
    pub outlier_factor: u64,
    /// Additive slack of the outlier rule, so tiny medians don't make
    /// every small fluctuation an outlier.
    pub outlier_slack: u64,
}

impl AggregateOptions {
    /// Defaults: 50% coverage floor, `8×median + 1024` outlier rule.
    pub fn new(expected_nodes_in_mode: [usize; 4]) -> AggregateOptions {
        AggregateOptions {
            expected_nodes_in_mode,
            coverage_floor: 0.5,
            outlier_factor: 8,
            outlier_slack: 1024,
        }
    }

    /// Census for a fixed-mode job: all `nodes` report in `mode`.
    pub fn fixed(mode: CounterMode, nodes: usize) -> AggregateOptions {
        let mut expected = [0usize; 4];
        expected[mode.index()] = nodes;
        AggregateOptions::new(expected)
    }

    /// Census for the even/odd policy over `nodes` nodes.
    pub fn even_odd(even: CounterMode, odd: CounterMode, nodes: usize) -> AggregateOptions {
        let mut expected = [0usize; 4];
        expected[even.index()] += nodes.div_ceil(2);
        expected[odd.index()] += nodes / 2;
        AggregateOptions::new(expected)
    }
}

/// Statistics of one event over the nodes that delivered it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradedEventStats {
    /// Min/max/mean/sum over surviving, non-outlier observers.
    pub stats: EventStats,
    /// Surviving observers over expected observers, in `[0, 1]`.
    pub coverage: f64,
    /// Whether coverage met the floor (only reliable events make it
    /// into [`DegradedFrame::reliable_frame`]).
    pub reliable: bool,
    /// Per-node values discarded by the outlier rule.
    pub outliers_dropped: usize,
    /// Largest per-node value seen *before* outlier rejection (what the
    /// sanity pass checks against [`SATURATION_SUSPECT`]).
    pub raw_max: u64,
}

/// Aggregated view of one set across the surviving nodes of a faulted
/// run. Construction never fails: zero dumps is simply zero coverage.
#[derive(Clone, Debug)]
pub struct DegradedFrame {
    set: u32,
    per_event: HashMap<EventId, DegradedEventStats>,
    observed_by_mode: [usize; 4],
    opts: AggregateOptions,
    records: u32,
}

impl DegradedFrame {
    /// Aggregate `set` over whatever `dumps` survived collection.
    ///
    /// Tolerates everything the strict path rejects: nodes missing the
    /// set contribute nothing, record-count disagreements resolve to
    /// the most common value, malformed sets are skipped.
    pub fn from_dumps(dumps: &[NodeDump], set: u32, opts: AggregateOptions) -> DegradedFrame {
        let mut observed_by_mode = [0usize; 4];
        // event → per-node raw values.
        let mut values: HashMap<EventId, Vec<u64>> = HashMap::new();
        let mut record_votes: HashMap<u32, usize> = HashMap::new();
        for d in dumps {
            let Some(s) = d.set(set) else { continue };
            if s.counts.len() != NUM_COUNTERS {
                continue; // malformed set: quarantine silently here
            }
            observed_by_mode[d.mode.index()] += 1;
            *record_votes.entry(s.records).or_insert(0) += 1;
            for (slot, &v) in s.counts.iter().enumerate() {
                values.entry(EventId::new(d.mode, slot as u8)).or_default().push(v);
            }
        }
        let records = record_votes
            .into_iter()
            .max_by_key(|&(records, votes)| (votes, records))
            .map_or(0, |(r, _)| r);
        let mut per_event = HashMap::with_capacity(values.len());
        for (ev, mut vs) in values {
            let raw_max = vs.iter().copied().max().unwrap_or(0);
            let before = vs.len();
            if vs.len() >= 3 {
                let mut sorted = vs.clone();
                sorted.sort_unstable();
                let median = sorted[sorted.len() / 2];
                let cap = median
                    .saturating_mul(opts.outlier_factor)
                    .saturating_add(opts.outlier_slack);
                vs.retain(|&v| v <= cap);
            }
            let outliers_dropped = before - vs.len();
            let expected = opts.expected_nodes_in_mode[ev.mode().index()];
            let coverage = if expected == 0 {
                1.0
            } else {
                (vs.len() as f64 / expected as f64).min(1.0)
            };
            let stats = EventStats {
                min: vs.iter().copied().min().unwrap_or(0),
                max: vs.iter().copied().max().unwrap_or(0),
                mean: if vs.is_empty() {
                    0.0
                } else {
                    vs.iter().map(|&v| v as f64).sum::<f64>() / vs.len() as f64
                },
                sum: vs.iter().copied().fold(0u64, u64::wrapping_add),
                nodes: vs.len(),
            };
            per_event.insert(
                ev,
                DegradedEventStats {
                    stats,
                    coverage,
                    reliable: coverage >= opts.coverage_floor,
                    outliers_dropped,
                    raw_max,
                },
            );
        }
        DegradedFrame { set, per_event, observed_by_mode, opts, records }
    }

    /// The set this frame aggregates.
    pub fn set(&self) -> u32 {
        self.set
    }

    /// Modal record count among surviving nodes (0 when nothing survived).
    pub fn records(&self) -> u32 {
        self.records
    }

    /// Per-event degraded statistics.
    pub fn stats(&self, ev: EventId) -> Option<&DegradedEventStats> {
        self.per_event.get(&ev)
    }

    /// Overall node coverage: surviving observers over the expected
    /// census, across all modes. 1.0 on a fault-free run.
    pub fn coverage(&self) -> f64 {
        let expected: usize = self.opts.expected_nodes_in_mode.iter().sum();
        if expected == 0 {
            return 1.0;
        }
        let observed: usize = self.observed_by_mode.iter().sum();
        (observed as f64 / expected as f64).min(1.0)
    }

    /// Events that failed the coverage floor, sorted by event index.
    pub fn unreliable_events(&self) -> Vec<EventId> {
        let mut v: Vec<EventId> = self
            .per_event
            .iter()
            .filter(|(_, s)| !s.reliable)
            .map(|(&e, _)| e)
            .collect();
        v.sort_by_key(|e| e.index());
        v
    }

    /// Sanity pass over the degraded data: saturated/implausible
    /// counters, coverage below the floor, and outlier drops, as
    /// human-readable complaints (sorted, deterministic).
    pub fn sanity(&self) -> Vec<String> {
        let mut out = Vec::new();
        let expected: usize = self.opts.expected_nodes_in_mode.iter().sum();
        let observed: usize = self.observed_by_mode.iter().sum();
        if observed < expected {
            out.push(format!(
                "set {}: only {observed} of {expected} expected nodes delivered data \
                 (coverage {:.2})",
                self.set,
                self.coverage()
            ));
        }
        for (ev, st) in &self.per_event {
            if st.raw_max >= SATURATION_SUSPECT {
                out.push(format!(
                    "{}: value {:#x} looks saturated/implausible",
                    ev.name(),
                    st.raw_max
                ));
            }
            if st.outliers_dropped > 0 {
                out.push(format!(
                    "{}: dropped {} outlier node value(s) before the mean",
                    ev.name(),
                    st.outliers_dropped
                ));
            }
            if !st.reliable {
                out.push(format!(
                    "{}: coverage {:.2} below floor {:.2} — unreliable",
                    ev.name(),
                    st.coverage,
                    self.opts.coverage_floor
                ));
            }
        }
        out.sort();
        out
    }

    /// Re-package the events that met the coverage floor as a strict
    /// [`Frame`], scaled to the surviving census so per-node and
    /// per-core metrics stay comparable with a fault-free run.
    ///
    /// Returns `None` when nothing survived at all.
    pub fn reliable_frame(&self) -> Option<Frame> {
        if self.observed_by_mode.iter().sum::<usize>() == 0 {
            return None;
        }
        let mut per_event = HashMap::new();
        for (&ev, st) in &self.per_event {
            if !st.reliable {
                continue;
            }
            let observed = self.observed_by_mode[ev.mode().index()];
            // Rescale the mean over kept observers to the surviving
            // node census, so event sums and `nodes_in_mode` agree.
            per_event.insert(
                ev,
                EventStats {
                    min: st.stats.min,
                    max: st.stats.max,
                    mean: st.stats.mean,
                    sum: (st.stats.mean * observed as f64).round() as u64,
                    nodes: observed,
                },
            );
        }
        Some(Frame::from_parts(self.set, per_event, self.observed_by_mode, self.records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_core::dump::SetDump;

    fn dump(node: u32, mode: CounterMode, fill: u64) -> NodeDump {
        NodeDump {
            node,
            mode,
            sets: vec![SetDump { id: 0, records: 1, counts: vec![fill; NUM_COUNTERS] }],
        }
    }

    fn opts(nodes: usize) -> AggregateOptions {
        AggregateOptions::fixed(CounterMode::Mode2, nodes)
    }

    #[test]
    fn full_survival_matches_strict_aggregation() {
        let dumps = vec![dump(0, CounterMode::Mode2, 10), dump(1, CounterMode::Mode2, 30)];
        let d = DegradedFrame::from_dumps(&dumps, 0, opts(2));
        assert_eq!(d.coverage(), 1.0);
        let ev = EventId::new(CounterMode::Mode2, 5);
        let st = d.stats(ev).unwrap();
        assert!(st.reliable);
        assert_eq!(st.stats.sum, 40);
        assert!((st.stats.mean - 20.0).abs() < 1e-12);
        assert!(d.sanity().is_empty());
        let f = d.reliable_frame().unwrap();
        assert_eq!(f.sum(ev), 40);
        assert_eq!(f.nodes_in_mode(CounterMode::Mode2), 2);
    }

    #[test]
    fn missing_nodes_reduce_coverage_not_correctness() {
        // 4 expected, 3 delivered.
        let dumps = vec![
            dump(0, CounterMode::Mode2, 12),
            dump(1, CounterMode::Mode2, 12),
            dump(3, CounterMode::Mode2, 12),
        ];
        let d = DegradedFrame::from_dumps(&dumps, 0, opts(4));
        assert!((d.coverage() - 0.75).abs() < 1e-12);
        let st = d.stats(EventId::new(CounterMode::Mode2, 0)).unwrap();
        assert!(st.reliable, "75% beats the 50% floor");
        assert!((st.stats.mean - 12.0).abs() < 1e-12, "mean unchanged by loss");
        assert!(d.sanity().iter().any(|s| s.contains("3 of 4")));
    }

    #[test]
    fn coverage_floor_marks_events_unreliable() {
        let dumps = vec![dump(0, CounterMode::Mode2, 5)];
        let d = DegradedFrame::from_dumps(&dumps, 0, opts(4)); // 25% < 50%
        let st = d.stats(EventId::new(CounterMode::Mode2, 0)).unwrap();
        assert!(!st.reliable);
        assert_eq!(d.unreliable_events().len(), NUM_COUNTERS);
        // Unreliable events are excluded from the reliable frame.
        let f = d.reliable_frame().unwrap();
        assert!(f.stats(EventId::new(CounterMode::Mode2, 0)).is_none());
    }

    #[test]
    fn bitflipped_outlier_is_dropped_from_the_mean() {
        let mut bad = dump(2, CounterMode::Mode2, 100);
        bad.sets[0].counts[7] = 100 + (1 << 55); // high-bit flip
        let dumps =
            vec![dump(0, CounterMode::Mode2, 100), dump(1, CounterMode::Mode2, 100), bad];
        let d = DegradedFrame::from_dumps(&dumps, 0, opts(3));
        let st = d.stats(EventId::new(CounterMode::Mode2, 7)).unwrap();
        assert_eq!(st.outliers_dropped, 1);
        assert!((st.stats.mean - 100.0).abs() < 1e-12, "mean survives the flip");
        assert_eq!(st.raw_max, 100 + (1 << 55), "raw max remembers the flip");
        assert!(d.sanity().iter().any(|s| s.contains("outlier")));
    }

    #[test]
    fn saturated_counter_is_flagged() {
        let mut bad = dump(0, CounterMode::Mode2, 50);
        bad.sets[0].counts[3] = u64::MAX;
        let dumps = vec![bad, dump(1, CounterMode::Mode2, 50), dump(2, CounterMode::Mode2, 50)];
        let d = DegradedFrame::from_dumps(&dumps, 0, opts(3));
        assert!(d.sanity().iter().any(|s| s.contains("saturated")));
    }

    #[test]
    fn zero_dumps_is_zero_coverage_not_a_panic() {
        let d = DegradedFrame::from_dumps(&[], 0, opts(4));
        assert_eq!(d.coverage(), 0.0);
        assert!(d.reliable_frame().is_none());
        assert!(d.sanity().iter().any(|s| s.contains("0 of 4")));
    }

    #[test]
    fn record_disagreements_resolve_to_the_mode() {
        let mut odd = dump(2, CounterMode::Mode2, 1);
        odd.sets[0].records = 9;
        let dumps = vec![dump(0, CounterMode::Mode2, 1), dump(1, CounterMode::Mode2, 1), odd];
        let d = DegradedFrame::from_dumps(&dumps, 0, opts(3));
        assert_eq!(d.records(), 1);
    }

    #[test]
    fn even_odd_census_splits_expected_nodes() {
        let o = AggregateOptions::even_odd(CounterMode::Mode0, CounterMode::Mode1, 5);
        assert_eq!(o.expected_nodes_in_mode, [3, 2, 0, 0]);
    }
}
