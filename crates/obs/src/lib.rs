//! # rahtm-obs
//!
//! Lightweight observability for the RAHTM pipeline: hierarchical span
//! timers, monotonic counters, and gauges, collected into a deterministic
//! structured [`Journal`] exportable as JSON.
//!
//! A [`Recorder`] is a cheap clonable handle that is either live (backed
//! by a shared sink) or a no-op. Every recording method starts with an
//! `Option` check, so a solver called directly with a disabled recorder
//! pays one branch per **batched** call — solver loops accumulate locally
//! and record once per solve, never per iteration. The RAHTM pipeline
//! always records into a live per-run recorder: its journal is the run's
//! only record, from which the phase statistics are derived.
//!
//! Determinism: the journal is keyed by name with sorted export order, and
//! every *count* and *gauge value* produced by the (deterministic) RAHTM
//! pipeline is reproducible run to run. Span durations are wall-clock and
//! therefore not reproducible; [`Journal::normalized`] zeroes them so two
//! journals can be compared for structural equality in tests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Canonical counter names recorded by the pipeline and solvers. Keeping
/// them here (rather than as ad-hoc string literals at each call site)
/// makes the journal's vocabulary greppable and documents the inventory.
pub mod counters {
    /// Revised-simplex solves completed.
    pub const SIMPLEX_SOLVES: &str = "lp.simplex.solves";
    /// Simplex pivots across all solves (both phases).
    pub const SIMPLEX_PIVOTS: &str = "lp.simplex.pivots";
    /// Branch-and-bound nodes whose LP relaxation was solved.
    pub const BNB_NODES_EXPLORED: &str = "lp.bnb.nodes_explored";
    /// Branch-and-bound nodes pruned by bound before their LP solve.
    pub const BNB_NODES_PRUNED: &str = "lp.bnb.nodes_pruned";
    /// Simulated-annealing proposals accepted.
    pub const ANNEAL_ACCEPTED: &str = "anneal.moves_accepted";
    /// Simulated-annealing proposals rejected.
    pub const ANNEAL_REJECTED: &str = "anneal.moves_rejected";
    /// Orientation candidates the merge beam search considered, whether
    /// routed, cut, or scored through their orbit representative.
    pub const MERGE_CANDIDATES_EVALUATED: &str = "merge.candidates_evaluated";
    /// Candidates surviving beam truncation (beam entries carried forward).
    pub const MERGE_CANDIDATES_KEPT: &str = "merge.candidates_kept";
    /// Orbit-representative candidates ranked out by a cut line before
    /// their routing finished; they count in `merge.candidates_evaluated`
    /// too, never in `merge.symmetry_skipped`. The same on any number of
    /// cores.
    pub const MERGE_CANDIDATES_PRUNED: &str = "merge.candidates_pruned";
    /// Total orientation-set sizes considered across merged children.
    pub const MERGE_ORIENTATIONS: &str = "merge.orientations_considered";
    /// Sub-problem placements answered from the symmetry cache.
    pub const SUB_CACHE_HITS: &str = "cache.subproblem.hits";
    /// Sub-problem placements that required an actual solve.
    pub const SUB_CACHE_MISSES: &str = "cache.subproblem.misses";
    /// Parent merges answered from the translation-symmetry cache.
    pub const MERGE_CACHE_HITS: &str = "cache.merge.hits";
    /// Parent merges that required a beam search.
    pub const MERGE_CACHE_MISSES: &str = "cache.merge.misses";
    /// Wall-clock deadline polls across every solver loop.
    pub const DEADLINE_CHECKS: &str = "deadline.checks";
    /// Cluster-graph → cube sub-problems solved by the ladder.
    pub const SUBPROBLEMS_SOLVED: &str = "pipeline.subproblems_solved";
    /// Sub-problems answered by the MILP rung.
    pub const DEGRADE_MILP: &str = "degrade.rung.milp";
    /// Sub-problems answered by the annealing rung.
    pub const DEGRADE_ANNEAL: &str = "degrade.rung.anneal";
    /// Sub-problems answered by the greedy bottom rung.
    pub const DEGRADE_GREEDY: &str = "degrade.rung.greedy";
    /// Solves that landed below the configured top rung.
    pub const DEGRADE_DOWNGRADED: &str = "degrade.downgraded";
    /// Merges that fell back to identity composition on deadline expiry.
    pub const DEGRADE_IDENTITY_MERGES: &str = "degrade.identity_merges";
    /// Level passes that panicked and were re-run on one core.
    pub const DEGRADE_SALVAGED_WORKERS: &str = "degrade.salvaged_workers";
    /// Flow routings answered from the displacement-stencil cache.
    pub const STENCIL_HITS: &str = "route.stencil.hits";
    /// Flow routings that built (and inserted) a new stencil.
    pub const STENCIL_MISSES: &str = "route.stencil.misses";
    /// Distinct stencils resident in the cache at report time.
    pub const STENCIL_ENTRIES: &str = "route.stencil.entries";
    /// Nodes acquired by stealing from a sibling worker's deque.
    pub const MILP_STEALS: &str = "milp.steals";
    /// Times the shared incumbent was improved (or tie-broken) by a worker.
    pub const MILP_INCUMBENT_UPDATES: &str = "milp.incumbent_updates";
    /// Placement columns fixed to zero by hypercube symmetry breaking.
    pub const MILP_SYMMETRY_PRUNED: &str = "milp.symmetry_pruned";
    /// First-step merge candidates that took their reflection-orbit
    /// representative's score or cut instead of their own routing.
    pub const MERGE_SYMMETRY_SKIPPED: &str = "merge.symmetry_skipped";
}

/// Canonical span names (`.` separates hierarchy levels; a `sideN` /
/// `levelN` suffix names a merge or clustering level).
pub mod spans {
    /// Whole pipeline run.
    pub const PIPELINE: &str = "pipeline";
    /// Phase 1 (concentration clustering + slice hierarchy).
    pub const CLUSTERING: &str = "pipeline.clustering";
    /// Phase 2 (top-down MILP pinning).
    pub const MILP: &str = "pipeline.milp";
    /// Phase 3 (bottom-up orientation merge).
    pub const MERGE: &str = "pipeline.merge";
    /// Phase 3's last side on a machine of several slices: the merge of
    /// the slice blocks over the whole machine (nested under [`MERGE`]).
    pub const MERGE_SLICES: &str = "pipeline.merge.slices";
    /// Optional §VI polish pass.
    pub const POLISH: &str = "pipeline.polish";
    /// Merge level at block side `sb` (nested under [`MERGE`]).
    pub fn merge_side(sb: u16) -> String {
        format!("pipeline.merge.side{sb}")
    }
}

/// Canonical gauge names.
pub mod gauges {
    /// Predicted node-level MCL of the final mapping.
    pub const PREDICTED_MCL: &str = "pipeline.predicted_mcl";
    /// MCL of the machine-wide merge of the slice blocks.
    pub const MERGE_MCL_SLICES: &str = "merge.mcl.slices";
    /// Per-parent merged MCL at block side `sb` (one value per merge).
    pub fn merge_mcl(sb: u16) -> String {
        format!("merge.mcl.side{sb}")
    }
    /// Cluster-graph size at hierarchy level `i` (0 = root).
    pub fn cluster_level_size(level: usize) -> String {
        format!("cluster.level{level}.clusters")
    }
}

/// Locks `m`, ignoring poison: a thread that panics while recording leaves
/// the sink usable, so a salvaged pass keeps recording into the same
/// recorder.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct Sink {
    counters: Mutex<BTreeMap<String, u64>>,
    spans: Mutex<BTreeMap<String, SpanAgg>>,
    gauges: Mutex<BTreeMap<String, Vec<f64>>>,
    events: Mutex<Vec<String>>,
}

#[derive(Clone, Copy, Debug, Default)]
struct SpanAgg {
    count: u64,
    secs: f64,
}

impl Sink {
    fn add_counter(&self, name: &str, delta: u64) {
        let mut counters = lock(&self.counters);
        match counters.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                counters.insert(name.to_string(), delta);
            }
        }
    }

    fn add_span(&self, name: &str, count: u64, secs: f64) {
        let mut spans = lock(&self.spans);
        let agg = spans.entry(name.to_string()).or_default();
        agg.count += count;
        agg.secs += secs;
    }
}

/// A handle to the trace sink: either live (all clones share one sink) or
/// disabled (every method is a no-op after one branch). `Default` is
/// disabled, so plumbing a `Recorder` field through solver options costs
/// nothing for callers that never ask for tracing.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Sink>>,
}

impl Recorder {
    /// A disabled recorder: every operation is a no-op.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A live recorder with a fresh sink. Clones share the sink.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Sink::default())),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the named monotonic counter.
    #[inline]
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(sink) = &self.inner {
            if delta > 0 {
                sink.add_counter(name, delta);
            }
        }
    }

    /// Increments the named counter by one.
    #[inline]
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Records one observation of the named gauge.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(sink) = &self.inner {
            lock(&sink.gauges)
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }

    /// Records one human-readable event line (a degradation the run took).
    pub fn event(&self, line: String) {
        if let Some(sink) = &self.inner {
            lock(&sink.events).push(line);
        }
    }

    /// Starts a span; the returned guard records its wall-clock duration
    /// under `name` when dropped. Disabled recorders skip the clock read.
    #[inline]
    pub fn span(&self, name: &str) -> Span {
        Span {
            live: self
                .inner
                .as_ref()
                .map(|sink| (Arc::clone(sink), name.to_string(), Instant::now())),
        }
    }

    /// Records a completed span of `secs` seconds directly (for phases
    /// already timed by the caller).
    #[inline]
    pub fn record_span_secs(&self, name: &str, secs: f64) {
        if let Some(sink) = &self.inner {
            sink.add_span(name, 1, secs);
        }
    }

    /// Adds everything in `journal` to this recorder: counters, span
    /// counts and seconds add up; gauge values and events are appended.
    /// Absorbing into a fresh recorder reproduces `journal` exactly.
    pub fn absorb(&self, journal: &Journal) {
        let Some(sink) = &self.inner else {
            return;
        };
        for c in &journal.counters {
            sink.add_counter(&c.name, c.value);
        }
        for s in &journal.spans {
            sink.add_span(&s.name, s.count, s.secs);
        }
        for g in &journal.gauges {
            lock(&sink.gauges)
                .entry(g.name.clone())
                .or_default()
                .extend(&g.values);
        }
        lock(&sink.events).extend(journal.events.iter().cloned());
    }

    /// Current value of a counter (0 if never recorded or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(sink) => lock(&sink.counters).get(name).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// Snapshots everything recorded so far into a [`Journal`].
    pub fn journal(&self) -> Journal {
        let Some(sink) = &self.inner else {
            return Journal::default();
        };
        let spans = lock(&sink.spans)
            .iter()
            .map(|(name, agg)| SpanEntry {
                name: name.clone(),
                count: agg.count,
                secs: agg.secs,
            })
            .collect();
        let counters = lock(&sink.counters)
            .iter()
            .map(|(name, &value)| CounterEntry {
                name: name.clone(),
                value,
            })
            .collect();
        let gauges = lock(&sink.gauges)
            .iter()
            .map(|(name, values)| {
                let mut values = values.clone();
                values.sort_by(f64::total_cmp);
                GaugeEntry {
                    name: name.clone(),
                    values,
                }
            })
            .collect();
        let mut events = lock(&sink.events).clone();
        events.sort();
        Journal {
            spans,
            counters,
            gauges,
            events,
        }
    }
}

/// RAII span guard created by [`Recorder::span`].
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    live: Option<(Arc<Sink>, String, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((sink, name, start)) = self.live.take() {
            sink.add_span(&name, 1, start.elapsed().as_secs_f64());
        }
    }
}

/// Aggregated timings of one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEntry {
    /// Hierarchical span name (`.`-separated).
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total wall-clock seconds across entries.
    pub secs: f64,
}

/// One monotonic counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterEntry {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// All observations of one gauge, sorted ascending for deterministic
/// export (observation order across a batch's parallel jobs is not).
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeEntry {
    /// Gauge name.
    pub name: String,
    /// Sorted observed values.
    pub values: Vec<f64>,
}

/// A deterministic structured snapshot of everything a [`Recorder`] saw:
/// spans, counters, and gauges, each sorted by name, and event lines.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Journal {
    /// Span totals, sorted by name.
    pub spans: Vec<SpanEntry>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Gauges, sorted by name (values sorted ascending).
    pub gauges: Vec<GaugeEntry>,
    /// Event lines, sorted (occurrence order across a batch's parallel
    /// jobs is not deterministic).
    pub events: Vec<String>,
}

impl Journal {
    /// Looks up a counter value (`None` if never recorded).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a span entry by name.
    pub fn span(&self, name: &str) -> Option<&SpanEntry> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Looks up a gauge entry by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeEntry> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// A copy with all span durations zeroed: everything that remains
    /// (names, counts, counters, gauges, events) is reproducible run to run for
    /// the deterministic pipeline, so normalized journals can be compared
    /// with `==` in tests.
    pub fn normalized(&self) -> Journal {
        let mut j = self.clone();
        for s in &mut j.spans {
            s.secs = 0.0;
        }
        j
    }

    /// The journal as a JSON document:
    ///
    /// ```json
    /// {
    ///   "spans":    [{"name": "pipeline", "count": 1, "secs": 0.8}, ...],
    ///   "counters": [{"name": "lp.simplex.pivots", "value": 912}, ...],
    ///   "gauges":   [{"name": "merge.mcl.side2", "values": [40.0]}, ...],
    ///   "events":   ["sub-problem (4 clusters): deadline expired, greedy placement", ...]
    /// }
    /// ```
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let name = |n: &str| ("name", Value::String(n.to_string()));
        let spans = self.spans.iter().map(|s| {
            obj(vec![
                name(&s.name),
                ("count", Value::Number(s.count as f64)),
                ("secs", Value::Number(s.secs)),
            ])
        });
        let counters = self.counters.iter().map(|c| {
            obj(vec![
                name(&c.name),
                ("value", Value::Number(c.value as f64)),
            ])
        });
        let gauges = self.gauges.iter().map(|g| {
            let values = g.values.iter().map(|&v| Value::Number(v)).collect();
            obj(vec![name(&g.name), ("values", Value::Array(values))])
        });
        let events = self.events.iter().map(|e| Value::String(e.clone()));
        obj(vec![
            ("spans", Value::Array(spans.collect())),
            ("counters", Value::Array(counters.collect())),
            ("gauges", Value::Array(gauges.collect())),
            ("events", Value::Array(events.collect())),
        ])
    }

    /// Pretty-printed JSON (the `--trace-json` file format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_json())
    }

    /// Parses a journal back from its JSON form (tests and tooling).
    ///
    /// # Errors
    /// Returns a message describing the first shape problem found.
    pub fn from_json(v: &serde_json::Value) -> Result<Journal, String> {
        let section = |key: &str| -> Result<&Vec<serde_json::Value>, String> {
            v.get(key)
                .and_then(|s| s.as_array())
                .ok_or_else(|| format!("journal missing '{key}' array"))
        };
        let name_of = |e: &serde_json::Value| -> Result<String, String> {
            e.get("name")
                .and_then(|n| n.as_str())
                .map(str::to_string)
                .ok_or_else(|| "entry missing 'name'".to_string())
        };
        let mut j = Journal::default();
        for e in section("spans")? {
            j.spans.push(SpanEntry {
                name: name_of(e)?,
                count: e
                    .get("count")
                    .and_then(|c| c.as_u64())
                    .ok_or("span missing 'count'")?,
                secs: e
                    .get("secs")
                    .and_then(|s| s.as_f64())
                    .ok_or("span missing 'secs'")?,
            });
        }
        for e in section("counters")? {
            j.counters.push(CounterEntry {
                name: name_of(e)?,
                value: e
                    .get("value")
                    .and_then(|c| c.as_u64())
                    .ok_or("counter missing 'value'")?,
            });
        }
        for e in section("gauges")? {
            let values = e
                .get("values")
                .and_then(|s| s.as_array())
                .ok_or("gauge missing 'values'")?
                .iter()
                .map(|v| v.as_f64().ok_or("non-numeric gauge value".to_string()))
                .collect::<Result<Vec<f64>, _>>()?;
            j.gauges.push(GaugeEntry {
                name: name_of(e)?,
                values,
            });
        }
        for e in section("events")? {
            j.events
                .push(e.as_str().ok_or("non-string event")?.to_string());
        }
        Ok(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.add("x", 5);
        rec.gauge("g", 1.0);
        rec.event("e".to_string());
        rec.record_span_secs("s", 0.5);
        drop(rec.span("t"));
        let j = rec.journal();
        assert_eq!(j, Journal::default());
        assert_eq!(rec.counter("x"), 0);
    }

    #[test]
    fn panic_while_holding_sink_locks_leaves_recorder_usable() {
        let rec = Recorder::enabled();
        rec.add("before", 1);
        let sink = Arc::clone(rec.inner.as_ref().expect("enabled recorder has a sink"));
        let dying = std::thread::spawn(move || {
            let _counters = sink.counters.lock();
            let _spans = sink.spans.lock();
            let _gauges = sink.gauges.lock();
            let _events = sink.events.lock();
            panic!("recording thread dies holding every sink lock");
        });
        assert!(dying.join().is_err());
        let sink = rec.inner.as_ref().expect("enabled recorder has a sink");
        assert!(sink.counters.is_poisoned() && sink.spans.is_poisoned());
        assert!(sink.gauges.is_poisoned() && sink.events.is_poisoned());

        rec.add("after", 2);
        rec.gauge("g", 1.5);
        rec.event("salvaged".to_string());
        rec.record_span_secs("s", 0.25);
        let j = rec.journal();
        assert_eq!(j.counter("before"), Some(1));
        assert_eq!(j.counter("after"), Some(2));
        assert_eq!(j.gauge("g").map(|g| g.values.clone()), Some(vec![1.5]));
        assert_eq!(j.events, vec!["salvaged".to_string()]);
        assert_eq!(j.span("s").map(|s| s.count), Some(1));
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let rec = Recorder::enabled();
        let other = rec.clone();
        rec.add("a.b", 2);
        other.add("a.b", 3);
        other.incr("c");
        assert_eq!(rec.counter("a.b"), 5);
        assert_eq!(rec.counter("c"), 1);
        // zero-delta adds do not create entries
        rec.add("zero", 0);
        assert_eq!(rec.journal().counter("zero"), None);
    }

    #[test]
    fn spans_aggregate_by_name() {
        let rec = Recorder::enabled();
        rec.record_span_secs("p.x", 0.25);
        rec.record_span_secs("p.x", 0.75);
        drop(rec.span("p.y"));
        let j = rec.journal();
        let x = j.span("p.x").unwrap();
        assert_eq!(x.count, 2);
        assert!((x.secs - 1.0).abs() < 1e-12);
        assert_eq!(j.span("p.y").unwrap().count, 1);
    }

    #[test]
    fn journal_is_sorted_and_normalizable() {
        let rec = Recorder::enabled();
        rec.incr("z.last");
        rec.incr("a.first");
        rec.gauge("g", 3.0);
        rec.gauge("g", 1.0);
        rec.record_span_secs("s", 0.1);
        let j = rec.journal();
        assert_eq!(j.counters[0].name, "a.first");
        assert_eq!(j.counters[1].name, "z.last");
        assert_eq!(j.gauge("g").unwrap().values, vec![1.0, 3.0]);
        let n = j.normalized();
        assert_eq!(n.spans[0].secs, 0.0);
        assert_eq!(n.counters, j.counters);
    }

    #[test]
    fn json_roundtrip_preserves_journal() {
        let rec = Recorder::enabled();
        rec.add(counters::SIMPLEX_PIVOTS, 912);
        rec.gauge(&gauges::merge_mcl(2), 40.0);
        rec.record_span_secs(spans::PIPELINE, 0.5);
        let j = rec.journal();
        let text = j.to_json_pretty();
        let back = Journal::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn events_are_sorted_and_survive_json_roundtrip() {
        let rec = Recorder::enabled();
        rec.event("slice 1: b".to_string());
        rec.event("slice 0: a".to_string());
        let j = rec.journal();
        assert_eq!(j.events, vec!["slice 0: a", "slice 1: b"]);
        let text = j.to_json_pretty();
        let back = Journal::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, j);
    }

    fn sample_journal() -> Journal {
        let rec = Recorder::enabled();
        rec.add("c", 3);
        rec.record_span_secs("s", 0.5);
        rec.gauge("g", 2.0);
        rec.gauge("g", 1.0);
        rec.event("e1".to_string());
        rec.journal()
    }

    #[test]
    fn absorb_into_fresh_recorder_reproduces_the_journal() {
        let j = sample_journal();
        let rec = Recorder::enabled();
        rec.absorb(&j);
        assert_eq!(rec.journal(), j);
        // a disabled recorder ignores it
        let off = Recorder::disabled();
        off.absorb(&j);
        assert_eq!(off.journal(), Journal::default());
    }

    #[test]
    fn absorb_into_used_recorder_adds_and_appends() {
        let rec = Recorder::enabled();
        rec.add("c", 1);
        rec.add("other", 7);
        rec.record_span_secs("s", 0.25);
        rec.gauge("g", 3.0);
        rec.event("e0".to_string());
        rec.absorb(&sample_journal());
        let j = rec.journal();
        assert_eq!(j.counter("c"), Some(4));
        assert_eq!(j.counter("other"), Some(7));
        let s = j.span("s").unwrap();
        assert_eq!(s.count, 2);
        assert!((s.secs - 0.75).abs() < 1e-12);
        assert_eq!(j.gauge("g").unwrap().values, vec![1.0, 2.0, 3.0]);
        assert_eq!(j.events, vec!["e0", "e1"]);
    }

    #[test]
    fn malformed_json_is_a_clean_error() {
        let v = serde_json::from_str(r#"{"spans": [{"count": 1}]}"#).unwrap();
        assert!(Journal::from_json(&v).is_err());
        let v = serde_json::from_str(r#"{"spans": []}"#).unwrap();
        assert!(Journal::from_json(&v).is_err(), "missing sections rejected");
    }
}
