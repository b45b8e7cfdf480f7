//! Observability for PHAST: counters, phase timers, and JSON reports.
//!
//! The paper's argument is quantitative — its tables report settled
//! vertices, relaxed arcs, per-level work and per-phase times — so every
//! engine in this workspace doubles as a measurement instrument. This crate
//! is the shared substrate:
//!
//! * [`Counters`] — the event counts the paper's tables are built from,
//!   always on in every build. The engines add once per settled vertex,
//!   per sweep or per contraction worker, never per arc (the sweep's arc
//!   count is analytic); DESIGN.md §7b has the A/B that found no cost.
//! * [`QueryStats`] — per-query counters plus upward/sweep phase times.
//! * [`Report`] — named metrics serializable to JSON (see the module docs
//!   of [`report`]) and convertible to the bench crate's text tables.
//! * [`prep`] — process-global atomic counters for CH preprocessing, which
//!   contracts vertices from parallel workers.

use std::time::{Duration, Instant};

pub mod report;

pub use report::{MetricValue, Report};

/// Event counts of one query (or one preprocessing run).
///
/// All fields are plain totals; which phase contributes to which field is
/// documented per engine (see `DESIGN.md`, "Observability"). A field that
/// an engine cannot observe stays `0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Counters {
    /// Vertices settled (popped with a final label) by upward CH searches.
    pub upward_settled: u64,
    /// Arcs scanned by upward CH searches.
    pub upward_relaxed: u64,
    /// Arcs relaxed by the linear sweep over `G↓`. The sweep is oblivious —
    /// it touches every downward arc once per tree — so batched and
    /// parallel engines report `|A↓| · k` without instrumenting the SIMD
    /// kernels.
    pub sweep_arcs_relaxed: u64,
    /// Levels the sweep phase processed.
    pub levels_swept: u64,
    /// Blocks executed by intra-level parallel sweeps; sequential sweeps
    /// count one block per level.
    pub blocks_executed: u64,
    /// Visited marks cleared by the sweep phase — equivalently, the size of
    /// the upward search space whose implicit initialization the sweep
    /// undoes.
    pub marks_cleared: u64,
    /// Shortcut arcs added by CH contraction.
    pub shortcuts_added: u64,
    /// Witness searches run by CH contraction.
    pub witness_searches: u64,
    /// Restricted vertices scanned by RPHAST sweeps — one per selected
    /// vertex per restricted sweep, regardless of lane count.
    pub restricted_scans: u64,
}

macro_rules! adders {
    ($($(#[$doc:meta])* $name:ident => $field:ident),* $(,)?) => {$(
        $(#[$doc])*
        #[inline(always)]
        pub fn $name(&mut self, n: u64) {
            self.$field += n;
        }
    )*};
}

impl Counters {
    adders! {
        /// Adds settled vertices.
        add_upward_settled => upward_settled,
        /// Adds upward-search arc scans.
        add_upward_relaxed => upward_relaxed,
        /// Adds sweep arc relaxations.
        add_sweep_arcs => sweep_arcs_relaxed,
        /// Adds swept levels.
        add_levels_swept => levels_swept,
        /// Adds executed sweep blocks.
        add_blocks_executed => blocks_executed,
        /// Adds cleared visited marks.
        add_marks_cleared => marks_cleared,
        /// Adds contraction shortcuts.
        add_shortcuts_added => shortcuts_added,
        /// Adds contraction witness searches.
        add_witness_searches => witness_searches,
        /// Adds restricted-sweep vertex scans.
        add_restricted_scans => restricted_scans,
    }

    /// Field-wise sum (aggregating per-query stats into a run total).
    pub fn merge(&mut self, other: &Counters) {
        self.upward_settled += other.upward_settled;
        self.upward_relaxed += other.upward_relaxed;
        self.sweep_arcs_relaxed += other.sweep_arcs_relaxed;
        self.levels_swept += other.levels_swept;
        self.blocks_executed += other.blocks_executed;
        self.marks_cleared += other.marks_cleared;
        self.shortcuts_added += other.shortcuts_added;
        self.witness_searches += other.witness_searches;
        self.restricted_scans += other.restricted_scans;
    }

    /// Appends every counter to `report` under its field name.
    pub fn fill_report(&self, report: &mut Report) {
        report.push_count("upward_settled", self.upward_settled);
        report.push_count("upward_relaxed", self.upward_relaxed);
        report.push_count("sweep_arcs_relaxed", self.sweep_arcs_relaxed);
        report.push_count("levels_swept", self.levels_swept);
        report.push_count("blocks_executed", self.blocks_executed);
        report.push_count("marks_cleared", self.marks_cleared);
        report.push_count("shortcuts_added", self.shortcuts_added);
        report.push_count("witness_searches", self.witness_searches);
        report.push_count("restricted_scans", self.restricted_scans);
    }
}

/// Statistics of one engine query: counters plus monotonic phase times.
///
/// The timers are always on — two `Instant` reads per phase, negligible
/// next to a sweep over the whole graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueryStats {
    /// Event counts (see [`Counters`]).
    pub counters: Counters,
    /// Wall time of the upward CH search phase.
    pub upward_time: Duration,
    /// Wall time of the sweep phase.
    pub sweep_time: Duration,
}

impl QueryStats {
    /// Zeroes everything (engines call this at the start of each query).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Builds a [`Report`] titled `title` with every counter and both
    /// phase times.
    pub fn report(&self, title: impl Into<String>) -> Report {
        let mut r = Report::new(title);
        self.counters.fill_report(&mut r);
        r.push_time("upward_time", self.upward_time);
        r.push_time("sweep_time", self.sweep_time);
        r
    }
}

/// Declares a struct of monotone, always-on service counters from one
/// table. A row — a doc comment, then `field: bumper => "report key",` —
/// generates the `AtomicU64` field, the getter `field()` (carrying the
/// row's doc), `bumper(n)` and the row's line of
/// `fill_report(&self, &mut Report)`, which reports every row in table
/// order: a counter cannot exist without being reported, and adding one
/// is adding one row. Fields that are not counters follow the rows after
/// a `..`; the struct derives `Debug` and `Default`. All accesses are
/// `Relaxed` — the counters are statistics and publish no other data.
/// Unlike [`Counters`] they are shared across threads and count per
/// request, not per arc. `phast-serve`'s `ServiceStats` and
/// `phast-router`'s `RouterStats` are the two tables.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$doc:meta])* $field:ident: $bump:ident => $key:literal,)*
            $(.. $($(#[$plain_doc:meta])* $plain:ident: $plain_ty:ty),* $(,)?)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $($(#[$doc])* $field: ::std::sync::atomic::AtomicU64,)*
            $($($(#[$plain_doc])* $plain: $plain_ty,)*)?
        }

        impl $name {
            $(
                $(#[$doc])*
                pub fn $field(&self) -> u64 {
                    self.$field.load(::std::sync::atomic::Ordering::Relaxed)
                }

                #[doc = concat!("Adds `n` to [`Self::", stringify!($field), "`].")]
                pub fn $bump(&self, n: u64) {
                    self.$field.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
                }
            )*

            /// Appends every counter to `report` under its key, in table
            /// order.
            pub fn fill_report(&self, report: &mut $crate::Report) {
                $(report.push_count($key, self.$field());)*
            }
        }
    };
}

/// A monotonic phase timer ([`Instant`]-based).
#[derive(Clone, Copy, Debug)]
pub struct PhaseTimer {
    start: Instant,
}

impl PhaseTimer {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Time since [`Self::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Process-global counters for CH preprocessing.
///
/// Contraction evaluates priorities and witness searches from parallel
/// rayon workers, so the totals live in atomics. Workers add per-worker
/// sums, not one event at a time, so they do not pass one cache line back
/// and forth once per witness search. [`contract_graph`]-style entry
/// points call [`prep::reset`] on entry; read the totals with
/// [`prep::counters`] afterwards. Concurrent preprocessing runs in one
/// process would share them — acceptable for a measurement aid.
///
/// [`contract_graph`]: https://docs.rs/phast-ch
pub mod prep {
    use std::sync::atomic::{AtomicU64, Ordering};

    static WITNESS_SEARCHES: AtomicU64 = AtomicU64::new(0);
    static SHORTCUTS_ADDED: AtomicU64 = AtomicU64::new(0);

    /// Zeroes the preprocessing counters.
    pub fn reset() {
        WITNESS_SEARCHES.store(0, Ordering::Relaxed);
        SHORTCUTS_ADDED.store(0, Ordering::Relaxed);
    }

    /// Counts witness searches.
    #[inline(always)]
    pub fn add_witness_searches(n: u64) {
        WITNESS_SEARCHES.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts added shortcuts.
    #[inline(always)]
    pub fn add_shortcuts_added(n: u64) {
        SHORTCUTS_ADDED.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot of the preprocessing counters (other fields zero).
    pub fn counters() -> crate::Counters {
        crate::Counters {
            witness_searches: WITNESS_SEARCHES.load(Ordering::Relaxed),
            shortcuts_added: SHORTCUTS_ADDED.load(Ordering::Relaxed),
            ..crate::Counters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_default_to_zero() {
        assert_eq!(Counters::default(), Counters { ..Default::default() });
        let c = Counters::default();
        assert_eq!(c.upward_settled, 0);
        assert_eq!(c.witness_searches, 0);
    }

    #[test]
    fn adders_add_to_their_field() {
        let mut c = Counters::default();
        c.add_upward_settled(7);
        c.add_upward_settled(3);
        c.add_sweep_arcs(42);
        c.add_witness_searches(1);
        assert_eq!(c.upward_settled, 10);
        assert_eq!(c.sweep_arcs_relaxed, 42);
        assert_eq!(c.witness_searches, 1);
    }

    #[test]
    fn merge_sums_fieldwise() {
        let mut a = Counters {
            upward_settled: 1,
            levels_swept: 2,
            ..Default::default()
        };
        let b = Counters {
            upward_settled: 10,
            shortcuts_added: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.upward_settled, 11);
        assert_eq!(a.levels_swept, 2);
        assert_eq!(a.shortcuts_added, 5);
    }

    #[test]
    fn query_stats_reset_and_report() {
        let mut s = QueryStats::default();
        s.counters.add_upward_settled(9);
        s.upward_time = Duration::from_micros(5);
        let r = s.report("q");
        assert_eq!(r.title(), "q");
        assert_eq!(r.get("upward_settled"), Some(&MetricValue::Count(9)));
        assert_eq!(
            r.get("upward_time"),
            Some(&MetricValue::Time(Duration::from_micros(5)))
        );
        s.reset();
        assert_eq!(s, QueryStats::default());
    }

    #[test]
    fn prep_counters_reset_and_snapshot() {
        prep::reset();
        prep::add_witness_searches(4);
        prep::add_shortcuts_added(2);
        let c = prep::counters();
        assert_eq!(c.witness_searches, 4);
        assert_eq!(c.shortcuts_added, 2);
        prep::reset();
        assert_eq!(prep::counters(), Counters::default());
    }

    counter_table! {
        /// A three-row table with one field that is not a counter.
        struct Toy {
            /// First.
            alpha: add_alpha => "toy_alpha",
            /// Second; its key is not its field name.
            beta: add_beta => "renamed_beta",
            /// Third.
            gamma: add_gamma => "toy_gamma",
            ..
            /// Not a counter: never reported.
            label: String,
        }
    }

    #[test]
    fn counter_table_generates_getters_bumpers_and_an_ordered_report() {
        let t = Toy::default();
        assert_eq!((t.alpha(), t.beta(), t.gamma()), (0, 0, 0));
        assert!(t.label.is_empty());
        t.add_alpha(2);
        t.add_alpha(3);
        t.add_beta(1);
        t.add_gamma(7);
        assert_eq!((t.alpha(), t.beta(), t.gamma()), (5, 1, 7));
        let mut r = Report::new("toy");
        r.push_count("before", 1);
        t.fill_report(&mut r);
        let got: Vec<_> = r.entries().iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        assert_eq!(
            got,
            vec![
                ("before", MetricValue::Count(1)),
                ("toy_alpha", MetricValue::Count(5)),
                ("renamed_beta", MetricValue::Count(1)),
                ("toy_gamma", MetricValue::Count(7)),
            ],
            "every row, under its key, in table order, after what was there"
        );
    }

    #[test]
    fn phase_timer_is_monotonic() {
        let t = PhaseTimer::start();
        let a = t.elapsed();
        let b = t.elapsed();
        assert!(b >= a);
    }
}
