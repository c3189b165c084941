//! Measurement plumbing shared by the workloads: wall-clock spans around
//! public calls, order statistics, peak memory, and the metric tables
//! every run reports.
//!
//! All timing lives here, outside the program's crates: a span is the
//! wall time of one wrapped public call, taken with `Instant`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wanpred_core::obs::{names, Snapshot};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// End-to-end metrics every workload reports with tracing off, with
/// their units. `throughput_per_s` and the latency pair mean the
/// workload's own unit of work; see each workload's module docs. The
/// latency pair is the mean and the p99: medians of microsecond-scale
/// calls move by about a quarter from one process to the next on a
/// shared two-vCPU guest, so they are printed in the report lines but
/// not gated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_mean_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with tracing on. A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("testbed.campaign.busy_s", "s"),
    ("testbed.campaign.busy_share", "share"),
    ("simnet.engine.events", "count"),
    ("simnet.flows.failed", "count"),
    ("gridftp.transfers.retries", "count"),
    ("logfmt.encode.busy_s", "s"),
    ("logfmt.encode.busy_share", "share"),
    ("logfmt.parse.busy_s", "s"),
    ("logfmt.parse.busy_share", "share"),
    ("logfmt.parse.mb_per_s", "MB/s"),
    ("predict.replay.busy_s", "s"),
    ("predict.replay.busy_share", "share"),
    ("predict.replay.predictions", "count"),
    ("predict.best_mape_pct", "%"),
    ("predict.median_mape_pct", "%"),
    ("predict.tournament.observe.busy_s", "s"),
    ("predict.tournament.observe.busy_share", "share"),
    ("predict.tournament.observe.p99_us", "us"),
    ("predict.tournament.switches", "count"),
    ("predict.online_mape_pct", "%"),
    ("infod.refresh.busy_s", "s"),
    ("infod.refresh.busy_share", "share"),
    ("infod.refresh.p99_us", "us"),
    ("infod.refresh.count", "count"),
    ("infod.inquire.busy_s", "s"),
    ("infod.inquire.busy_share", "share"),
    ("infod.cache.hit_ratio", "share"),
    ("infod.serve.snapshot_swaps", "count"),
    ("replica.select.busy_s", "s"),
    ("replica.select.busy_share", "share"),
    ("replica.select.p99_us", "us"),
    ("replica.rung_tournament_ratio", "share"),
    ("replica.coalloc.stripes", "count"),
    ("replica.coalloc.rebalances", "count"),
    ("replica.coalloc.bytes_salvaged", "bytes"),
    ("replica.coalloc.tiling_violations", "count"),
    ("replica.coalloc.goodput_kbs", "KB/s"),
    ("loadgen.inquiry_p50_us", "us"),
    ("loadgen.inquiry_p99_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Busy time of one layer: the summed wall time of its wrapped calls,
/// with every call's duration kept for percentiles.
#[derive(Debug, Clone, Default)]
pub struct Busy {
    total: Duration,
    samples_us: Vec<f64>,
}

impl Busy {
    /// Time one call.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(t.elapsed());
        r
    }

    /// Record a call timed elsewhere.
    pub fn record(&mut self, d: Duration) {
        self.total += d;
        self.samples_us.push(d.as_secs_f64() * 1e6);
    }

    /// Summed wall time, seconds.
    pub fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }

    /// The `q`-quantile of per-call wall time, microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.samples_us, q)
    }
}

/// Per-layer busy times, collected only when tracing is on. With
/// tracing off [`Tracer::span`] calls straight through.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    layers: BTreeMap<&'static str, Busy>,
}

impl Tracer {
    /// A tracer that records (`on`) or passes through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            layers: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, charging its wall time to `layer` when tracing.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if self.on {
            self.layers.entry(layer).or_default().time(f)
        } else {
            f()
        }
    }

    /// Charge an already-measured duration to `layer` when tracing.
    pub fn record(&mut self, layer: &'static str, d: Duration) {
        if self.on {
            self.layers.entry(layer).or_default().record(d);
        }
    }

    /// The busy record of `layer` (empty if it never ran).
    pub fn layer(&self, layer: &str) -> Busy {
        self.layers.get(layer).cloned().unwrap_or_default()
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The arithmetic mean of `values`; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, or 0 when `whole` is not positive.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Share of the cache lookups a `ShardedServer` answered from cache.
pub fn cache_hit_ratio(snap: &Snapshot) -> f64 {
    let hits = snap.counter(names::INFOD_SERVE_CACHE_HITS) as f64;
    ratio(
        hits,
        hits + snap.counter(names::INFOD_SERVE_CACHE_MISSES) as f64,
    )
}

/// Share of the broker's candidate estimates the tournament rung gave,
/// over the snapshots `snaps`.
pub fn rung_tournament_ratio(snaps: &[&Snapshot]) -> f64 {
    let total = |name: &str| snaps.iter().map(|s| s.counter(name)).sum::<u64>() as f64;
    let rungs: f64 = [
        names::REPLICA_BROKER_RUNG_TOURNAMENT,
        names::REPLICA_BROKER_RUNG_SIZE_CLASS,
        names::REPLICA_BROKER_RUNG_OVERALL,
        names::REPLICA_BROKER_RUNG_PROBE,
        names::REPLICA_BROKER_RUNG_STATIC,
    ]
    .iter()
    .map(|n| total(n))
    .sum();
    ratio(total(names::REPLICA_BROKER_RUNG_TOURNAMENT), rungs)
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Set-up repetitions: `setup_s` is the median of their wall times.
/// The first runs before the measuring starts; [`PassPlan`] spreads the
/// rest evenly over the measuring time, so that a slow phase of the host
/// at one moment of the run does not set the median.
#[derive(Debug, Default)]
pub struct Setups {
    times: Vec<f64>,
}

impl Setups {
    /// Time one set-up.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.times.push(t.elapsed().as_secs_f64());
        r
    }

    /// Median set-up wall time, seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Share of the repetitions of each slice that the end-to-end metrics
/// keep: the fastest tenth.
pub const KEEP_SHARE: f64 = 0.1;

/// One timed piece of a pass. Every pass repeats the same pieces under
/// the same keys (same seed, same work), so the repetitions of one key
/// differ only by how fast the host ran them.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Which piece of the pass this is.
    pub key: usize,
    /// Wall time spent on the piece, seconds.
    pub busy_s: f64,
    /// Units of work it completed.
    pub work: f64,
    /// Latency samples taken in it, microseconds.
    pub samples_us: Vec<f64>,
}

impl Slice {
    /// Busy time per unit of work, or the busy time if it counts none.
    fn cost(&self) -> f64 {
        if self.work > 0.0 {
            self.busy_s / self.work
        } else {
            self.busy_s
        }
    }
}

/// Throughput and latency over the fastest repetitions of every slice.
///
/// A shared host runs the same code at speeds that differ by a third
/// from one phase of a few seconds to the next, and some runs spend most
/// of their time in slow phases, so medians over a run move with the
/// host. Other tenants only ever slow a slice down, so the fastest
/// repetitions of each slice are the closest to what the code costs;
/// keeping a tenth of them, not the single fastest, keeps one lucky
/// repetition from setting the figure. A change to the code moves every
/// repetition, the kept ones too.
#[derive(Debug, Clone, PartialEq)]
pub struct Fastest {
    /// Work per second of busy time over the kept slices.
    pub per_s: f64,
    /// Mean of the kept slices' latency samples, microseconds.
    pub mean_us: f64,
    /// p99 of the kept slices' latency samples, microseconds.
    pub p99_us: f64,
    /// Slices kept.
    pub kept: usize,
    /// Slices measured.
    pub of: usize,
}

impl Fastest {
    /// Keep the fastest [`KEEP_SHARE`] (at least one) of the repetitions
    /// of every key, ranked by busy time per unit of work (by busy time
    /// alone for slices that count no work), and pool them.
    pub fn of(slices: &[Slice]) -> Fastest {
        let mut by_key: BTreeMap<usize, Vec<&Slice>> = BTreeMap::new();
        for s in slices {
            by_key.entry(s.key).or_default().push(s);
        }
        let (mut work, mut busy, mut kept) = (0.0, 0.0, 0);
        let mut samples = Vec::new();
        for reps in by_key.values_mut() {
            reps.sort_by(|a, b| a.cost().total_cmp(&b.cost()));
            let keep = ((reps.len() as f64 * KEEP_SHARE).ceil() as usize).max(1);
            for s in &reps[..keep] {
                work += s.work;
                busy += s.busy_s;
                samples.extend_from_slice(&s.samples_us);
            }
            kept += keep;
        }
        Fastest {
            per_s: ratio(work, busy),
            mean_us: mean(&samples),
            p99_us: quantile(&samples, 0.99),
            kept,
            of: slices.len(),
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: timed calls plus output checks.
    pub attempted: u64,
    /// Failures: an `Err` from a timed call or a failed output check.
    pub failures: Vec<String>,
    /// Reported metrics (end-to-end or per-layer, by run mode).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines, printed before the result line.
    pub report: Vec<String>,
    /// Deterministic outputs (MAPEs, counts, cache hits...) as exact
    /// renderings: two runs with one seed must produce identical lists.
    pub fingerprint: Vec<String>,
}

impl Outcome {
    /// Count one checked operation, recording `msg` if it failed.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(msg());
        }
    }

    /// Add a deterministic output to the fingerprint.
    pub fn pin(&mut self, name: &str, value: impl std::fmt::Debug) {
        self.fingerprint.push(format!("{name}={value:?}"));
    }

    /// Fill `metrics` from `table`, in the order of `names`; a name the
    /// workload left out reports 0 (a layer it does not exercise).
    pub fn set_metrics(&mut self, names: &[(&'static str, &'static str)], table: &Table) {
        let undeclared: Vec<&&str> = table
            .keys()
            .filter(|k| !names.iter().any(|n| n.0 == **k))
            .collect();
        assert!(undeclared.is_empty(), "undeclared metrics {undeclared:?}");
        self.metrics = names
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: table.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
    }
}

/// Metric values by name, before they are ordered for output.
pub type Table = BTreeMap<&'static str, f64>;

/// Busy time and its share of `wall_s` for each layer in `layers`, as
/// `<metric>.busy_s` / `<metric>.busy_share` entries.
pub fn busy_metrics(
    table: &mut Table,
    tracer: &Tracer,
    wall_s: f64,
    layers: &[(&'static str, &'static str, &'static str)],
) {
    for &(layer, busy_name, share_name) in layers {
        let busy = tracer.layer(layer).secs();
        table.insert(busy_name, busy);
        table.insert(share_name, ratio(busy, wall_s));
    }
}

/// Passes a run makes even when its budget is already spent: in a traced
/// run, one untraced and one traced.
const MIN_PASSES: usize = 2;

/// Passes of a workload: alternate untraced and traced passes in a
/// traced run (the difference is the tracing overhead), plain passes
/// otherwise; at least [`MIN_PASSES`], then until `budget` is spent. The
/// plan also says when the next of the run's set-up repetitions is due.
pub struct PassPlan {
    start: Instant,
    budget: Duration,
    done: usize,
    trace: bool,
    /// Set-up repetitions still to spread over the budget, and made.
    setups_left: usize,
    setups_made: usize,
}

impl PassPlan {
    /// Plan passes for `budget` of measuring, with `setup_reps` set-ups
    /// in all, the first of which has already run.
    pub fn new(budget: Duration, trace: bool, setup_reps: usize) -> Self {
        PassPlan {
            start: Instant::now(),
            budget,
            done: 0,
            trace,
            setups_left: setup_reps.saturating_sub(1),
            setups_made: 0,
        }
    }

    /// Whether the next pass should run, and if so whether it is traced.
    pub fn next_pass(&mut self) -> Option<bool> {
        if self.done >= MIN_PASSES && self.start.elapsed() >= self.budget {
            return None;
        }
        let traced = self.trace && self.done % 2 == 1;
        self.done += 1;
        Some(traced)
    }

    /// Whether a set-up repetition is due now: the remaining ones fall at
    /// even fractions of the budget.
    pub fn setup_due(&mut self) -> bool {
        let parts = (self.setups_left + self.setups_made + 1) as u32;
        let at = self.budget * (self.setups_made as u32 + 1) / parts;
        let due = self.setups_left > 0 && self.start.elapsed() >= at;
        if due {
            self.setups_left -= 1;
            self.setups_made += 1;
        }
        due
    }
}

/// Tracing overhead of a batch workload from its pass wall times.
pub fn overhead_metrics(table: &mut Table, traced_walls: &[f64], untraced_walls: &[f64]) {
    let traced = median(traced_walls);
    let untraced = median(untraced_walls);
    table.insert("trace.wall_s", traced);
    table.insert("trace.untraced_wall_s", untraced);
    table.insert("trace.overhead_s", traced - untraced);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.99) - 4.96).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.layer("x").samples_us.is_empty());
        let mut t = Tracer::new(true);
        t.span("x", || ());
        assert_eq!(t.layer("x").samples_us.len(), 1);
    }

    #[test]
    fn pass_plan_alternates_when_tracing() {
        let mut p = PassPlan::new(Duration::ZERO, true, 1);
        let kinds: Vec<bool> = std::iter::from_fn(|| p.next_pass()).collect();
        assert_eq!(kinds, [false, true]);
        assert!(!p.setup_due());
        let mut p = PassPlan::new(Duration::ZERO, false, 3);
        assert_eq!(std::iter::from_fn(|| p.next_pass()).count(), MIN_PASSES);
        assert_eq!(
            std::iter::from_fn(|| p.setup_due().then_some(())).count(),
            2
        );
    }

    #[test]
    fn fastest_keeps_the_quickest_tenth_of_each_key() {
        let slice = |key, busy_s: f64, work| Slice {
            key,
            busy_s,
            work,
            samples_us: vec![busy_s * 1e6],
        };
        // Key 0 ran four times, key 1 twice: one of each is kept.
        let slices = [
            slice(0, 4.0, 2.0),
            slice(0, 1.0, 2.0),
            slice(0, 3.0, 2.0),
            slice(0, 2.0, 2.0),
            slice(1, 2.0, 0.0),
            slice(1, 1.0, 0.0),
        ];
        let f = Fastest::of(&slices);
        assert_eq!((f.kept, f.of), (2, 6));
        assert_eq!(f.per_s, 1.0);
        assert_eq!(f.mean_us, 1e6);
        assert_eq!(f.p99_us, 1e6);
        // Equal busy times: the slice that did the most work is fastest.
        let f = Fastest::of(&[slice(0, 1.0, 1.0), slice(0, 1.0, 3.0)]);
        assert_eq!(f.per_s, 3.0);
    }
}
