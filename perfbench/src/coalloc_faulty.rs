//! `coalloc_faulty` (closed loop on sim time): co-allocated transfers on
//! a hostile network.
//!
//! A campaign runs every GET through the co-allocating client, striped
//! across the broker's top two predicted sources, under the aggressive
//! connection-kill schedule of `ablation_coalloc` and with no retry
//! policy, so every kill that lands mid-stripe exercises simnet's fault
//! path, GridFTP partial resume and `replica::coalloc` failover. The
//! embedded tournament learner grows with history, which is why this
//! runs apart from `paper_pipeline`.
//!
//! * `throughput_per_s`: logical transfers (completed plus failed)
//!   simulated per second of campaign wall time. A round runs
//!   [`Params::campaigns`] campaigns from derived seeds; each campaign
//!   of the round is a slice, and the figure is taken over the fastest
//!   tenth of each one's repetitions (see [`Fastest`]).
//! * `latency_mean_us` / `latency_p99_us`: wall time of one whole
//!   campaign, the workload's unit job, over the same kept repetitions.
//!   Campaigns are two weeks long so that a run holds a few hundred of
//!   them; the mean is the wall time per campaign, and so moves with
//!   `throughput_per_s`.
//!
//! Checks: no completed transfer double-fetches or drops a byte range
//! (`tiling_violations == 0`), completed plus failed equals the attempts
//! the co-allocator counted (less the one transfer that may still be in
//! flight when the campaign ends), and every pass reproduces the first.

use std::time::Instant;

use wanpred_core::obs::{names, ObsSink, Snapshot};
use wanpred_core::simnet::fault::FaultConfig;
use wanpred_core::simnet::time::SimDuration;
use wanpred_core::testbed::{run_campaign, CampaignConfig, CoallocSummary};

use crate::measure::{
    median, overhead_metrics, peak_rss_mb, ratio, rung_tournament_ratio, Fastest, Outcome,
    PassPlan, Setups, Slice, Table, END_TO_END, PER_LAYER,
};
use crate::RunConfig;

/// Stripe width: both testbed servers.
const K: usize = 2;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// Campaign length, days.
    pub days: u64,
    /// Campaigns per round, each from its own seed.
    pub campaigns: usize,
    /// Length of the warm-up campaign run during set-up, days.
    pub warmup_days: u64,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
}

impl Params {
    /// The benchmark size.
    pub fn full() -> Self {
        Params {
            days: 14,
            campaigns: 12,
            warmup_days: 7,
            setup_reps: 7,
        }
    }

    /// A size for tests.
    pub fn tiny() -> Self {
        Params {
            days: 2,
            campaigns: 2,
            warmup_days: 1,
            setup_reps: 1,
        }
    }
}

/// The kill schedule of `ablation_coalloc`: frequent enough that kills
/// land on in-flight stripes.
fn hostile_faults() -> FaultConfig {
    FaultConfig {
        kill_mean_interarrival: SimDuration::from_mins(40),
        ..FaultConfig::wan_default()
    }
}

fn config(seed: u64, days: u64, obs: ObsSink) -> CampaignConfig {
    CampaignConfig::builder(seed)
        .duration_days(days)
        .probes(false)
        .coalloc(K)
        .faults(hostile_faults())
        .obs(obs)
        .build()
}

/// What one campaign produced.
struct Pass {
    wall_s: f64,
    summary: CoallocSummary,
    obs: Option<Snapshot>,
}

fn pass(seed: u64, days: u64, traced: bool, out: &mut Outcome) -> Pass {
    let sink = if traced {
        ObsSink::enabled()
    } else {
        ObsSink::disabled()
    };
    let cfg = config(seed, days, sink.clone());
    let t = Instant::now();
    let result = run_campaign(&cfg);
    let wall_s = t.elapsed().as_secs_f64();
    let summary = result.coalloc.unwrap_or_default();
    out.check(summary.k == K, || {
        "the campaign ran without co-allocation".to_string()
    });
    out.check(summary.tiling_violations == 0, || {
        format!(
            "{} transfers double-fetched or dropped bytes",
            summary.tiling_violations
        )
    });
    if let Some(snap) = &result.metrics {
        // The one client keeps at most one transfer outstanding, and the
        // campaign can end while it is in flight: that one is neither
        // completed nor failed.
        let attempted = snap.counter(names::REPLICA_COALLOC_TRANSFERS);
        let settled = (summary.completed + summary.failed) as u64;
        out.check(
            (settled..=settled + 1).contains(&attempted)
                && snap.counter(names::REPLICA_COALLOC_COMPLETED) == summary.completed as u64
                && snap.counter(names::REPLICA_COALLOC_FAILED) == summary.failed as u64,
            || {
                format!(
                    "{attempted} co-allocated transfers attempted, {} completed + {} failed",
                    summary.completed, summary.failed
                )
            },
        );
    }
    Pass {
        wall_s,
        summary,
        obs: result.metrics,
    }
}

/// Seed of the `k`-th campaign of a round (the first uses `seed`).
fn campaign_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One round: [`Params::campaigns`] campaigns from seeds derived from
/// `seed`. Fault schedules differ enough between seeds to move the cost
/// per transfer by a tenth, so a round averages several.
fn round(params: &Params, seed: u64, traced: bool, out: &mut Outcome) -> Vec<Pass> {
    (0..params.campaigns)
        .map(|k| pass(campaign_seed(seed, k), params.days, traced, out))
        .collect()
}

fn summaries(r: &[Pass]) -> Vec<&CoallocSummary> {
    r.iter().map(|p| &p.summary).collect()
}

/// Run the workload.
pub fn run(params: &Params, rc: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    // Warm-up: one short campaign fills allocator and code caches.
    let set_up = || {
        pass(rc.seed, params.warmup_days, false, &mut Outcome::default());
    };
    let mut setups = Setups::default();
    setups.time(set_up);

    let mut plan = PassPlan::new(rc.budget, rc.trace, params.setup_reps);
    let (mut plain, mut traced): (Vec<Vec<Pass>>, Vec<Vec<Pass>>) = (Vec::new(), Vec::new());
    while let Some(is_traced) = plan.next_pass() {
        if plan.setup_due() {
            setups.time(set_up);
        }
        let r = round(params, rc.seed, is_traced, &mut out);
        if let Some(first) = plain.first() {
            out.check(summaries(first) == summaries(&r), || {
                "a round diverged from the first round of the same seed".to_string()
            });
        }
        if is_traced {
            traced.push(r);
        } else {
            plain.push(r);
        }
    }
    if traced.is_empty() {
        // The attempt count comes from the co-allocator's obs counter:
        // one more round, outside the measured ones, with the sink on. It
        // must also reproduce the measured rounds exactly.
        let r = round(params, rc.seed, true, &mut out);
        out.check(
            plain.first().is_some_and(|f| summaries(f) == summaries(&r)),
            || "enabling the obs sink changed the campaigns".to_string(),
        );
    }

    let first = plain
        .first()
        .expect("the pass plan runs at least one round");
    let sum = |f: fn(&CoallocSummary) -> u64| first.iter().map(|p| f(&p.summary)).sum::<u64>();
    let transfers = sum(|s| (s.completed + s.failed) as u64);
    let (completed, failed) = (sum(|s| s.completed as u64), sum(|s| s.failed as u64));
    let stripes = sum(|s| s.stripes);
    let rebalances = sum(|s| s.rebalances);
    let salvaged = sum(|s| s.bytes_salvaged);
    let violations = sum(|s| s.tiling_violations as u64);
    let transfer_s: f64 = first.iter().map(|p| p.summary.completed_time_s).sum();
    let goodput_kbs = ratio(sum(|s| s.completed_bytes) as f64 / 1_000.0, transfer_s);
    out.pin("summaries", summaries(first));
    out.pin("goodput_kbs", goodput_kbs);

    let round_walls: Vec<f64> = plain
        .iter()
        .map(|r| r.iter().map(|p| p.wall_s).sum())
        .collect();
    let rates: Vec<f64> = round_walls.iter().map(|w| transfers as f64 / w).collect();
    let slices: Vec<Slice> = plain
        .iter()
        .flat_map(|r| {
            r.iter().enumerate().map(|(key, p)| Slice {
                key,
                busy_s: p.wall_s,
                work: (p.summary.completed + p.summary.failed) as f64,
                samples_us: vec![p.wall_s * 1e6],
            })
        })
        .collect();
    let fastest = Fastest::of(&slices);
    let setup_s = setups.median_s();
    let mut t = Table::new();
    if rc.trace {
        let wall: f64 = traced.iter().flatten().map(|p| p.wall_s).sum();
        t.insert("testbed.campaign.busy_s", wall);
        t.insert("testbed.campaign.busy_share", 1.0);
        t.insert("replica.coalloc.tiling_violations", violations as f64);
        t.insert("replica.coalloc.goodput_kbs", goodput_kbs);
        let snaps: Vec<&Snapshot> = traced
            .first()
            .map(|r| r.iter().filter_map(|p| p.obs.as_ref()).collect())
            .unwrap_or_default();
        let total = |name: &str| snaps.iter().map(|s| s.counter(name)).sum::<u64>();
        for (metric, name) in [
            ("simnet.engine.events", names::SIMNET_ENGINE_EVENTS),
            ("simnet.flows.failed", names::SIMNET_FLOWS_FAILED),
            ("gridftp.transfers.retries", names::GRIDFTP_RETRIES),
            (
                "replica.coalloc.rebalances",
                names::REPLICA_COALLOC_REBALANCES,
            ),
            (
                "replica.coalloc.bytes_salvaged",
                names::REPLICA_COALLOC_BYTES_SALVAGED,
            ),
        ] {
            t.insert(metric, total(name) as f64);
        }
        // Stripes are a per-transfer histogram; its sum is the total.
        let obs_stripes: u64 = snaps
            .iter()
            .filter_map(|s| s.histogram(names::REPLICA_COALLOC_STRIPES))
            .map(|h| h.sum)
            .sum();
        out.check(obs_stripes == stripes, || {
            format!("obs counted {obs_stripes} stripes, the summaries {stripes}")
        });
        t.insert("replica.coalloc.stripes", obs_stripes as f64);
        t.insert(
            "replica.rung_tournament_ratio",
            rung_tournament_ratio(&snaps),
        );
        out.pin("traced.events", total(names::SIMNET_ENGINE_EVENTS));
        out.pin("traced.stripes", obs_stripes);
        let traced_walls: Vec<f64> = traced
            .iter()
            .map(|r| r.iter().map(|p| p.wall_s).sum())
            .collect();
        overhead_metrics(&mut t, &traced_walls, &round_walls);
        out.set_metrics(PER_LAYER, &t);
    } else {
        t.insert("throughput_per_s", fastest.per_s);
        t.insert("latency_mean_us", fastest.mean_us);
        t.insert("latency_p99_us", fastest.p99_us);
        t.insert("setup_s", setup_s);
        t.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        out.set_metrics(END_TO_END, &t);
    }
    out.report.push(format!(
        "coalloc_faulty: {completed} completed + {failed} failed over {} campaigns per round, \
         {} rounds; transfers_per_s {:.1} 1/s (fastest {} of {} campaigns; median round \
         {:.1} 1/s); goodput_kbs {goodput_kbs:.1} KB/s (sim time); {stripes} stripes, \
         {rebalances} rebalances, {salvaged} bytes salvaged; campaign mean {:.0} us; \
         setup_s {setup_s:.3} s; round rates {:.1?}",
        params.campaigns,
        plain.len() + traced.len(),
        fastest.per_s,
        fastest.kept,
        fastest.of,
        median(&rates),
        fastest.mean_us,
        rates,
    ));
    out
}
