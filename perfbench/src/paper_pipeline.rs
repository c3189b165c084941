//! `paper_pipeline` (batch): the paper's reproduction path.
//!
//! A year-long August campaign on both site pairs goes through ULM
//! encoding, the borrowed-path parse and the 44-predictor extended suite
//! replayed with the incremental engine over each pair's whole log. Each
//! pass repeats the whole chain from the same seed.
//!
//! * `throughput_per_s`: campaign transfers carried through the whole
//!   chain per second of wall time, over the fastest tenth of each
//!   stage's repetitions (see [`Fastest`]).
//! * `latency_mean_us` / `latency_p99_us`: wall time to score one
//!   predictor over one pair's year-long log: one `Evaluation::replay`
//!   call with that predictor alone, 88 per pass, over the fastest
//!   tenth of each call's repetitions (several hundred per run).
//!
//! Each predictor gets its own replay call, and a one-predictor suite
//! runs on the calling thread, so the replay's fan-out of a suite across
//! threads is not used. A whole-suite call waits for the slower of two
//! threads: on a shared two-vCPU host the p99 of such calls, on
//! quarter-year segments, moved by more than half its median over ten
//! seeds (IQR over median 0.55), and the throughput was no higher than
//! with per-predictor calls.
//!
//! Checks: the parse of each encoded log equals the campaign's own
//! observation series exactly, the suite reports every predictor, and
//! every pass reproduces the first one's outputs.

use std::time::Instant;

use wanpred_core::obs::{names, ObsSink};
use wanpred_core::predict::{
    extended_suite, observations_from_log, observations_from_ulm, sort_by_time, EvalEngine,
    EvalOptions, Evaluation, NamedPredictor, PredictorReport,
};
use wanpred_core::testbed::{run_campaign, CampaignConfig, Pair};

use crate::measure::{
    busy_metrics, median, overhead_metrics, peak_rss_mb, ratio, Fastest, Outcome, PassPlan, Setups,
    Slice, Table, Tracer, END_TO_END, PER_LAYER,
};
use crate::RunConfig;

const CAMPAIGN: &str = "testbed.campaign";
const ENCODE: &str = "logfmt.encode";
const PARSE: &str = "logfmt.parse";
const REPLAY: &str = "predict.replay";

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// Campaign length, days.
    pub days: u64,
    /// Length of the warm-up campaign run during set-up, days.
    pub warmup_days: u64,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
}

impl Params {
    /// The benchmark size: about 22.9k transfers per pass.
    pub fn full() -> Self {
        Params {
            days: 365,
            warmup_days: 60,
            setup_reps: 7,
        }
    }

    /// A size for tests.
    pub fn tiny() -> Self {
        Params {
            days: 3,
            warmup_days: 1,
            setup_reps: 1,
        }
    }
}

/// What one pass produced.
struct Pass {
    transfers: usize,
    /// Summed wall time of the chain's stages, seconds.
    wall_s: f64,
    /// Each stage's wall time, keyed by its place in the pass; a
    /// one-predictor replay carries its wall time as a latency sample.
    slices: Vec<Slice>,
    /// Per pair: (best, median) MAPE over the suite, percent.
    mapes: Vec<(f64, f64)>,
    predictions: u64,
    doc_bytes: usize,
    obs: Option<wanpred_core::obs::Snapshot>,
}

fn config(seed: u64, days: u64, obs: ObsSink) -> CampaignConfig {
    CampaignConfig::builder(seed)
        .duration_days(days)
        .probes(false)
        .obs(obs)
        .build()
}

/// Run `f` as the pass's next slice, charging its wall time to `layer`.
fn stage<R>(
    slices: &mut Vec<Slice>,
    tracer: &mut Tracer,
    layer: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let r = f();
    let d = t.elapsed();
    slices.push(Slice {
        key: slices.len(),
        busy_s: d.as_secs_f64(),
        ..Slice::default()
    });
    tracer.record(layer, d);
    r
}

fn mape_summary(reports: &[PredictorReport]) -> Option<(f64, f64)> {
    let mapes: Vec<f64> = reports.iter().filter_map(PredictorReport::mape).collect();
    let best = mapes.iter().copied().min_by(f64::total_cmp)?;
    Some((best, median(&mapes)))
}

fn pass(
    seed: u64,
    days: u64,
    suite: &[NamedPredictor],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Pass {
    let sink = if tracer.is_on() {
        ObsSink::enabled()
    } else {
        ObsSink::disabled()
    };
    let cfg = config(seed, days, sink.clone());
    let mut slices = Vec::new();
    let result = stage(&mut slices, tracer, CAMPAIGN, || run_campaign(&cfg));
    out.check(result.submit_errors == 0, || {
        format!("campaign: {} submit errors", result.submit_errors)
    });
    let mut p = Pass {
        transfers: 0,
        wall_s: 0.0,
        slices: Vec::new(),
        mapes: Vec::new(),
        predictions: 0,
        doc_bytes: 0,
        obs: None,
    };
    for pair in Pair::ALL {
        let log = result.log(pair);
        p.transfers += log.len();
        let doc = stage(&mut slices, tracer, ENCODE, || log.to_ulm_string());
        p.doc_bytes += doc.len();
        let parsed = stage(&mut slices, tracer, PARSE, || observations_from_ulm(&doc));
        let mut series = match parsed {
            Ok(series) => series,
            Err(e) => {
                out.check(false, || format!("{}: parse failed: {e}", pair.label()));
                continue;
            }
        };
        out.check(series == observations_from_log(log), || {
            format!(
                "{}: parsed series differs from the campaign's",
                pair.label()
            )
        });
        stage(&mut slices, tracer, REPLAY, || sort_by_time(&mut series));
        let mut reports = Vec::with_capacity(suite.len());
        for predictor in suite {
            reports.extend(stage(&mut slices, tracer, REPLAY, || {
                Evaluation::replay(
                    &series,
                    std::slice::from_ref(predictor),
                    EvalEngine::Incremental,
                    EvalOptions::default(),
                    &sink,
                )
            }));
            if let Some(s) = slices.last_mut() {
                s.samples_us.push(s.busy_s * 1e6);
            }
        }
        p.predictions += reports.iter().map(|r| r.outcomes.len() as u64).sum::<u64>();
        out.check(reports.len() == suite.len(), || {
            format!(
                "{}: {} reports for {} predictors",
                pair.label(),
                reports.len(),
                suite.len()
            )
        });
        match mape_summary(&reports) {
            Some(m) => p.mapes.push(m),
            None => out.check(false, || format!("{}: no predictor scored", pair.label())),
        }
    }
    // The campaign slice carries the pass's transfers as its work.
    if let Some(s) = slices.first_mut() {
        s.work = p.transfers as f64;
    }
    p.wall_s = slices.iter().map(|s| s.busy_s).sum();
    p.slices = slices;
    p.obs = sink.is_enabled().then(|| sink.snapshot());
    p
}

/// Run the workload.
pub fn run(params: &Params, rc: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let set_up = || {
        let suite = extended_suite();
        // Warm-up: one short pass fills allocator and code caches.
        pass(
            rc.seed,
            params.warmup_days,
            &suite,
            &mut Tracer::new(false),
            &mut Outcome::default(),
        );
        suite
    };
    let mut setups = Setups::default();
    let suite = setups.time(set_up);

    let mut tracer = Tracer::new(true);
    let mut plan = PassPlan::new(rc.budget, rc.trace, params.setup_reps);
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    while let Some(is_traced) = plan.next_pass() {
        if plan.setup_due() {
            setups.time(set_up);
        }
        let p = if is_traced {
            pass(rc.seed, params.days, &suite, &mut tracer, &mut out)
        } else {
            pass(
                rc.seed,
                params.days,
                &suite,
                &mut Tracer::new(false),
                &mut out,
            )
        };
        if let Some(first) = plain.first() {
            out.check(
                first.transfers == p.transfers && first.mapes == p.mapes,
                || "a pass diverged from the first pass of the same seed".to_string(),
            );
        }
        if is_traced {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }

    let first = plain.first().expect("the pass plan runs at least one pass");
    let n_pairs = first.mapes.len().max(1) as f64;
    let best = first.mapes.iter().map(|m| m.0).sum::<f64>() / n_pairs;
    let med = first.mapes.iter().map(|m| m.1).sum::<f64>() / n_pairs;
    out.pin("transfers", first.transfers);
    out.pin("mapes", &first.mapes);
    out.pin("predictions", first.predictions);

    let rates: Vec<f64> = plain
        .iter()
        .map(|p| p.transfers as f64 / p.wall_s)
        .collect();
    let slices: Vec<Slice> = plain.iter().flat_map(|p| p.slices.clone()).collect();
    let fastest = Fastest::of(&slices);
    let setup_s = setups.median_s();
    let mut t = Table::new();
    if rc.trace {
        let wall: f64 = traced.iter().map(|p| p.wall_s).sum();
        busy_metrics(
            &mut t,
            &tracer,
            wall,
            &[
                (
                    CAMPAIGN,
                    "testbed.campaign.busy_s",
                    "testbed.campaign.busy_share",
                ),
                (ENCODE, "logfmt.encode.busy_s", "logfmt.encode.busy_share"),
                (PARSE, "logfmt.parse.busy_s", "logfmt.parse.busy_share"),
                (REPLAY, "predict.replay.busy_s", "predict.replay.busy_share"),
            ],
        );
        let parse_s = tracer.layer(PARSE).secs();
        let doc_mb: f64 = traced.iter().map(|p| p.doc_bytes as f64 / 1e6).sum();
        t.insert("logfmt.parse.mb_per_s", ratio(doc_mb, parse_s));
        if let Some(snap) = traced.first().and_then(|p| p.obs.as_ref()) {
            t.insert(
                "simnet.engine.events",
                snap.counter(names::SIMNET_ENGINE_EVENTS) as f64,
            );
            t.insert(
                "simnet.flows.failed",
                snap.counter(names::SIMNET_FLOWS_FAILED) as f64,
            );
            t.insert(
                "gridftp.transfers.retries",
                snap.counter(names::GRIDFTP_RETRIES) as f64,
            );
            let predictions = snap.counter(names::PREDICT_EVAL_PREDICTIONS);
            out.check(predictions == first.predictions, || {
                format!(
                    "obs counted {predictions} predictions, reports hold {}",
                    first.predictions
                )
            });
            t.insert("predict.replay.predictions", predictions as f64);
        }
        t.insert("predict.best_mape_pct", best);
        t.insert("predict.median_mape_pct", med);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        let plain_walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        overhead_metrics(&mut t, &traced_walls, &plain_walls);
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
        "paper_pipeline: {} transfers/pass over {} passes; transfers_per_s {:.1} 1/s \
         (fastest {} of {} stage runs; median pass {:.1} 1/s); best_mape_pct {best:.3} %; \
         median_mape_pct {med:.3} %; replay mean {:.0} us p99 {:.0} us; setup_s {setup_s:.3} s; \
         pass rates {:.1?}",
        first.transfers,
        plain.len() + traced.len(),
        fastest.per_s,
        fastest.kept,
        fastest.of,
        median(&rates),
        fastest.mean_us,
        fastest.p99_us,
        rates,
    ));
    out
}
