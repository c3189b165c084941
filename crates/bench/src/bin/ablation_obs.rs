//! Observability-overhead ablation: what the deterministic metrics layer
//! costs, and proof that it costs nothing when switched off.
//!
//! Runs the same August campaign three ways — no sink (the null-sink
//! baseline), sink enabled, and sink enabled again with the snapshot
//! exported — timing each configuration best-of-N. The headline number is
//! the enabled-sink overhead over the null baseline, which the roadmap
//! caps at 5%. The run also re-executes the enabled campaign with the
//! same seed and asserts the two exported snapshots are byte-identical,
//! so the perf gate doubles as a determinism gate.
//!
//! Writes the comparison to `BENCH_obs.json` at the repo root. `--days N`
//! shortens the campaign (CI smoke runs use `--days 2`).

use std::env;
use std::time::Instant;

use wanpred_bench::{arg_value, DEFAULT_SEED};
use wanpred_obs::ObsSink;
use wanpred_testbed::{run_campaign, CampaignConfig, CampaignResult, Table};

/// Timing repetitions per configuration; best and median are reported.
const REPS: usize = 3;

/// Time `REPS` runs, building a fresh config (and so a fresh sink) per
/// rep — a shared enabled sink would accumulate across repetitions.
fn time_campaign(mk_cfg: impl Fn() -> CampaignConfig) -> (f64, f64, CampaignResult) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let cfg = mk_cfg();
        let start = Instant::now();
        let r = run_campaign(&cfg);
        times.push(start.elapsed().as_secs_f64() * 1_000.0);
        last = Some(r);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (times[0], times[REPS / 2], last.expect("REPS > 0"))
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let days: u64 = arg_value(&args, "--days")
        .and_then(|v| v.parse().ok())
        .unwrap_or(14);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED);

    let base_cfg = |obs: ObsSink| {
        CampaignConfig::builder(seed)
            .duration_days(days)
            .probes(true)
            .obs(obs)
            .build()
    };

    println!("campaign: {days} days, seed {seed}; timing best-of-{REPS} per configuration\n");

    let (off_best, off_median, off_result) = time_campaign(|| base_cfg(ObsSink::disabled()));
    let (on_best, on_median, on_result) = time_campaign(|| base_cfg(ObsSink::enabled()));

    // The sink must be read-only: identical logs with and without it.
    assert_eq!(
        off_result.lbl_log, on_result.lbl_log,
        "obs perturbed the run"
    );
    assert_eq!(
        off_result.isi_log, on_result.isi_log,
        "obs perturbed the run"
    );

    // Determinism gate: a second enabled run exports the same bytes.
    let rerun = run_campaign(&base_cfg(ObsSink::enabled()));
    let snap = on_result.metrics.as_ref().expect("obs enabled");
    let snap2 = rerun.metrics.as_ref().expect("obs enabled");
    assert_eq!(
        snap.to_json(),
        snap2.to_json(),
        "same-seed snapshots must be byte-identical"
    );

    let overhead_pct = (on_best - off_best) / off_best * 100.0;
    let metric_count = snap.counters.len() + snap.gauges.len() + snap.histograms.len();

    let mut table = Table::new("observability overhead (campaign wall time, ms)").headers([
        "sink",
        "best",
        "median",
        "overhead vs off",
    ]);
    table.row([
        "disabled".into(),
        format!("{off_best:.1}"),
        format!("{off_median:.1}"),
        "-".into(),
    ]);
    table.row([
        "enabled".into(),
        format!("{on_best:.1}"),
        format!("{on_median:.1}"),
        format!("{overhead_pct:+.2}%"),
    ]);
    println!("{}", table.render());
    println!(
        "{} transfers observed, {metric_count} metric series exported; \
         snapshot determinism verified byte-for-byte.",
        snap.counter("campaign.transfers")
    );
    println!(
        "expected shape: the enabled sink stays within the 5% overhead budget\n\
         because every emission is an integer bump behind one mutex, and the\n\
         disabled sink is a no-op branch on an Option."
    );

    let json = format!(
        "{{\n  \"days\": {days},\n  \"seed\": {seed},\n  \"reps\": {REPS},\n  \
         \"disabled_best_ms\": {off_best:.3},\n  \"disabled_median_ms\": {off_median:.3},\n  \
         \"enabled_best_ms\": {on_best:.3},\n  \"enabled_median_ms\": {on_median:.3},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \"metric_series\": {metric_count},\n  \
         \"snapshot_deterministic\": true\n}}\n"
    );
    let path = wanpred_bench::write_artifact("BENCH_obs.json", &json);
    println!("comparison written to {}", path.display());
}
