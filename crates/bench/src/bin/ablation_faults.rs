//! Fault-robustness ablation: how much predictor accuracy survives an
//! unreliable wide area.
//!
//! Runs the August campaign twice from the same seed — once on the clean
//! network the paper's logs come from, once with the calibrated fault
//! profile (outages, degradations, connection resets) and the default
//! retry policy — then replays the full 30-predictor suite over both log
//! sets. Retried-and-recovered transfers log end-to-end times (submit →
//! final completion), so faults show up as genuinely slower, noisier
//! observations rather than being silently dropped.
//!
//! Writes the headline comparison to `BENCH_faults.json` at the repo
//! root. `--days N` shortens the campaign (CI smoke runs use `--days 2`);
//! `--chaos RATE` additionally corrupts the faulty run's logs with the
//! seeded injector and replays the suite over what strict salvage
//! recovers, compounding wide-area faults with storage damage.

use std::env;

use wanpred_bench::{arg_value, DEFAULT_SEED};
use wanpred_predict::prelude::*;
use wanpred_simnet::time::SimDuration;
use wanpred_testbed::{fmt_mape, run_campaign, CampaignConfig, CampaignResult, Pair, Table};

/// Accuracy digest of one pair's log: (best MAPE, median MAPE over the
/// suite, answered-predictor count).
struct Digest {
    best: Option<f64>,
    median: Option<f64>,
    transfers: usize,
}

fn digest(result: &CampaignResult, pair: Pair) -> Digest {
    let log = result.log(pair);
    let reports = Evaluation::builder().build().run_log(log);
    let mut mapes: Vec<f64> = reports.iter().filter_map(PredictorReport::mape).collect();
    mapes.sort_by(|a, b| a.total_cmp(b));
    Digest {
        best: mapes.first().copied(),
        median: (!mapes.is_empty()).then(|| mapes[mapes.len() / 2]),
        transfers: log.len(),
    }
}

fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "null".into(),
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let days: u64 = arg_value(&args, "--days")
        .and_then(|v| v.parse().ok())
        .unwrap_or(14);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let chaos: Option<f64> = arg_value(&args, "--chaos").and_then(|v| v.parse().ok());

    let base = CampaignConfig {
        duration: SimDuration::from_days(days),
        probes: false,
        ..CampaignConfig::august(seed)
    };
    let clean = run_campaign(&base);
    let mut faulty_cfg = base.clone().with_faults();
    if let Some(rate) = chaos {
        faulty_cfg = faulty_cfg.with_chaos(rate);
    }
    let faulty = run_campaign(&faulty_cfg);

    assert_eq!(clean.fault_events, 0);
    assert!(faulty.fault_events > 0, "fault schedule came up empty");

    println!(
        "campaign: {days} days, seed {seed}; faulty run scheduled {} fault \
         actions, saw {} retries and abandoned {} transfers\n",
        faulty.fault_events, faulty.retries, faulty.failed_transfers
    );
    if let Some(rate) = chaos {
        for pair in Pair::ALL {
            let report = faulty.salvage(pair).expect("chaos was enabled");
            println!(
                "chaos {rate}: {} salvage kept {} records, quarantined {} lines \
                 ({:.1}% recovery)",
                pair.label(),
                report.kept,
                report.quarantined.len(),
                report.recovery_fraction() * 100.0
            );
        }
        println!();
    }

    let mut table = Table::new("predictor accuracy, clean vs faulty logs (MAPE %)").headers([
        "pair",
        "network",
        "best",
        "median",
        "transfers",
    ]);
    let mut cells = Vec::new();
    for pair in Pair::ALL {
        for (label, result) in [("clean", &clean), ("faulty", &faulty)] {
            let d = digest(result, pair);
            table.row([
                pair.label().to_string(),
                label.to_string(),
                fmt_mape(d.best),
                fmt_mape(d.median),
                d.transfers.to_string(),
            ]);
            cells.push((pair, label, d));
        }
    }
    println!("{}", table.render());
    println!(
        "expected shape: the faulty logs keep the predictors usable — recovered\n\
         transfers stretch the bandwidth tail, so errors grow by a factor, they\n\
         don't explode — which is the operating regime the paper's log-based\n\
         predictors were built for."
    );

    let mut pairs_json = String::new();
    for (pair, label, d) in &cells {
        pairs_json.push_str(&format!(
            "    {{\"pair\": \"{}\", \"network\": \"{}\", \"best_mape\": {}, \"median_mape\": {}, \"transfers\": {}}},\n",
            pair.label(),
            label,
            json_num(d.best),
            json_num(d.median),
            d.transfers
        ));
    }
    let pairs_json = pairs_json.trim_end().trim_end_matches(',').to_string();
    let chaos_json = match chaos {
        Some(rate) => {
            let recovered: usize = Pair::ALL
                .iter()
                .filter_map(|p| faulty.salvage(*p))
                .map(|r| r.kept)
                .sum();
            let quarantined: usize = Pair::ALL
                .iter()
                .filter_map(|p| faulty.salvage(*p))
                .map(|r| r.quarantined.len())
                .sum();
            format!("{{\"rate\": {rate}, \"kept\": {recovered}, \"quarantined\": {quarantined}}}")
        }
        None => "null".into(),
    };
    let json = format!(
        "{{\n  \"days\": {days},\n  \"seed\": {seed},\n  \"fault_events\": {},\n  \"retries\": {},\n  \"failed_transfers\": {},\n  \"chaos\": {chaos_json},\n  \"results\": [\n{pairs_json}\n  ]\n}}\n",
        faulty.fault_events, faulty.retries, faulty.failed_transfers
    );
    let path = wanpred_bench::write_artifact("BENCH_faults.json", &json);
    println!("comparison written to {}", path.display());
}
