//! Salvage-robustness ablation: how much predictor accuracy survives log
//! corruption, and what the salvage decoder pays to get it back.
//!
//! Runs one clean August campaign, serializes each pair's log with CRC
//! trailers, damages it with the seeded chaos injector at a sweep of
//! corruption rates, and strict-salvages the wreckage. For every rate the
//! table reports the record-recovery fraction, the salvage wall time, and
//! the best/median MAPE of the 30-predictor suite replayed over the
//! salvaged log — the differential that tells you whether a torn or
//! bit-flipped history still supports the paper's predictions.
//!
//! Writes the headline comparison to `BENCH_salvage.json` at the repo
//! root. `--days N` shortens the campaign (CI smoke runs use `--days 2`).

use std::env;
use std::time::Instant;

use wanpred_bench::{arg_value, DEFAULT_SEED};
use wanpred_logfmt::{corrupt_doc, salvage_doc, ChaosConfig, SalvageOptions};
use wanpred_predict::prelude::*;
use wanpred_simnet::rng::MasterSeed;
use wanpred_simnet::time::SimDuration;
use wanpred_testbed::{fmt_mape, run_campaign, CampaignConfig, Pair, Table};

/// Corruption rates swept by the ablation: clean baseline through damage
/// well past the acceptance point.
const RATES: [f64; 5] = [0.0, 0.01, 0.05, 0.10, 0.20];

/// One cell of the sweep: a pair's log at one corruption rate.
struct Cell {
    pair: Pair,
    rate: f64,
    original: usize,
    kept: usize,
    quarantined: usize,
    salvage_micros: u128,
    best: Option<f64>,
    median: Option<f64>,
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

    let clean = run_campaign(&CampaignConfig {
        duration: SimDuration::from_days(days),
        probes: false,
        ..CampaignConfig::august(seed)
    });
    println!(
        "campaign: {days} days, seed {seed}; sweeping corruption rates {RATES:?} \
         over the checksummed logs\n"
    );

    let mut cells = Vec::new();
    for pair in Pair::ALL {
        let doc = clean.log(pair).to_ulm_string_checksummed();
        for rate in RATES {
            let chaos_seed =
                MasterSeed(seed).derive_seed(&format!("salvage.{}.{rate}", pair.label()));
            let (damaged, _chaos) = corrupt_doc(&doc, &ChaosConfig::new(rate, chaos_seed));
            let start = Instant::now();
            let (log, report) = salvage_doc(&damaged, &SalvageOptions::strict());
            let salvage_micros = start.elapsed().as_micros();
            let reports = Evaluation::builder().build().run_log(&log);
            let mut mapes: Vec<f64> = reports.iter().filter_map(PredictorReport::mape).collect();
            mapes.sort_by(|a, b| a.total_cmp(b));
            cells.push(Cell {
                pair,
                rate,
                original: clean.log(pair).len(),
                kept: report.kept,
                quarantined: report.quarantined.len(),
                salvage_micros,
                best: mapes.first().copied(),
                median: (!mapes.is_empty()).then(|| mapes[mapes.len() / 2]),
            });
        }
    }

    let mut table = Table::new("salvaged-log predictor accuracy by corruption rate").headers([
        "pair",
        "rate",
        "recovered",
        "quarantined",
        "salvage µs",
        "best MAPE",
        "median MAPE",
    ]);
    for c in &cells {
        table.row([
            c.pair.label().to_string(),
            format!("{:.0}%", c.rate * 100.0),
            format!("{}/{}", c.kept, c.original),
            c.quarantined.to_string(),
            c.salvage_micros.to_string(),
            fmt_mape(c.best),
            fmt_mape(c.median),
        ]);
    }
    println!("{}", table.render());
    println!(
        "expected shape: at the acceptance point (5% corruption) strict salvage\n\
         keeps ≥95% of the records and the suite's error moves by fractions of a\n\
         point, because the paper's log-replay predictors only need a dense —\n\
         not perfect — observation history."
    );

    let mut rows_json = String::new();
    for c in &cells {
        rows_json.push_str(&format!(
            "    {{\"pair\": \"{}\", \"rate\": {}, \"original\": {}, \"kept\": {}, \"quarantined\": {}, \"salvage_micros\": {}, \"best_mape\": {}, \"median_mape\": {}}},\n",
            c.pair.label(),
            c.rate,
            c.original,
            c.kept,
            c.quarantined,
            c.salvage_micros,
            json_num(c.best),
            json_num(c.median)
        ));
    }
    let rows_json = rows_json.trim_end().trim_end_matches(',').to_string();
    let json = format!(
        "{{\n  \"days\": {days},\n  \"seed\": {seed},\n  \"rates\": {RATES:?},\n  \"results\": [\n{rows_json}\n  ]\n}}\n"
    );
    let path = wanpred_bench::write_artifact("BENCH_salvage.json", &json);
    println!("comparison written to {}", path.display());
}
