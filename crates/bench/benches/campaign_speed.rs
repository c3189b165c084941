//! End-to-end simulator throughput: wall time to reproduce a full
//! two-week measurement campaign (the unit of everything in the
//! evaluation). Also benches the per-figure computations on its output.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use wanpred_logfmt::TransferLog;
use wanpred_obs::ObsSink;
use wanpred_predict::prelude::*;
use wanpred_simnet::time::SimDuration;
use wanpred_testbed::{fig07, fig08_11, fig12_13, run_campaign, CampaignConfig, Pair};

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.bench_function("two_week_august_campaign", |b| {
        b.iter(|| {
            std::hint::black_box(run_campaign(&CampaignConfig::august(42)));
        })
    });
    group.bench_function("two_day_campaign_no_probes", |b| {
        b.iter(|| {
            std::hint::black_box(run_campaign(&CampaignConfig {
                duration: SimDuration::from_days(2),
                probes: false,
                ..CampaignConfig::august(1)
            }));
        })
    });
    group.finish();

    let result = run_campaign(&CampaignConfig::august(42));
    let mut group = c.benchmark_group("figures");
    group.bench_function("fig07_counts", |b| {
        b.iter(|| std::hint::black_box(fig07(&result, Pair::LblAnl)))
    });
    group.bench_function("fig08_11_one_class", |b| {
        b.iter(|| std::hint::black_box(fig08_11(&result, Pair::LblAnl, SizeClass::C100MB)))
    });
    group.bench_function("fig12_13_classification", |b| {
        b.iter(|| std::hint::black_box(fig12_13(&result, Pair::LblAnl)))
    });
    group.finish();
}

/// A bursty multi-class log of `n` transfers: irregular gaps so temporal
/// windows fill and drain, all four size classes represented.
fn replay_log(n: usize) -> Vec<Observation> {
    let mut t = 996_642_000u64;
    (0..n)
        .map(|i| {
            t += 300 + (i as u64 * 7_919) % 14_400;
            Observation {
                at_unix: t,
                bandwidth_kbs: 3_500.0 + 2_000.0 * ((i as f64 * 0.31).sin()),
                file_size: [5, 100, 500, 900][i % 4] * PAPER_MB,
                streams: 1,
                tcp_buffer: 0,
            }
        })
        .collect()
}

/// Naive vs incremental full-suite replay, and the `BENCH_replay.json`
/// artifact: one honest wall-clock measurement of both engines on a
/// 10k-observation log (best of a few runs), written to the repo root.
fn bench_replay_engines(c: &mut Criterion) {
    let h = replay_log(10_000);
    let suite = full_suite();
    let opts = EvalOptions::default();

    let mut group = c.benchmark_group("replay_30_predictors_10k_transfers");
    group.sample_size(10);
    group.bench_function("incremental", |b| {
        b.iter(|| {
            std::hint::black_box(Evaluation::replay(
                &h,
                &suite,
                EvalEngine::Incremental,
                opts,
                &ObsSink::disabled(),
            ))
        })
    });
    group.bench_function("naive", |b| {
        b.iter(|| {
            std::hint::black_box(Evaluation::replay(
                &h,
                &suite,
                EvalEngine::Naive,
                opts,
                &ObsSink::disabled(),
            ))
        })
    });
    group.finish();

    let time_best = |runs: usize, f: &dyn Fn() -> Vec<PredictorReport>| -> f64 {
        (0..runs)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed().as_secs_f64() * 1_000.0
            })
            .fold(f64::INFINITY, f64::min)
    };
    let naive_ms = time_best(2, &|| {
        Evaluation::replay(&h, &suite, EvalEngine::Naive, opts, &ObsSink::disabled())
    });
    let incremental_ms = time_best(5, &|| {
        Evaluation::replay(
            &h,
            &suite,
            EvalEngine::Incremental,
            opts,
            &ObsSink::disabled(),
        )
    });
    // End-to-end document replay: a real campaign log, from ULM text to
    // predictor reports. The old path materialises a TransferLog with
    // the allocating oracle decoder first; the new path ingests straight
    // to observations with the zero-copy decoder (`run_ulm`).
    let result = run_campaign(&CampaignConfig::august(42));
    let doc = result.log(Pair::LblAnl).to_ulm_string();
    let eval = Evaluation::builder().build();
    let old_doc_replay = || -> Vec<PredictorReport> {
        let mut log = TransferLog::new();
        for line in doc.lines() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            log.append(wanpred_logfmt::decode(t).expect("campaign log is well-formed"));
        }
        eval.run_log(&log)
    };
    let new_doc_replay =
        || -> Vec<PredictorReport> { eval.run_ulm(&doc).expect("campaign log is well-formed") };
    assert_eq!(
        old_doc_replay().len(),
        new_doc_replay().len(),
        "both document replay paths score the same suite"
    );
    let doc_old_ms = time_best(5, &old_doc_replay);
    let doc_new_ms = time_best(5, &new_doc_replay);

    let json = format!(
        "{{\n  \"observations\": {},\n  \"predictors\": {},\n  \"naive_ms\": {:.3},\n  \"incremental_ms\": {:.3},\n  \"speedup\": {:.2},\n  \"doc_replay_lines\": {},\n  \"doc_replay_oracle_ms\": {:.3},\n  \"doc_replay_zero_copy_ms\": {:.3},\n  \"doc_replay_speedup\": {:.2}\n}}\n",
        h.len(),
        suite.len(),
        naive_ms,
        incremental_ms,
        naive_ms / incremental_ms,
        result.log(Pair::LblAnl).len(),
        doc_old_ms,
        doc_new_ms,
        doc_old_ms / doc_new_ms
    );
    let path = wanpred_bench::write_artifact("BENCH_replay.json", &json);
    println!("replay comparison written to {}:\n{json}", path.display());
}

criterion_group!(benches, bench_campaign, bench_replay_engines);
criterion_main!(benches);
