//! ULM parse throughput: the allocating oracle decoder against the
//! zero-copy hot path, on a realistic campaign-sized document.
//!
//! Four arms over the same ~20k-line document:
//!
//! * `oracle_decode` — per-line [`wanpred_logfmt::decode`] (the old
//!   path, retained as the differential oracle), collected row-wise.
//! * `log_from_ulm` — [`TransferLog::from_ulm_str`], which now decodes
//!   borrowed and materialises owned records.
//! * `columns_from_ulm` — [`TransferColumns::from_ulm_str`], fully
//!   zero-copy into SoA columns over a shared arena.
//! * `observations_from_ulm` — the predict-crate ingest straight to
//!   numeric observations, no strings retained at all.
//!
//! Besides the criterion groups, writes `BENCH_parse.json` to the repo
//! root with best-of-N wall times and speedups over the oracle (the
//! acceptance artifact: the zero-copy path must clear 3x).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use wanpred_logfmt::{decode, Operation, TransferColumns, TransferLog, TransferRecord};
use wanpred_predict::observations_from_ulm;

/// A campaign-shaped document: `n` transfers across a handful of
/// host/source pairs (strings repeat, as in real logs), every size
/// class, irregular timing, a sprinkle of comments and blank lines.
fn campaign_doc(n: usize) -> String {
    let hosts = ["dsl.lbl.gov", "pitcairn.mcs.anl.gov", "jupiter.isi.edu"];
    let sources = ["dpss.lbl.gov", "mars.isi.edu"];
    let mut log = TransferLog::new();
    let mut t = 996_642_000u64;
    for i in 0..n {
        t += 120 + (i as u64 * 7_919) % 3_600;
        let secs = 2.5 + (i as f64 * 0.37) % 9.0;
        log.append(TransferRecord {
            source: sources[i % sources.len()].to_string(),
            host: hosts[(i / 7) % hosts.len()].to_string(),
            file_name: format!("/data/run{:02}/file-{:05}.dat", i % 16, i),
            file_size: [5, 100, 500, 1000][i % 4] * 1_048_576,
            volume: "/pvfs/ftp".to_string(),
            start_unix: t,
            end_unix: t + secs.ceil() as u64,
            total_time_s: secs,
            streams: [1, 2, 4, 8][(i / 3) % 4],
            tcp_buffer: 64 * 1024,
            operation: if i % 5 == 0 {
                Operation::Write
            } else {
                Operation::Read
            },
        });
    }
    format!(
        "# synthetic campaign log ({n} records)\n\n{}",
        log.to_ulm_string()
    )
}

/// The old path: allocate per line, collect a row-wise log.
fn oracle_parse(doc: &str) -> TransferLog {
    let mut log = TransferLog::new();
    for line in doc.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        log.append(decode(t).expect("bench document is well-formed"));
    }
    log
}

fn bench_parse(c: &mut Criterion) {
    let doc = campaign_doc(20_000);
    let lines = doc
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .count();

    // Cross-check once: all arms must see the same records.
    let oracle = oracle_parse(&doc);
    assert_eq!(oracle, TransferLog::from_ulm_str(&doc).expect("parses"));
    assert_eq!(
        oracle,
        TransferColumns::from_ulm_str(&doc)
            .expect("parses")
            .to_log()
    );
    assert_eq!(
        observations_from_ulm(&doc).expect("parses").len(),
        oracle.len()
    );

    let mut group = c.benchmark_group("ulm_parse_20k_lines");
    group.sample_size(20);
    group.bench_function("oracle_decode", |b| {
        b.iter(|| std::hint::black_box(oracle_parse(&doc)))
    });
    group.bench_function("log_from_ulm", |b| {
        b.iter(|| std::hint::black_box(TransferLog::from_ulm_str(&doc).expect("parses")))
    });
    group.bench_function("columns_from_ulm", |b| {
        b.iter(|| std::hint::black_box(TransferColumns::from_ulm_str(&doc).expect("parses")))
    });
    group.bench_function("observations_from_ulm", |b| {
        b.iter(|| std::hint::black_box(observations_from_ulm(&doc).expect("parses")))
    });
    group.finish();

    // The acceptance artifact: best-of-N wall times, single thread.
    let time_best = |runs: usize, f: &dyn Fn()| -> f64 {
        (0..runs)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1_000.0
            })
            .fold(f64::INFINITY, f64::min)
    };
    let runs = 20;
    let oracle_ms = time_best(runs, &|| {
        std::hint::black_box(oracle_parse(&doc));
    });
    let log_ms = time_best(runs, &|| {
        std::hint::black_box(TransferLog::from_ulm_str(&doc).expect("parses"));
    });
    let columns_ms = time_best(runs, &|| {
        std::hint::black_box(TransferColumns::from_ulm_str(&doc).expect("parses"));
    });
    let ingest_ms = time_best(runs, &|| {
        std::hint::black_box(observations_from_ulm(&doc).expect("parses"));
    });
    let mb = doc.len() as f64 / 1e6;
    let json = format!(
        "{{\n  \"lines\": {lines},\n  \"bytes\": {},\n  \"oracle_decode_ms\": {oracle_ms:.3},\n  \"log_from_ulm_ms\": {log_ms:.3},\n  \"columns_from_ulm_ms\": {columns_ms:.3},\n  \"observations_from_ulm_ms\": {ingest_ms:.3},\n  \"oracle_mb_per_s\": {:.1},\n  \"columns_mb_per_s\": {:.1},\n  \"speedup_log\": {:.2},\n  \"speedup_columns\": {:.2},\n  \"speedup_observations\": {:.2}\n}}\n",
        doc.len(),
        mb / (oracle_ms / 1_000.0),
        mb / (columns_ms / 1_000.0),
        oracle_ms / log_ms,
        oracle_ms / columns_ms,
        oracle_ms / ingest_ms,
    );
    let path = wanpred_bench::write_artifact("BENCH_parse.json", &json);
    println!("parse comparison written to {}:\n{json}", path.display());
}

criterion_group!(benches, bench_parse);
criterion_main!(benches);
