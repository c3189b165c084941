//! Serving-layer ablation: the sharded snapshot server vs the
//! pre-`serve` architecture (every inquiry behind one directory lock,
//! re-filtering provider output inline), on identical registrant sets.
//!
//! Four phases:
//!
//! 1. **Correctness** — for every filter in the serving pool, the
//!    sharded server's answer must be the byte-identical entry set the
//!    unsharded GIIS oracle produces over the same site GRISes.
//! 2. **Degraded mode** — one registrant's lease is allowed to die
//!    mid-run; every post-death inquiry must keep returning its entries
//!    with `stalenesssecs` stamped exactly (serve-stale, never a stall).
//!    Any miss is a *stale violation* and fails the run.
//! 3. **Modeled open-loop load** — seeded Poisson arrivals through the
//!    M/M/c admission model on sim time: sustained QPS, p50/p95/p99
//!    latency, shed/coalesce counts, all replayed twice and asserted
//!    byte-identical (obs snapshots included).
//! 4. **Wall-clock throughput** — reader threads hammer both servers
//!    for a fixed wall window; the sharded server must beat the locked
//!    directory by ≥3x QPS (asserted in full runs, reported in smoke).
//!
//! Writes `BENCH_serving.json` at the repo root. `--smoke` shrinks the
//! workload for CI and skips only the wall-clock speedup assertion.

use std::env;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use wanpred_bench::{arg_value, DEFAULT_SEED};
use wanpred_core::infod::{
    run_open_loop, Dn, Giis, GridFtpPerfProvider, Gris, InquiryRequest, InquiryService,
    OpenLoopConfig, ProviderConfig, Registration, ServeConfig, ShardedServer,
};
use wanpred_obs::ObsSink;
use wanpred_testbed::{serving_filters, serving_now_unix, serving_sites, ServingSite, Table};

/// Build one GRIS per synthetic site, shared (via `Arc`) between the
/// sharded server and the oracle so both see identical provider state.
fn site_grises(sites: &[ServingSite]) -> Vec<(String, Arc<Gris>)> {
    sites
        .iter()
        .map(|s| {
            let mut g = Gris::new(Dn::parse("o=grid").expect("constant"));
            g.register_provider(Box::new(GridFtpPerfProvider::from_snapshot(
                ProviderConfig::new(&s.host, &s.address),
                s.log.clone(),
            )));
            (s.host.clone(), Arc::new(g))
        })
        .collect()
}

fn sharded_over(grises: &[(String, Arc<Gris>)], cfg: ServeConfig, now: u64) -> ShardedServer {
    let server = ShardedServer::new(cfg);
    for (host, g) in grises {
        server.register_site(host.clone(), u64::MAX, g.clone(), now);
    }
    server.refresh(now);
    server
}

fn oracle_over(grises: &[(String, Arc<Gris>)], now: u64) -> Giis {
    let giis = Giis::new("oracle");
    for (host, g) in grises {
        giis.register_service(
            Registration {
                id: host.clone(),
                ttl_secs: u64::MAX,
            },
            g.clone(),
            now,
        );
    }
    giis
}

/// Sorted LDIF rendering — the byte-identical entry-*set* comparison.
fn entry_set(svc: &dyn InquiryService, filter: &str, now: u64) -> Vec<String> {
    let req = InquiryRequest::parse(filter, now).expect("pool filter parses");
    let mut ldif: Vec<String> = svc
        .inquire(&req)
        .expect("inquiry answered")
        .entries
        .iter()
        .map(|e| e.to_ldif())
        .collect();
    ldif.sort();
    ldif
}

/// Count inquiries a single thread completes against `svc` until the
/// stop flag flips, cycling the filter pool with a fixed `now`.
fn hammer(svc: &dyn InquiryService, reqs: &[InquiryRequest], stop: &AtomicBool) -> u64 {
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        for req in reqs {
            std::hint::black_box(svc.inquire(req).expect("inquiry answered"));
            n += 1;
        }
    }
    n
}

/// Wall-clock QPS of `svc` under `threads` readers for `window`.
fn wallclock_qps(
    svc: &(dyn InquiryService + Sync),
    reqs: &[InquiryRequest],
    threads: usize,
    window: Duration,
) -> f64 {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| hammer(svc, reqs, &stop)))
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("reader")).sum()
    });
    total as f64 / start.elapsed().as_secs_f64()
}

/// The pre-`serve` architecture: the whole directory behind one lock,
/// every inquiry re-stamping and re-filtering inline.
struct LockedDirectory(Mutex<Giis>);

impl InquiryService for LockedDirectory {
    fn inquire(
        &self,
        req: &InquiryRequest,
    ) -> Result<wanpred_core::infod::InquiryResponse, wanpred_core::infod::InquiryError> {
        self.0.lock().inquire(req)
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let n_sites: usize = arg_value(&args, "--sites")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 6 } else { 12 });
    let records: usize = arg_value(&args, "--records")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 20 } else { 60 });
    let rate: f64 = arg_value(&args, "--rate")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 800.0 } else { 10_000.0 });
    let secs: u64 = arg_value(&args, "--secs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 5 } else { 10 });
    let threads: usize = arg_value(&args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4)
        });
    let wall_ms: u64 = arg_value(&args, "--wall-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 300 } else { 1_500 });

    let sites = serving_sites(n_sites, records, seed);
    let filters = serving_filters(&sites);
    let now = serving_now_unix(records);
    println!(
        "serving ablation: {n_sites} sites x {records} records, {} filters, seed {seed}\n",
        filters.len()
    );

    // --- Phase 1: correctness vs the unsharded oracle. -----------------
    let grises = site_grises(&sites);
    let server = sharded_over(&grises, ServeConfig::default(), now);
    let oracle = oracle_over(&grises, now);
    let mut compared = 0usize;
    for f in &filters {
        for t in [now, now + 1, now + 7] {
            assert_eq!(
                entry_set(&server, f, t),
                entry_set(&oracle, f, t),
                "sharded answer diverged from the oracle on {f} at t={t}"
            );
            compared += 1;
        }
    }
    println!("phase 1: {compared} (filter, time) answers byte-identical to the oracle");

    // --- Phase 2: registrant death serves stale, never stalls. ---------
    let degraded = ShardedServer::new(ServeConfig::default());
    let dead_host = &sites[0].host;
    for (i, (host, g)) in grises.iter().enumerate() {
        let ttl = if i == 0 { 30 } else { u64::MAX };
        degraded.register_site(host.clone(), ttl, g.clone(), now);
    }
    let dead_filter = format!("(&(objectclass=GridFTPPerfInfo)(hostname={dead_host}))");
    let mut stale_violations = 0u64;
    let mut last_live = now;
    let mut post_death_checks = 0u64;
    let mut max_staleness = 0u64;
    for t in now..now + 120 {
        let live = degraded.live_sites(t).iter().any(|s| s == dead_host);
        degraded.refresh(t);
        if live {
            last_live = t;
            continue;
        }
        post_death_checks += 1;
        let req = InquiryRequest::parse(&dead_filter, t).expect("filter parses");
        match degraded.inquire(&req) {
            Ok(resp) => {
                let expected = t - last_live;
                max_staleness = max_staleness.max(resp.staleness_secs);
                if resp.entries.is_empty() || resp.staleness_secs != expected {
                    stale_violations += 1;
                }
            }
            Err(_) => stale_violations += 1,
        }
    }
    assert!(post_death_checks > 80, "the lease never died");
    assert_eq!(
        stale_violations, 0,
        "dead registrant was not served stale-with-correct-stamp"
    );
    println!(
        "phase 2: {post_death_checks} post-death inquiries served stale \
         (max stalenesssecs {max_staleness}), 0 violations"
    );

    // --- Phase 3: modeled open-loop load, replayed twice. --------------
    let run_modeled = |coalesce: bool| {
        let sink = ObsSink::enabled();
        let mut srv = ShardedServer::new(ServeConfig {
            admission: Some(wanpred_core::infod::AdmissionConfig {
                coalesce,
                ..Default::default()
            }),
            ..ServeConfig::default()
        });
        srv.set_obs(sink.clone());
        for (host, g) in &grises {
            srv.register_site(host.clone(), u64::MAX, g.clone(), now);
        }
        srv.refresh(now);
        let report = run_open_loop(
            &srv,
            &OpenLoopConfig {
                seed,
                rate_per_sec: rate,
                duration_secs: secs,
                start_unix: now,
                filters: filters.clone(),
            },
            |sec| srv.refresh(sec),
        );
        (report, sink.snapshot())
    };
    let (report, snap) = run_modeled(true);
    let (replay, snap2) = run_modeled(true);
    assert_eq!(report.offered, replay.offered);
    assert_eq!(report.answered, replay.answered);
    assert_eq!(report.shed, replay.shed);
    assert_eq!(report.latencies_us, replay.latencies_us);
    assert_eq!(
        snap.to_json(),
        snap2.to_json(),
        "same-seed load runs must export byte-identical obs snapshots"
    );
    assert!(report.sustained_qps > 0.0, "modeled run answered nothing");
    let (p50, p95, p99) = (
        report.percentile_us(50.0),
        report.percentile_us(95.0),
        report.percentile_us(99.0),
    );
    println!(
        "phase 3: open loop {rate}/s x {secs}s -> offered {} answered {} \
         shed {} coalesced {} cache-hit {}; sustained {:.0} qps, \
         p50/p95/p99 = {p50}/{p95}/{p99} us (replayed byte-identically)",
        report.offered,
        report.answered,
        report.shed,
        report.coalesced,
        report.cache_hit_responses,
        report.sustained_qps,
    );

    // Coalescing ablation: with identical in-flight inquiries no longer
    // merged, the same arrival stream overruns the M/M/c queue and
    // admission control sheds — deterministically.
    let (uncoalesced, _) = run_modeled(false);
    assert_eq!(uncoalesced.coalesced, 0);
    let (uncoalesced_replay, _) = run_modeled(false);
    assert_eq!(uncoalesced.shed, uncoalesced_replay.shed);
    if !smoke {
        assert!(
            uncoalesced.shed > 0,
            "an over-capacity uncoalesced stream must be shed, not stalled"
        );
    }
    println!(
        "phase 3b: coalescing off -> answered {} shed {} (typed Overloaded, \
         replayed identically){}",
        uncoalesced.answered,
        uncoalesced.shed,
        if uncoalesced.shed > 0 && report.shed == 0 {
            "; coalescing absorbed that overload entirely"
        } else {
            ""
        }
    );

    // --- Phase 4: wall-clock throughput vs the locked directory. -------
    let reqs: Vec<InquiryRequest> = filters
        .iter()
        .map(|f| InquiryRequest::parse(f, now).expect("pool filter parses"))
        .collect();
    let locked = LockedDirectory(Mutex::new(oracle_over(&grises, now)));
    let plain = sharded_over(&grises, ServeConfig::default(), now);
    for (f, req) in filters.iter().zip(&reqs) {
        // Warm both so neither side refreshes providers inside the
        // timed window, then re-check equal correctness on this exact
        // workload.
        let a = plain.inquire(req).expect("warm");
        let b = locked.inquire(req).expect("warm");
        let mut sa: Vec<String> = a.entries.iter().map(|e| e.to_ldif()).collect();
        let mut sb: Vec<String> = b.entries.iter().map(|e| e.to_ldif()).collect();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb, "wall-clock servers disagree on {f}");
    }
    let window = Duration::from_millis(wall_ms);
    let locked_qps = wallclock_qps(&locked, &reqs, threads, window);
    let sharded_qps = wallclock_qps(&plain, &reqs, threads, window);
    let speedup = sharded_qps / locked_qps;
    let mut table = Table::new("wall-clock serving throughput (equal correctness)")
        .headers(["server", "qps", "speedup"]);
    table.row([
        "locked directory".into(),
        format!("{locked_qps:.0}"),
        "1.0x".into(),
    ]);
    table.row([
        "sharded server".into(),
        format!("{sharded_qps:.0}"),
        format!("{speedup:.1}x"),
    ]);
    println!("\n{}", table.render());
    println!(
        "({threads} reader threads, {wall_ms} ms window; the locked baseline \
         re-filters every provider entry per inquiry under one lock, the \
         sharded server answers from per-shard snapshots and filter caches)"
    );
    assert!(sharded_qps > 0.0 && locked_qps > 0.0);
    if !smoke {
        assert!(
            speedup >= 3.0,
            "sharded server must beat the locked directory by >=3x (got {speedup:.2}x)"
        );
    }

    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"sites\": {n_sites},\n  \"records_per_site\": {records},\n  \
         \"filters\": {},\n  \"oracle_answers_compared\": {compared},\n  \
         \"stale_violations\": {stale_violations},\n  \"post_death_checks\": {post_death_checks},\n  \
         \"open_loop\": {{\n    \"rate_per_sec\": {rate},\n    \"duration_secs\": {secs},\n    \
         \"offered\": {},\n    \"answered\": {},\n    \"shed\": {},\n    \"coalesced\": {},\n    \
         \"cache_hit_responses\": {},\n    \"sustained_qps\": {:.3},\n    \
         \"p50_us\": {p50},\n    \"p95_us\": {p95},\n    \"p99_us\": {p99},\n    \
         \"deterministic\": true,\n    \"uncoalesced_answered\": {},\n    \
         \"uncoalesced_shed\": {}\n  }},\n  \"wallclock\": {{\n    \"threads\": {threads},\n    \
         \"window_ms\": {wall_ms},\n    \"locked_qps\": {locked_qps:.1},\n    \
         \"sharded_qps\": {sharded_qps:.1},\n    \"speedup\": {speedup:.3}\n  }}\n}}\n",
        filters.len(),
        report.offered,
        report.answered,
        report.shed,
        report.coalesced,
        report.cache_hit_responses,
        report.sustained_qps,
        uncoalesced.answered,
        uncoalesced.shed,
    );
    let path = wanpred_bench::write_artifact("BENCH_serving.json", &json);
    println!("\ncomparison written to {}", path.display());
}
