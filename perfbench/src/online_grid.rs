//! `online_grid` (closed loop, one client): the per-event online path.
//!
//! Set-up simulates a December campaign on both site pairs. The measured
//! loop replays its completions in time order against a live grid: each
//! completion is appended to its server's shared log (read by a GRIS over
//! `GridFtpPerfProvider::from_shared`), fed to the broker's tournament,
//! the `ShardedServer` is refreshed on an hourly sim-time cadence, and
//! the broker ranks both servers (`select_top_k`, k = 2) for the next
//! request's size through `GiisPerfSource`. Every refresh sees new log
//! content, so every refresh swaps snapshots and flushes the caches.
//!
//! * `throughput_per_s`: completion events per second of loop wall time.
//!   Each pass starts from an empty grid and is cut into [`SEGMENTS`]
//!   slices of consecutive events; the figure is taken over the fastest
//!   tenth of each slice's repetitions (see [`Fastest`]), so the cost
//!   per event still grows with history as it does in one pass.
//! * `latency_mean_us` / `latency_p99_us`: wall time of one
//!   `select_top_k` decision, over the decisions of the kept slices.
//!
//! Checks: every decision ranks `min(2, n)` candidates, every campaign
//! record comes from the one client, and every pass reproduces the first.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use wanpred_core::infod::{
    Dn, GridFtpPerfProvider, Gris, InquiryError, InquiryRequest, InquiryResponse, InquiryService,
    ProviderConfig, ServeConfig, ShardedServer,
};
use wanpred_core::logfmt::{TransferLog, TransferRecord};
use wanpred_core::obs::{names, ObsSink, Snapshot};
use wanpred_core::predict::{Observation, TournamentOptions};
use wanpred_core::replica::{Broker, GiisPerfSource, PhysicalReplica, SelectionPolicy};
use wanpred_core::testbed::{paper_sites, run_campaign, CampaignConfig};

use crate::measure::{
    busy_metrics, cache_hit_ratio, median, overhead_metrics, peak_rss_mb, quantile, ratio,
    rung_tournament_ratio, Busy, Fastest, Outcome, PassPlan, Setups, Slice, Table, Tracer,
    END_TO_END, PER_LAYER,
};
use crate::RunConfig;

const OBSERVE: &str = "predict.tournament.observe";
const REFRESH: &str = "infod.refresh";
const SELECT: &str = "replica.select";

/// Sim-time refresh cadence of the serving layer, seconds.
const REFRESH_EVERY_SECS: u64 = 3_600;

/// Candidates ranked per decision.
const TOP_K: usize = 2;

/// Slices a pass is cut into, by event order.
const SEGMENTS: usize = 32;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// December campaign length, days.
    pub days: u64,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
}

impl Params {
    /// The benchmark size: about 1.7k completions per pass. A 28-day
    /// campaign rather than a 56-day one, so that a run repeats each
    /// slice a few dozen times rather than about ten (see [`Fastest`]).
    pub fn full() -> Self {
        Params {
            days: 28,
            setup_reps: 7,
        }
    }

    /// A size for tests.
    pub fn tiny() -> Self {
        Params {
            days: 2,
            setup_reps: 1,
        }
    }
}

/// The generated inputs: completions in time order, the client, and the
/// two servers as `(host, address)`.
struct Fixture {
    records: Vec<TransferRecord>,
    client: String,
    servers: Vec<(String, String)>,
}

fn setup(seed: u64, days: u64) -> Fixture {
    let cfg = CampaignConfig::builder(seed)
        .december()
        .duration_days(days)
        .probes(false)
        .build();
    let result = run_campaign(&cfg);
    let mut records: Vec<TransferRecord> = result
        .lbl_log
        .records()
        .iter()
        .chain(result.isi_log.records())
        .cloned()
        .collect();
    records.sort_by(|a, b| {
        (a.end_unix, a.start_unix, &a.host).cmp(&(b.end_unix, b.start_unix, &b.host))
    });
    let [anl, lbl, isi] = paper_sites();
    Fixture {
        records,
        client: anl.address,
        servers: vec![(lbl.host, lbl.address), (isi.host, isi.address)],
    }
}

/// An inquiry service that charges the wall time of every inquiry it
/// forwards: the broker reaches the directory only from inside
/// `select_top_k`, so this is where inquiries are timed from outside.
struct TimedService {
    inner: Arc<ShardedServer>,
    busy: Mutex<Busy>,
}

impl InquiryService for TimedService {
    fn inquire(&self, req: &InquiryRequest) -> Result<InquiryResponse, InquiryError> {
        let t = Instant::now();
        let r = self.inner.inquire(req);
        self.busy.lock().record(t.elapsed());
        r
    }
}

/// The live grid one pass runs against, built empty.
struct Grid {
    logs: BTreeMap<String, Arc<RwLock<TransferLog>>>,
    server: Arc<ShardedServer>,
    timed: Option<Arc<TimedService>>,
    broker: Broker<GiisPerfSource>,
}

fn build_grid(fx: &Fixture, sink: &ObsSink) -> Grid {
    let mut server = ShardedServer::new(ServeConfig::default());
    server.set_obs(sink.clone());
    let server = Arc::new(server);
    let mut logs = BTreeMap::new();
    for (host, address) in &fx.servers {
        let log = Arc::new(RwLock::new(TransferLog::new()));
        let mut gris = Gris::new(Dn::parse("o=grid").expect("constant DN"));
        gris.register_provider(Box::new(GridFtpPerfProvider::from_shared(
            ProviderConfig::new(host, address),
            log.clone(),
        )));
        server.register_site(host.clone(), u64::MAX, Arc::new(gris), 0);
        logs.insert(host.clone(), log);
    }
    let timed = sink.is_enabled().then(|| {
        Arc::new(TimedService {
            inner: server.clone(),
            busy: Mutex::new(Busy::default()),
        })
    });
    let svc: Arc<dyn InquiryService> = match &timed {
        Some(t) => t.clone(),
        None => server.clone(),
    };
    let mut broker =
        Broker::new(GiisPerfSource::new(svc)).with_tournament(TournamentOptions::default());
    broker.set_obs(sink.clone());
    Grid {
        logs,
        server,
        timed,
        broker,
    }
}

/// What one pass produced.
struct Pass {
    wall_s: f64,
    /// Consecutive runs of events, each with its decisions' wall times as
    /// latency samples.
    slices: Vec<Slice>,
    online_mape: f64,
    switches: u64,
    refreshes: u64,
    /// Decisions that ranked the LBL server first.
    lbl_first: u64,
    inquire: Busy,
    obs: Option<Snapshot>,
}

fn pass(fx: &Fixture, tracer: &mut Tracer, out: &mut Outcome) -> Pass {
    let sink = if tracer.is_on() {
        ObsSink::enabled()
    } else {
        ObsSink::disabled()
    };
    let mut grid = build_grid(fx, &sink);
    let mut policy = SelectionPolicy::predicted_bandwidth();
    let mut errors_pct = Vec::new();
    let (mut refreshes, mut lbl_first) = (0u64, 0u64);
    let mut next_refresh = 0u64;
    let mut slices = Vec::with_capacity(SEGMENTS);
    let mut seg = Slice::default();
    let t0 = Instant::now();
    let mut seg_start = t0;
    for (i, r) in fx.records.iter().enumerate() {
        let key = i * SEGMENTS / fx.records.len();
        if key != seg.key {
            seg.busy_s = seg_start.elapsed().as_secs_f64();
            slices.push(std::mem::take(&mut seg));
            seg.key = key;
            seg_start = Instant::now();
        }
        seg.work += 1.0;
        // The tournament's prediction for this transfer before it is
        // observed.
        let measured = r.bandwidth_kbs();
        if let Some((_, kbs)) = grid
            .broker
            .tournament()
            .and_then(|pt| pt.predict(&r.source, &r.host, r.start_unix, r.file_size))
        {
            if measured > 0.0 {
                errors_pct.push((kbs - measured).abs() / measured * 100.0);
            }
        }
        if let Some(log) = grid.logs.get(&r.host) {
            log.write().append(r.clone());
        }
        let o = Observation::from_record(r);
        tracer.span(OBSERVE, || {
            grid.broker.observe_transfer(&r.source, &r.host, o)
        });
        if r.end_unix >= next_refresh {
            tracer.span(REFRESH, || grid.server.refresh(r.end_unix));
            refreshes += 1;
            next_refresh = (r.end_unix / REFRESH_EVERY_SECS + 1) * REFRESH_EVERY_SECS;
        }
        let Some(next) = fx.records.get(i + 1) else {
            continue;
        };
        let replicas: Vec<PhysicalReplica> = fx
            .servers
            .iter()
            .map(|(host, _)| PhysicalReplica {
                host: host.clone(),
                path: next.file_name.clone(),
                size: next.file_size,
            })
            .collect();
        let t = Instant::now();
        let sel = grid
            .broker
            .select_top_k(&fx.client, &replicas, &mut policy, TOP_K, r.end_unix);
        let d = t.elapsed();
        tracer.record(SELECT, d);
        seg.samples_us.push(d.as_secs_f64() * 1e6);
        match sel {
            Ok(s) => {
                out.check(s.ranked.len() == TOP_K.min(replicas.len()), || {
                    format!("decision {i} ranked {} candidates", s.ranked.len())
                });
                if s.best().replica.host == fx.servers[0].0 {
                    lbl_first += 1;
                }
            }
            Err(e) => out.check(false, || format!("decision {i}: {e}")),
        }
    }
    seg.busy_s = seg_start.elapsed().as_secs_f64();
    slices.push(seg);
    let wall_s = t0.elapsed().as_secs_f64();
    let online_mape = errors_pct.iter().sum::<f64>() / errors_pct.len().max(1) as f64;
    Pass {
        wall_s,
        slices,
        online_mape,
        switches: grid.broker.tournament().map_or(0, |t| t.switches()),
        refreshes,
        lbl_first,
        inquire: grid
            .timed
            .map(|t| t.busy.lock().clone())
            .unwrap_or_default(),
        obs: sink.is_enabled().then(|| sink.snapshot()),
    }
}

/// Run the workload.
pub fn run(params: &Params, rc: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let fx = setups.time(|| setup(rc.seed, params.days));
    out.check(fx.records.iter().all(|r| r.source == fx.client), || {
        "a campaign record names another client".to_string()
    });
    out.check(fx.records.len() >= 2, || {
        "the campaign completed too few transfers".to_string()
    });

    let mut tracer = Tracer::new(true);
    let mut plan = PassPlan::new(rc.budget, rc.trace, params.setup_reps);
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    while let Some(is_traced) = plan.next_pass() {
        if plan.setup_due() {
            setups.time(|| setup(rc.seed, params.days));
        }
        let p = if is_traced {
            pass(&fx, &mut tracer, &mut out)
        } else {
            pass(&fx, &mut Tracer::new(false), &mut out)
        };
        if let Some(first) = plain.first() {
            let same = (
                first.online_mape,
                first.switches,
                first.refreshes,
                first.lbl_first,
            ) == (p.online_mape, p.switches, p.refreshes, p.lbl_first);
            out.check(same, || {
                "a pass diverged from the first pass of the same seed".to_string()
            });
        }
        if is_traced {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }

    let first = plain.first().expect("the pass plan runs at least one pass");
    let events = fx.records.len();
    out.pin("events", events);
    out.pin("online_mape", first.online_mape);
    out.pin("switches", first.switches);
    out.pin("refreshes", first.refreshes);
    out.pin("lbl_first", first.lbl_first);

    let rates: Vec<f64> = plain.iter().map(|p| events as f64 / p.wall_s).collect();
    let slices: Vec<Slice> = plain.iter().flat_map(|p| p.slices.clone()).collect();
    let decisions: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.samples_us.iter().copied())
        .collect();
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
                    OBSERVE,
                    "predict.tournament.observe.busy_s",
                    "predict.tournament.observe.busy_share",
                ),
                (REFRESH, "infod.refresh.busy_s", "infod.refresh.busy_share"),
                (SELECT, "replica.select.busy_s", "replica.select.busy_share"),
            ],
        );
        t.insert(
            "predict.tournament.observe.p99_us",
            tracer.layer(OBSERVE).quantile_us(0.99),
        );
        t.insert(
            "infod.refresh.p99_us",
            tracer.layer(REFRESH).quantile_us(0.99),
        );
        t.insert(
            "replica.select.p99_us",
            tracer.layer(SELECT).quantile_us(0.99),
        );
        let inquire_s: f64 = traced.iter().map(|p| p.inquire.secs()).sum();
        t.insert("infod.inquire.busy_s", inquire_s);
        t.insert("infod.inquire.busy_share", ratio(inquire_s, wall));
        t.insert("predict.tournament.switches", first.switches as f64);
        t.insert("predict.online_mape_pct", first.online_mape);
        if let Some(snap) = traced.first().and_then(|p| p.obs.as_ref()) {
            let refreshes = snap.counter(names::INFOD_SERVE_REFRESHES);
            out.check(refreshes == first.refreshes, || {
                format!(
                    "obs counted {refreshes} refreshes, the loop made {}",
                    first.refreshes
                )
            });
            t.insert("infod.refresh.count", refreshes as f64);
            t.insert(
                "infod.serve.snapshot_swaps",
                snap.counter(names::INFOD_SERVE_SNAPSHOT_SWAPS) as f64,
            );
            t.insert("infod.cache.hit_ratio", cache_hit_ratio(snap));
            t.insert(
                "replica.rung_tournament_ratio",
                rung_tournament_ratio(&[snap]),
            );
            out.pin(
                "traced.cache_hits",
                snap.counter(names::INFOD_SERVE_CACHE_HITS),
            );
            out.pin(
                "traced.swaps",
                snap.counter(names::INFOD_SERVE_SNAPSHOT_SWAPS),
            );
        }
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
        "online_grid: {events} events/pass over {} passes; events_per_s {:.1} 1/s (fastest {} \
         of {} slices; median pass {:.1} 1/s); decision_p50_us {:.2} us; decision_p99_us \
         {:.2} us over all {} decisions; online_mape_pct {:.3} %; setup_s {setup_s:.3} s; \
         pass rates {:.1?}",
        plain.len() + traced.len(),
        fastest.per_s,
        fastest.kept,
        fastest.of,
        median(&rates),
        quantile(&decisions, 0.5),
        quantile(&decisions, 0.99),
        decisions.len(),
        first.online_mape,
        rates,
    ));
    out
}
