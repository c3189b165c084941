//! `directory_load` (open loop at fixed offered rates): the read side of
//! the query plane.
//!
//! Dozens of synthetic `testbed::serving` sites, each a GRIS over its own
//! transfer history, sit behind a `ShardedServer` with the default
//! configuration. One thread follows a seeded Poisson wall-clock
//! schedule, parses each due filter and calls `inquire`. The mix is a hot
//! filter set plus a cold tail of distinct filters larger than the
//! per-shard cache, so both cache hits and misses (filter match and
//! render) are exercised. Refreshes run once per sim second and leave the
//! content unchanged; the steps of an untraced pass are shorter than a
//! sim second, so only the refresh that builds each server runs there.
//! No `predict` or `simnet` work is done.
//!
//! A pass runs one short step at each offered rate, each on a fresh
//! server and each on the same schedule in every pass, so the passes
//! repeat identical work and differ only by how fast the host ran them.
//! Sim time advances with the schedule (one inquiry second per scheduled
//! second), so cache behaviour is a function of the seed.
//!
//! * `throughput_per_s`: inquiries answered per second of the step at the
//!   highest offered rate, which is far above what one thread can serve:
//!   the serving ceiling, measured open loop, over the fastest tenth of
//!   the repetitions of each [`WINDOW`] of the step (see [`Fastest`]).
//! * `latency_mean_us` / `latency_p99_us`: wall time of one inquiry's
//!   parse and `inquire` calls at the lowest rate, where nearly every
//!   inquiry finds the server idle, over every call of every pass. At
//!   higher rates the call time depends on how warm the last inquiry
//!   left the caches, which the host's other tenants disturb: over eight
//!   runs its IQR over median was 0.25 at 5000/s and 0.08 at 1250/s.
//!   These calls are not narrowed to their fastest repetitions: a 50 ms
//!   window of them holds one or two scans, so its fastest repetitions
//!   are mostly those whose scans ran fast, and over ten seeds that
//!   choice spread the mean and the p99 by 0.23 (IQR over median),
//!   against 0.15 and 0.08 over all calls.
//!
//! Latency from each inquiry's due time, which also charges the wait a
//! stall imposes on later inquiries, decides `max_qps_at_slo` (the
//! highest offered rate whose p99 meets [`SLO_P99_US`] with nothing left
//! queued, printed in the report) and is reported per rate and, for the
//! middle rate, as the traced run's
//! `loadgen.inquiry_p50_us` / `loadgen.inquiry_p99_us`. It is not an
//! end-to-end metric because host preemption of a few milliseconds,
//! common on shared two-core machines, moves it by more than any bound
//! a comparison could use.
//!
//! Checks: during set-up every filter outside the cold tail, and during
//! the run a fixed sample of answers (every [`SAMPLE_EVERY`]-th inquiry),
//! is byte-equal, as a sorted LDIF entry set, to the unsharded `Giis`
//! oracle over the same GRISes; no inquiry returns an error.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wanpred_core::infod::{
    CacheStatus, Dn, Entry, Giis, GridFtpPerfProvider, Gris, InquiryRequest, InquiryService,
    ProviderConfig, Registration, ServeConfig, ShardedServer,
};
use wanpred_core::obs::{names, ObsSink, Snapshot};
use wanpred_core::testbed::{serving_filters, serving_now_unix, serving_sites, SERVING_CLIENTS};

use crate::measure::{
    cache_hit_ratio, mean, median, peak_rss_mb, quantile, ratio, Fastest, Outcome, PassPlan,
    Setups, Slice, Table, Tracer, END_TO_END, PER_LAYER,
};
use crate::RunConfig;

const PARSE: &str = "infod.parse";
const INQUIRE: &str = "infod.inquire";
const REFRESH: &str = "infod.refresh";

/// Every this-many-th inquiry of a step is checked against the oracle.
const SAMPLE_EVERY: usize = 101;

/// Only this many of a step's first inquiries are sampled, so the held
/// answers, and with them peak memory, do not grow with the serving rate.
const SAMPLE_WITHIN: usize = 20_000;

/// Windows a step's answers are counted in by finish time: the slices
/// the serving rate is taken over. Every pass runs a step on the same
/// schedule, so a window holds about the same inquiries in every pass.
const WINDOW: Duration = Duration::from_millis(50);

/// Longest a step below the serving ceiling keeps draining its backlog
/// after its last inquiry was due; whatever is still queued then is
/// dropped. The saturating step stops when its schedule ends.
const DRAIN_CAP: Duration = Duration::from_millis(250);

/// The loop spins instead of sleeping when the next inquiry is due within
/// this long.
const SPIN_BELOW: Duration = Duration::from_millis(1);

/// Inquiries in every hundred consecutive arrivals that are broad scans,
/// and that come from the cold tail; the rest come from the hot set.
/// Every hundred holds exactly these counts, so each step offers the same
/// mix whatever the seed. Scans cost tens of times a hot lookup: drawn
/// one by one at one in a hundred, the scans of a one-second step at
/// 1250/s number 12.5 on average, give or take 3.5, and the mean call
/// time followed them from seed to seed; and the p99 fell on the edge
/// between the scans and the rest. At two in a hundred it falls among
/// the scans.
const SCANS_PER_100: u64 = 2;
const COLD_PER_100: u64 = 4;

/// Latency limit on the p99 from due time, microseconds.
const SLO_P99_US: f64 = 100_000.0;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// Registered sites.
    pub sites: usize,
    /// Transfer records per site history.
    pub records_per_site: usize,
    /// Popular (client, server) paths the hot set looks up.
    pub hot_paths: usize,
    /// Distinct filters in the cold tail.
    pub cold_filters: usize,
    /// Offered rates, inquiries per second, ascending; latency from due
    /// time is reported at the middle one, and the highest saturates the
    /// server.
    pub rates: Vec<f64>,
    /// Length of each rate's step in a pass. The lowest rate's step is
    /// the longest, so its fresh server's first cache misses are a small
    /// share of its calls.
    pub steps: Vec<Duration>,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
}

impl Params {
    /// The benchmark size.
    pub fn full() -> Self {
        Params {
            sites: 48,
            records_per_site: 60,
            hot_paths: 16,
            cold_filters: 4_096,
            rates: vec![1_250.0, 2_500.0, 5_000.0, 200_000.0],
            steps: [600, 250, 250, 300].map(Duration::from_millis).to_vec(),
            setup_reps: 7,
        }
    }

    /// A size for tests.
    pub fn tiny() -> Self {
        Params {
            sites: 6,
            records_per_site: 20,
            hot_paths: 4,
            cold_filters: 64,
            rates: vec![200.0, 400.0, 100_000.0],
            steps: [300, 200, 200].map(Duration::from_millis).to_vec(),
            setup_reps: 1,
        }
    }
}

/// SplitMix64: the workload's only source of variety, keyed on the seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The generated inputs: the site GRISes, the filter pool (hot set,
/// then broad scans, then the cold tail) and the inquiry clock's
/// starting second.
struct Fixture {
    grises: Vec<(String, Arc<Gris>)>,
    filters: Vec<String>,
    hot: usize,
    scans: usize,
    start_unix: u64,
}

fn setup(params: &Params, seed: u64) -> Fixture {
    let sites = serving_sites(params.sites, params.records_per_site, seed);
    // The serving pool splits into broad scans (answers of dozens to
    // hundreds of entries) and targeted inquiries; the hot set is the
    // targeted ones plus the broker's lookups for popular (client,
    // server) paths.
    let (scans, mut hot): (Vec<String>, Vec<String>) = serving_filters(&sites)
        .into_iter()
        .partition(|f| !f.contains("hostname=") && !f.contains("stalenesssecs"));
    for (i, site) in sites.iter().take(params.hot_paths).enumerate() {
        let client = SERVING_CLIENTS[i % SERVING_CLIENTS.len()];
        hot.push(format!(
            "(&(objectclass=GridFTPPerfInfo)(cn={client})(hostname={}))",
            site.host
        ));
    }
    // The cold tail: broker lookups made distinct by a history-size
    // clause, so each is its own cache key.
    let cold = (0..params.cold_filters).map(|i| {
        let h = splitmix64(seed ^ 0xc01d ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        let site = &sites[(h % sites.len() as u64) as usize];
        let client = SERVING_CLIENTS[((h >> 8) % 3) as usize];
        format!(
            "(&(objectclass=GridFTPPerfInfo)(cn={client})(hostname={})(numtransfers>={}))",
            site.host,
            i % params.records_per_site.max(1)
        )
    });
    let hot_len = hot.len();
    let scan_len = scans.len();
    let mut filters = hot;
    filters.extend(scans);
    filters.extend(cold);
    let grises = sites
        .iter()
        .map(|s| {
            let mut g = Gris::new(Dn::parse("o=grid").expect("constant DN"));
            g.register_provider(Box::new(GridFtpPerfProvider::from_snapshot(
                ProviderConfig::new(&s.host, &s.address),
                s.log.clone(),
            )));
            (s.host.clone(), Arc::new(g))
        })
        .collect();
    let start_unix = serving_now_unix(params.records_per_site);
    Fixture {
        grises,
        filters,
        hot: hot_len,
        scans: scan_len,
        start_unix,
    }
}

fn sharded(fx: &Fixture, sink: &ObsSink) -> ShardedServer {
    let mut server = ShardedServer::new(ServeConfig::default());
    server.set_obs(sink.clone());
    for (host, g) in &fx.grises {
        server.register_site(host.clone(), u64::MAX, g.clone(), fx.start_unix);
    }
    server.refresh(fx.start_unix);
    server
}

fn oracle(fx: &Fixture) -> Giis {
    let giis = Giis::new("oracle");
    for (host, g) in &fx.grises {
        giis.register_service(
            Registration {
                id: host.clone(),
                ttl_secs: u64::MAX,
            },
            g.clone(),
            fx.start_unix,
        );
    }
    giis
}

/// One scheduled inquiry: when it is due (from the step start) and which
/// filter it carries.
#[derive(Debug, Clone, Copy)]
struct Due {
    at: Duration,
    filter: usize,
}

/// The seeded Poisson schedule of one step. Within each hundred arrivals
/// a seeded rotation of a fixed stride spreads the scan and cold slots;
/// scans take the scan filters in turn from a seeded start.
fn schedule(fx: &Fixture, seed: u64, rate: f64, step: Duration) -> Vec<Due> {
    let stream = splitmix64(seed ^ rate.to_bits());
    let cold = fx.hot + fx.scans;
    let mut scans_made = stream as usize % fx.scans;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    for i in 0u64.. {
        let h = splitmix64(stream ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let u = ((h >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= step.as_secs_f64() {
            break;
        }
        let n = (splitmix64(h) >> 16) as usize;
        let rotation = splitmix64(stream ^ 0xb10c ^ (i / 100)) % 100;
        let slot = ((i % 100) * 37 + rotation) % 100;
        let filter = if slot < SCANS_PER_100 {
            scans_made += 1;
            fx.hot + scans_made % fx.scans
        } else if slot < SCANS_PER_100 + COLD_PER_100 {
            cold + n % (fx.filters.len() - cold)
        } else {
            n % fx.hot
        };
        out.push(Due {
            at: Duration::from_secs_f64(t),
            filter,
        });
    }
    out
}

/// What one step at one offered rate measured.
struct Step {
    rate: f64,
    offered: usize,
    answered: usize,
    /// Latency from due time of each answered inquiry, microseconds.
    latencies_us: Vec<f64>,
    /// Wall time of each answered inquiry's parse and `inquire` calls,
    /// microseconds.
    service_us: Vec<f64>,
    /// Inquiries still queued when the step's schedule ended.
    backlog_at_end: u64,
    backlog_max: u64,
    /// How late the loop woke for each inquiry that arrived while it was
    /// idle, microseconds.
    lag_us: Vec<f64>,
    /// Summed service time, seconds.
    busy_s: f64,
    cache_hits: u64,
    /// Sampled answers: (filter, inquiry second, entries).
    samples: Vec<(usize, u64, Vec<Entry>)>,
    errors: Vec<String>,
    /// Wall time from the step's start to its last answer, seconds.
    wall_s: f64,
    /// Length of the step's schedule.
    step: Duration,
    /// Answers finished in each [`WINDOW`] of the step.
    window_answers: Vec<u64>,
    /// The server's obs snapshot, when the step was traced.
    obs: Option<Snapshot>,
}

impl Step {
    fn p99_us(&self) -> f64 {
        quantile(&self.latencies_us, 0.99)
    }

    /// Meets the latency limit with every inquiry answered and no more
    /// queued at the end than the limit's worth of arrivals.
    fn meets(&self) -> bool {
        self.answered == self.offered
            && self.errors.is_empty()
            && self.p99_us() <= SLO_P99_US
            && (self.backlog_at_end as f64) <= self.rate * SLO_P99_US / 1e6
    }

    /// Inquiries answered per second of wall time.
    fn answered_per_s(&self) -> f64 {
        ratio(self.answered as f64, self.wall_s)
    }

    /// The windows within the step's schedule, each as the wall time it
    /// spans and the answers finished in it: the figure of a saturated
    /// step.
    fn serving_slices(&self) -> impl Iterator<Item = Slice> + '_ {
        let whole = (self.step.as_nanos() / WINDOW.as_nanos()) as usize;
        let answers = self.window_answers.iter().take(whole).enumerate();
        answers.map(|(key, &n)| Slice {
            key,
            busy_s: WINDOW.as_secs_f64(),
            work: n as f64,
            samples_us: Vec::new(),
        })
    }
}

/// Wait until `at` after `start`: sleep through long gaps (a sleeping
/// thread wakes late), then re-read the clock until due. The busy wait
/// has no PAUSE hint: under a hypervisor a PAUSE loop can trap and give
/// the vCPU away, which made the next inquiry's timing noisier.
fn wait_until(start: Instant, at: Duration) {
    loop {
        let now = start.elapsed();
        if now >= at {
            return;
        }
        if at - now > SPIN_BELOW {
            std::thread::sleep(at - now - SPIN_BELOW);
        }
    }
}

/// Run one step. The loop is its own generator: it follows the
/// precomputed schedule, waits while nothing is due, and otherwise serves
/// the oldest due inquiry. The schedule never slows when the server
/// does, and latency counts from each inquiry's due time, so this is an
/// open loop with one server.
fn run_step(
    fx: &Fixture,
    sched: &[Due],
    rate: f64,
    step: Duration,
    drain: Duration,
    tracer: &mut Tracer,
) -> Step {
    let sink = if tracer.is_on() {
        ObsSink::enabled()
    } else {
        ObsSink::disabled()
    };
    let server = sharded(fx, &sink);
    let mut s = Step {
        rate,
        offered: sched.len(),
        answered: 0,
        latencies_us: Vec::with_capacity(sched.len()),
        service_us: Vec::with_capacity(sched.len()),
        backlog_at_end: 0,
        backlog_max: 0,
        lag_us: Vec::new(),
        busy_s: 0.0,
        cache_hits: 0,
        samples: Vec::new(),
        errors: Vec::new(),
        wall_s: 0.0,
        step,
        window_answers: Vec::new(),
        obs: None,
    };
    let mut next_refresh = fx.start_unix + 1;
    let mut busy = Duration::ZERO;
    let mut due_cursor = 0usize;
    let start = Instant::now();
    for (i, d) in sched.iter().enumerate() {
        let now = start.elapsed();
        if now < d.at {
            wait_until(start, d.at);
            s.lag_us.push((start.elapsed() - d.at).as_secs_f64() * 1e6);
        } else {
            while due_cursor < sched.len() && sched[due_cursor].at <= now {
                due_cursor += 1;
            }
            s.backlog_max = s.backlog_max.max((due_cursor - i) as u64);
            if now >= step && s.backlog_at_end == 0 {
                s.backlog_at_end = (sched.len() - i) as u64;
            }
            if now > step + drain {
                // Past the drain cap: the rest stays unanswered.
                break;
            }
        }
        let now_unix = fx.start_unix + d.at.as_secs();
        if now_unix >= next_refresh {
            let t = Instant::now();
            tracer.span(REFRESH, || server.refresh(now_unix));
            busy += t.elapsed();
            next_refresh = now_unix + 1;
        }
        let served = Instant::now();
        let req = tracer.span(PARSE, || {
            InquiryRequest::parse(&fx.filters[d.filter], now_unix)
        });
        let resp = req.map_err(|e| e.to_string()).and_then(|req| {
            tracer
                .span(INQUIRE, || server.inquire(&req))
                .map_err(|e| e.to_string())
        });
        let finished = start.elapsed();
        let service = served.elapsed();
        busy += service;
        match resp {
            Ok(resp) => {
                s.answered += 1;
                s.service_us.push(service.as_secs_f64() * 1e6);
                s.latencies_us
                    .push(finished.saturating_sub(d.at).as_secs_f64() * 1e6);
                if resp.provenance.cache == CacheStatus::Hit {
                    s.cache_hits += 1;
                }
                let w = (finished.as_nanos() / WINDOW.as_nanos()) as usize;
                if s.window_answers.len() <= w {
                    s.window_answers.resize(w + 1, 0);
                }
                s.window_answers[w] += 1;
                if i % SAMPLE_EVERY == 0 && i < SAMPLE_WITHIN {
                    s.samples.push((d.filter, now_unix, resp.entries));
                }
            }
            Err(e) => s.errors.push(format!("inquiry {i}: {e}")),
        }
    }
    s.busy_s = busy.as_secs_f64();
    s.wall_s = start.elapsed().as_secs_f64();
    s.obs = sink.is_enabled().then(|| sink.snapshot());
    s
}

/// Sorted LDIF rendering: the byte-identical entry-set comparison.
fn ldif_set(entries: &[Entry]) -> Vec<String> {
    let mut v: Vec<String> = entries.iter().map(Entry::to_ldif).collect();
    v.sort();
    v
}

/// Compare a step's sampled answers with the unsharded oracle.
fn check_samples(fx: &Fixture, oracle: &Giis, s: &Step, out: &mut Outcome) {
    for (filter, now_unix, entries) in &s.samples {
        let f = &fx.filters[*filter];
        let want = InquiryRequest::parse(f, *now_unix)
            .map_err(|e| e.to_string())
            .and_then(|req| oracle.inquire(&req).map_err(|e| e.to_string()));
        match want {
            Ok(want) => out.check(ldif_set(entries) == ldif_set(&want.entries), || {
                format!(
                    "rate {}: answer to {f} at {now_unix} differs from the oracle",
                    s.rate
                )
            }),
            Err(e) => out.check(false, || format!("oracle failed on {f}: {e}")),
        }
    }
}

/// Build the inputs and the oracle, warm the GRIS caches, and check
/// every hot filter and broad scan against the oracle once.
fn set_up(params: &Params, seed: u64) -> (Fixture, Giis, Vec<String>) {
    let fx = setup(params, seed);
    let oracle = oracle(&fx);
    let server = sharded(&fx, &ObsSink::disabled());
    let mut mismatches = Vec::new();
    for f in &fx.filters[..fx.hot + fx.scans] {
        let answers = [&server as &dyn InquiryService, &oracle].map(|svc| {
            InquiryRequest::parse(f, fx.start_unix)
                .map_err(|e| e.to_string())
                .and_then(|req| svc.inquire(&req).map_err(|e| e.to_string()))
                .map(|r| ldif_set(&r.entries))
        });
        if answers[0].is_err() || answers[0] != answers[1] {
            mismatches.push(format!("set-up: answer to {f} differs from the oracle"));
        }
    }
    (fx, oracle, mismatches)
}

/// Run the workload.
pub fn run(params: &Params, rc: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let (fx, oracle, mismatches) = setups.time(|| set_up(params, rc.seed));
    out.check(mismatches.is_empty(), || mismatches.join("; "));
    let mid = params.rates.len() / 2;
    let mut t = Table::new();
    if rc.trace {
        // The middle rate twice on identical schedules: untraced, then
        // traced. The difference in serving busy time is the tracing
        // overhead.
        let step = (rc.budget / 2).max(params.steps[mid]);
        let rate = params.rates[mid];
        let sched = schedule(&fx, rc.seed, rate, step);
        let plain = run_step(&fx, &sched, rate, step, DRAIN_CAP, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let traced = run_step(&fx, &sched, rate, step, DRAIN_CAP, &mut tracer);
        for s in [&plain, &traced] {
            out.attempted += s.offered as u64;
            out.failures.extend(s.errors.iter().cloned());
            check_samples(&fx, &oracle, s, &mut out);
        }
        let wall = traced.wall_s;
        let inquire = tracer.layer(INQUIRE).secs() + tracer.layer(PARSE).secs();
        t.insert("infod.inquire.busy_s", inquire);
        t.insert("infod.inquire.busy_share", ratio(inquire, wall));
        let refresh = tracer.layer(REFRESH);
        t.insert("infod.refresh.busy_s", refresh.secs());
        t.insert("infod.refresh.busy_share", ratio(refresh.secs(), wall));
        t.insert("infod.refresh.p99_us", refresh.quantile_us(0.99));
        if let Some(snap) = &traced.obs {
            t.insert("infod.cache.hit_ratio", cache_hit_ratio(snap));
            let refreshes = snap.counter(names::INFOD_SERVE_REFRESHES);
            t.insert("infod.refresh.count", refreshes as f64);
            let swaps = snap.counter(names::INFOD_SERVE_SNAPSHOT_SWAPS);
            t.insert("infod.serve.snapshot_swaps", swaps as f64);
            out.pin(
                "traced.obs_cache_hits",
                snap.counter(names::INFOD_SERVE_CACHE_HITS),
            );
        }
        t.insert("loadgen.inquiry_p50_us", quantile(&plain.latencies_us, 0.5));
        t.insert("loadgen.inquiry_p99_us", plain.p99_us());
        t.insert("loadgen.lag_p99_us", quantile(&traced.lag_us, 0.99));
        t.insert("loadgen.backlog_max", traced.backlog_max as f64);
        t.insert("trace.wall_s", traced.busy_s);
        t.insert("trace.untraced_wall_s", plain.busy_s);
        t.insert("trace.overhead_s", traced.busy_s - plain.busy_s);
        out.pin("offered", traced.offered);
        out.pin("cache_hits", (plain.cache_hits, traced.cache_hits));
        out.report.push(format!(
            "directory_load: rate {rate}/s for {:.2} s, traced and untraced; \
             lag_p99_us {:.1} us; backlog_max {}",
            step.as_secs_f64(),
            quantile(&traced.lag_us, 0.99),
            traced.backlog_max
        ));
        out.set_metrics(PER_LAYER, &t);
        return out;
    }

    // Every pass runs every rate on the same schedules; a step's sampled
    // answers are checked, then dropped, as soon as it ends.
    let scheds: Vec<Vec<Due>> = params
        .rates
        .iter()
        .zip(&params.steps)
        .map(|(&rate, &step)| schedule(&fx, rc.seed, rate, step))
        .collect();
    let mut plan = PassPlan::new(rc.budget, false, params.setup_reps);
    let mut steps: Vec<Vec<Step>> = params.rates.iter().map(|_| Vec::new()).collect();
    while plan.next_pass().is_some() {
        if plan.setup_due() {
            setups.time(|| set_up(params, rc.seed));
        }
        for (k, &rate) in params.rates.iter().enumerate() {
            let saturating = k + 1 == params.rates.len();
            let drain = if saturating {
                Duration::ZERO
            } else {
                DRAIN_CAP
            };
            let mut s = run_step(
                &fx,
                &scheds[k],
                rate,
                params.steps[k],
                drain,
                &mut Tracer::new(false),
            );
            out.attempted += s.offered as u64;
            out.failures.extend(s.errors.iter().cloned());
            check_samples(&fx, &oracle, &s, &mut out);
            s.samples.clear();
            steps[k].push(s);
        }
    }
    for (rate, runs) in params.rates.iter().zip(&steps) {
        let pooled = |f: fn(&Step) -> &Vec<f64>| -> Vec<f64> {
            runs.iter().flat_map(|s| f(s).iter().copied()).collect()
        };
        let (latencies, service) = (pooled(|s| &s.latencies_us), pooled(|s| &s.service_us));
        let lags = pooled(|s| &s.lag_us);
        let first = &runs[0];
        out.report.push(format!(
            "directory_load: offered {rate}/s x {:.2} s x {} passes: answered {}/{} in the \
             first, from due time p50 {:.1} us p99 {:.1} us, call p50 {:.2} us p99 {:.1} us \
             mean {:.2} us, generator lag p99 {:.1} us, backlog max {} end {}, cache hits {}{}",
            first.step.as_secs_f64(),
            runs.len(),
            first.answered,
            first.offered,
            quantile(&latencies, 0.5),
            quantile(&latencies, 0.99),
            quantile(&service, 0.5),
            quantile(&service, 0.99),
            mean(&service),
            quantile(&lags, 0.99),
            runs.iter().map(|s| s.backlog_max).max().unwrap_or(0),
            runs.iter().map(|s| s.backlog_at_end).max().unwrap_or(0),
            first.cache_hits,
            if runs.iter().all(Step::meets) {
                ""
            } else {
                " (misses the limit)"
            },
        ));
    }
    let (light, middle) = (&steps[0], &steps[mid]);
    let top = steps.last().expect("at least one rate");
    for s in [&light[0], &middle[0]] {
        out.pin("offered", s.offered);
        out.pin("cache_hits", s.cache_hits);
    }
    // The highest rate every one of whose passes met the limit, at the
    // median answered rate of its passes.
    let max_qps = steps
        .iter()
        .rev()
        .find(|runs| runs.iter().all(Step::meets))
        .map_or(0.0, |runs| {
            median(&runs.iter().map(Step::answered_per_s).collect::<Vec<_>>())
        });
    let windows: Vec<Slice> = top.iter().flat_map(Step::serving_slices).collect();
    let serving = Fastest::of(&windows);
    let calls: Vec<f64> = light
        .iter()
        .flat_map(|s| s.service_us.iter().copied())
        .collect();
    let middle_latencies: Vec<f64> = middle
        .iter()
        .flat_map(|s| s.latencies_us.iter().copied())
        .collect();
    let setup_s = setups.median_s();
    out.report.push(format!(
        "directory_load: served {:.1} 1/s at {}/s offered (fastest {} of {} windows); \
         max_qps_at_slo {max_qps:.1} 1/s (p99 limit {SLO_P99_US} us); at {}/s \
         inquiry_p50_us {:.2} us, inquiry_p99_us {:.2} us from due time; at {}/s inquiry \
         call mean {:.2} us, p99 {:.2} us ({} calls); setup_s {setup_s:.3} s",
        serving.per_s,
        params.rates[params.rates.len() - 1],
        serving.kept,
        serving.of,
        params.rates[mid],
        quantile(&middle_latencies, 0.5),
        quantile(&middle_latencies, 0.99),
        params.rates[0],
        mean(&calls),
        quantile(&calls, 0.99),
        calls.len(),
    ));
    t.insert("throughput_per_s", serving.per_s);
    t.insert("latency_mean_us", mean(&calls));
    t.insert("latency_p99_us", quantile(&calls, 0.99));
    t.insert("setup_s", setup_s);
    t.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    out.set_metrics(END_TO_END, &t);
    out
}
